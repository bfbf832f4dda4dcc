"""Parity guards for the DD checkers on registers with idle wires.

A compiled circuit acts on every wire of its device, but after
:func:`repro.ec.permutations.to_logical_form` most of those wires carry no
gate.  These tests pin what the DD checkers must report on such pairs,
whatever they do internally with the idle wires:

* a golden for ``simulation_check`` on compiled Table-1 cells (verdict,
  stimulus digest, first mismatch, exact minimum fidelity), plus the
  alternating verdict on the equivalent cells;
* a dense-unitary property test: small pairs embedded in a wider
  register under a random initial layout and output permutation;
* hand-built edge cases around wires that no gate touches.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bench import algorithms
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit import QuantumCircuit, circuit_unitary, unitaries_equivalent
from repro.circuit.unitary import permutation_matrix
from repro.compile import compile_circuit, manhattan_architecture
from repro.ec import (
    AlternatingChecker,
    Configuration,
    ConstructionChecker,
    simulation_check,
    state_check,
)
from repro.ec.permutations import logical_pair, to_logical_form
from repro.ec.results import Equivalence
from tests.conftest import random_circuit

POSITIVE = (Equivalence.EQUIVALENT, Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE)

# ---------------------------------------------------------------------------
# Golden: simulation on compiled Table-1 cells (Manhattan, seed 0)
# ---------------------------------------------------------------------------
_DIGESTS = {
    "qft_6": "cf1e7d815f564fadfd7ef874df89963a40699d17183a5dc6994f90bcd13f53fa",
    "ghz_16": "645161efec16f106c1a82726125f38433be4abc7304b1f781cd604a95e629772",
    "graphstate_12": "c1c1ad31b63f9dc949f8f2fb2d36775e2109d2fa916b21443633d0a581063dba",
}

#: cell -> (verdict, first_mismatch, repr(min_fidelity))
_GOLDEN = {
    ("qft_6", "equivalent"): ("probably_equivalent", None, "0.999999999999998"),
    ("qft_6", "gate_missing"): ("not_equivalent", 8, "0.03806023374435655"),
    ("qft_6", "flipped_cnot"): ("not_equivalent", 1, "0.24999999999999944"),
    ("ghz_16", "equivalent"): ("probably_equivalent", None, "0.9999999999999996"),
    ("ghz_16", "gate_missing"): ("not_equivalent", 1, "0.2499999999999999"),
    ("ghz_16", "flipped_cnot"): ("not_equivalent", 4, "0.0"),
    ("graphstate_12", "equivalent"): ("probably_equivalent", None, "0.999999999999996"),
    ("graphstate_12", "gate_missing"): ("not_equivalent", 1, "0.249999999999999"),
    ("graphstate_12", "flipped_cnot"): ("not_equivalent", 1, "0.0"),
}

_GENERATORS = {
    "qft_6": lambda: algorithms.qft(6),
    "ghz_16": lambda: algorithms.ghz_state(16),
    "graphstate_12": lambda: algorithms.graph_state(12, seed=0),
}


@pytest.fixture(scope="module")
def compiled_cells():
    """The three configurations of each golden instance, seed 0."""
    device = manhattan_architecture()
    cells = {}
    for name, generate in _GENERATORS.items():
        original = generate()
        compiled = compile_circuit(original, device)
        variants = {
            "equivalent": compiled,
            "gate_missing": remove_random_gate(compiled, seed=0),
            "flipped_cnot": flip_random_cnot(compiled, seed=0),
        }
        for cell, variant in variants.items():
            cells[(name, cell)] = (original, variant)
    return cells


@pytest.mark.parametrize("cell", sorted(_GOLDEN), ids="/".join)
def test_compiled_simulation_golden(compiled_cells, cell):
    original, variant = compiled_cells[cell]
    result = simulation_check(original, variant, Configuration(seed=0))
    verdict, first_mismatch, min_fidelity = _GOLDEN[cell]
    assert result.equivalence.value == verdict
    assert result.statistics["stimuli_digest"] == _DIGESTS[cell[0]]
    assert result.statistics.get("first_mismatch") == first_mismatch
    assert repr(result.statistics["min_fidelity"]) == min_fidelity


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_compiled_alternating_golden(compiled_cells, name):
    original, compiled = compiled_cells[(name, "equivalent")]
    result = AlternatingChecker(original, compiled, Configuration(seed=0)).run()
    assert result.equivalence is Equivalence.EQUIVALENT


# ---------------------------------------------------------------------------
# Dense-unitary property test: small pairs inside a wider register
# ---------------------------------------------------------------------------
def _dense_logical(circuit: QuantumCircuit, width: int) -> np.ndarray:
    """``P_out† U P_in`` of ``circuit`` padded to ``width`` wires."""
    padded = QuantumCircuit(width, operations=list(circuit))
    layout = circuit.resolved_initial_layout()
    output = circuit.resolved_output_permutation()
    p_in = permutation_matrix({l: p for p, l in layout.items()}, width)
    p_out = permutation_matrix({l: p for p, l in output.items()}, width)
    return p_out.conj().T @ circuit_unitary(padded) @ p_in


def _embed(
    logical: QuantumCircuit, width: int, rng: random.Random
) -> QuantumCircuit:
    """Place ``logical`` on ``width`` wires the way a router would.

    A random initial layout, gates relabelled onto physical wires, random
    SWAPs (some onto idle wires) tracked into the output permutation.
    """
    wires = list(range(width))
    rng.shuffle(wires)
    layout = {wires[q]: q for q in range(width)}  # physical -> logical
    where = {q: p for p, q in layout.items()}  # logical -> physical
    out = QuantumCircuit(width, name=f"{logical.name}_embedded")
    out.initial_layout = dict(layout)
    for op in logical:
        if width > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(width), 2)
            out.swap(a, b)
            layout[a], layout[b] = layout[b], layout[a]
            where = {q: p for p, q in layout.items()}
        out.append(op.remapped(where))
    out.output_permutation = dict(layout)
    return out


def _random_pair(seed: int):
    rng = random.Random(seed)
    data = rng.randint(1, 3)
    circuit1 = random_circuit(data, rng.randint(3, 10), seed=seed)
    if rng.random() < 0.5:
        circuit2 = circuit1.copy()
    elif len(circuit1) and rng.random() < 0.5:
        circuit2 = remove_random_gate(circuit1, seed=seed)
    else:
        circuit2 = circuit1.copy().t(rng.randrange(data))
    width = rng.randint(data + 1, 7)
    circuit2 = _embed(circuit2, width, rng)
    if rng.random() < 0.5:
        circuit1 = _embed(circuit1, rng.randint(data, width), rng)
    return circuit1, circuit2, width


@pytest.mark.parametrize("seed", range(24))
def test_dense_property(seed):
    circuit1, circuit2, width = _random_pair(seed)
    u1 = _dense_logical(circuit1, width)
    u2 = _dense_logical(circuit2, width)
    equivalent = unitaries_equivalent(u1, u2)
    exact = np.allclose(u1, u2, atol=1e-9)
    same_state = abs(abs(np.vdot(u1[:, 0], u2[:, 0])) - 1.0) < 1e-9
    config = Configuration(seed=seed)
    for checker in (AlternatingChecker, ConstructionChecker):
        result = checker(circuit1, circuit2, config).run()
        if not equivalent:
            assert result.equivalence is Equivalence.NOT_EQUIVALENT, checker
        elif exact:
            assert result.equivalence is Equivalence.EQUIVALENT, checker
        else:
            assert result.equivalence in POSITIVE, checker
    state = state_check(circuit1, circuit2, config)
    assert state.considered_equivalent == same_state
    simulated = simulation_check(circuit1, circuit2, config)
    if equivalent:
        assert simulated.equivalence is Equivalence.PROBABLY_EQUIVALENT
    else:
        assert simulated.equivalence in (
            Equivalence.NOT_EQUIVALENT, Equivalence.PROBABLY_EQUIVALENT
        )


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------
def _all_dd_verdicts(circuit1, circuit2, config=None):
    config = config or Configuration(seed=0)
    return {
        "alternating": AlternatingChecker(circuit1, circuit2, config).run(),
        "construction": ConstructionChecker(circuit1, circuit2, config).run(),
        "simulation": simulation_check(circuit1, circuit2, config),
        "state": state_check(circuit1, circuit2, config),
    }


def test_both_gate_free():
    results = _all_dd_verdicts(QuantumCircuit(3), QuantumCircuit(5))
    for name, result in results.items():
        assert result.considered_equivalent, name
    assert results["alternating"].equivalence is Equivalence.EQUIVALENT
    assert results["construction"].equivalence is Equivalence.EQUIVALENT
    assert results["state"].equivalence is Equivalence.EQUIVALENT


@pytest.mark.parametrize(
    "stimuli, digest",
    [
        ("classical", "e0ee596d0ef96aa5d0e95bd67eaffd32f292ec7e9af49097b54ae2ba7addd607"),
        ("local_quantum", "d387acb094131ac5da3eccd9e69f3e249c576b59fc7a0de4429ad4700c8938ff"),
    ],
)
def test_stimulus_on_untouched_data_wire(stimuli, digest):
    """Data wire 2 carries no gate in either circuit, but stimuli still
    set it; the result and the digest must not depend on it."""
    narrow = QuantumCircuit(3).h(0).cx(0, 1)
    wide = QuantumCircuit(5).h(0).cx(0, 1)
    config = Configuration(seed=3, stimuli_type=stimuli)
    result = simulation_check(narrow, wide, config)
    assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
    assert result.statistics["stimuli_digest"] == digest
    broken = QuantumCircuit(5).h(0).cx(0, 1).cx(1, 0)
    result = simulation_check(narrow, broken, config)
    assert result.equivalence is Equivalence.NOT_EQUIVALENT
    assert result.statistics["stimuli_digest"] == digest


def test_correction_swap_onto_idle_ancilla():
    """A SWAP onto an ancilla that the metadata does not declare comes
    back as a correction SWAP on that ancilla, which must stay."""
    original = QuantumCircuit(2).h(0).cx(0, 1)
    moved = QuantumCircuit(4).h(0).cx(0, 1).swap(1, 3)
    for name, result in _all_dd_verdicts(original, moved).items():
        assert result.equivalence is Equivalence.NOT_EQUIVALENT, name
    declared = moved.copy()
    declared.output_permutation = {1: 3, 3: 1}
    for name, result in _all_dd_verdicts(original, declared).items():
        assert result.considered_equivalent, name


def test_wire_touched_in_one_circuit_only():
    original = QuantumCircuit(3).h(0)
    cancelling = QuantumCircuit(3).h(0).x(2).x(2)
    for name, result in _all_dd_verdicts(original, cancelling).items():
        assert result.considered_equivalent, name
    flipped = QuantumCircuit(3).h(0).x(2)
    for name, result in _all_dd_verdicts(original, flipped).items():
        assert result.equivalence is Equivalence.NOT_EQUIVALENT, name


# ---------------------------------------------------------------------------
# The helper itself and the statistics it feeds
# ---------------------------------------------------------------------------
def test_logical_pair_relabels_in_wire_order():
    circuit1 = QuantumCircuit(6).cx(4, 1)
    circuit2 = QuantumCircuit(6).h(3)
    pair = logical_pair(circuit1, circuit2, Configuration(), keep=[0])
    assert pair.wires == (0, 1, 3, 4)
    assert pair.width_statistics() == {"active_qubits": 4, "elided_wires": 2}
    assert pair.circuit1.operations == QuantumCircuit(4).cx(3, 1).operations
    assert pair.circuit2.operations == QuantumCircuit(4).h(2).operations


def test_logical_pair_without_idle_wires_is_logical_form():
    circuit1 = random_circuit(3, 12, seed=1)
    circuit2 = random_circuit(3, 12, seed=2)
    pair = logical_pair(circuit1, circuit2, Configuration())
    assert pair.wires == (0, 1, 2)
    assert pair.circuit1 == to_logical_form(circuit1)[0]
    assert pair.circuit2 == to_logical_form(circuit2)[0]


def test_width_statistics_in_every_dd_result():
    narrow = QuantumCircuit(3).h(0).cx(0, 2)
    wide = QuantumCircuit(6).h(0).cx(0, 2)
    for name, result in _all_dd_verdicts(narrow, wide).items():
        # Simulation keeps every data wire, since stimuli may set them.
        active = 3 if name == "simulation" else 2
        assert result.statistics["active_qubits"] == active, name
        assert result.statistics["elided_wires"] == 6 - active, name
