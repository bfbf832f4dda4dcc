"""Replay of the DD parity corpus (``golden_dd_corpus.json``).

The corpus was recorded while two DD engines (an object-node engine and
this array engine) and two gate-application paths (the ``apply_gate_*``
kernels and full-height gate DDs with full-depth multiplication) still
coexisted; all four combinations agreed on every row before it was
written.  Replaying it on the single engine pins that behaviour:

* ``cases`` — every fuzz family x seed x variant (equivalent, one gate
  missing, one CNOT flipped) x DD strategy: the verdict, ``max_dd_size``
  (with ``trace_sizes``), ``stimuli_digest`` and ``first_mismatch``.
* ``roots`` — the root digest (:func:`repro.dd.export.matrix_digest`)
  of ``circuit_dd`` on the logical form, and of ``simulate_circuit_dd``.
"""

import json
import math
import random
from pathlib import Path

import pytest

from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    is_symbolic_circuit,
)
from repro.dd import ArrayDDPackage, matrix_digest, vector_digest
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.permutations import to_logical_form
from repro.fuzz.generator import FAMILIES, random_family_circuit

_CORPUS = json.loads(
    (Path(__file__).parent / "golden_dd_corpus.json").read_text()
)


def _family_circuit(family, seed, num_qubits=4, num_gates=24):
    rng = random.Random(seed)
    circuit = random_family_circuit(
        family, rng, num_qubits=num_qubits, num_gates=num_gates
    )
    if is_symbolic_circuit(circuit):
        # DDs build dense gate matrices, so the parameterized family is
        # swept at a seeded concrete valuation.
        valuation = {
            name: rng.uniform(-math.pi, math.pi)
            for name in circuit_parameters(circuit)
        }
        circuit = instantiate_circuit(circuit, valuation)
    return circuit


def _variant(circuit, kind, seed):
    if kind == "equivalent":
        return circuit.copy()
    if kind == "gate_missing":
        return remove_random_gate(circuit, seed=seed)
    if kind == "flipped_cnot":
        return flip_random_cnot(circuit, seed=seed)
    raise ValueError(kind)


def _case_id(case):
    return "-".join(
        str(case[key]) for key in ("family", "seed", "variant", "strategy")
    )


def test_corpus_covers_every_family():
    assert {case["family"] for case in _CORPUS["cases"]} == set(FAMILIES)
    assert {case["strategy"] for case in _CORPUS["cases"]} == {
        "construction", "alternating", "simulation", "combined",
    }
    assert len(_CORPUS["cases"]) == len(FAMILIES) * 3 * 3 * 4


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=_case_id)
def test_checker_case(case):
    # The trailing CNOT guarantees flip_random_cnot has a target.
    circuit = _family_circuit(case["family"], case["seed"]).cx(0, 1)
    other = _variant(circuit, case["variant"], case["seed"])
    config = Configuration(
        strategy=case["strategy"], seed=5, num_simulations=8,
        trace_sizes=True, static_analysis=False,
    )
    result = EquivalenceCheckingManager(circuit, other, config).run()
    statistics = result.statistics
    assert result.equivalence.value == case["verdict"]
    assert statistics.get("max_dd_size") == case["max_dd_size"]
    assert statistics.get("stimuli_digest") == case["stimuli_digest"]
    assert statistics.get("first_mismatch") == case["first_mismatch"]


@pytest.mark.parametrize(
    "root", _CORPUS["roots"], ids=lambda r: f"{r['family']}-{r['seed']}"
)
def test_root_digests(root):
    circuit = _family_circuit(root["family"], root["seed"])
    logical, _ = to_logical_form(circuit, circuit.num_qubits)
    pkg = ArrayDDPackage()
    assert matrix_digest(circuit_dd(pkg, logical), pkg) == root["circuit_dd"]
    pkg = ArrayDDPackage()
    state = simulate_circuit_dd(pkg, circuit)
    assert vector_digest(state, pkg) == root["simulate_circuit_dd"]
