"""Tests for the gate-application kernels (``apply_gate_*``).

The contract is strict bit-identity: within one package, the kernels
must return the very same canonical node (and weight) as the full-height
gate DD (:func:`repro.dd.gates.operation_dd`) followed by the generic
full-depth ``multiply`` / ``multiply_matrix_vector``, for matrix
products from either side and for matrix-vector products.  Root digests
from fresh packages are pinned by ``golden_dd_corpus.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.gate import Operation
from repro.circuit.unitary import (
    circuit_unitary,
    permutation_matrix,
    statevector,
)
from repro.dd import (
    ArrayDDPackage,
    edge_to_matrix,
    edge_to_vector,
    matrix_digest,
    vector_digest,
)
from repro.dd.gates import (
    apply_operation_left,
    apply_operation_right,
    apply_operation_to_vector,
    circuit_dd,
    compact_operation_dd,
    operation_dd,
    permutation_dd,
    simulate_circuit_dd,
    swap_dd,
)
from tests.conftest import random_circuit


_GOLDEN = {
    (entry["gate_set"], entry["seed"]): entry
    for entry in json.loads(
        (Path(__file__).parent / "golden_dd_corpus.json").read_text()
    )["random_circuits"]
}


@pytest.fixture
def pkg():
    return ArrayDDPackage()


def _full_height_left(pkg, accumulated, op, num_qubits):
    return pkg.multiply(operation_dd(pkg, op, num_qubits), accumulated)


def _full_height_right(pkg, accumulated, op, num_qubits):
    return pkg.multiply(accumulated, operation_dd(pkg, op, num_qubits))


def _full_height_vector(pkg, state, op, num_qubits):
    return pkg.multiply_matrix_vector(operation_dd(pkg, op, num_qubits), state)


class TestCompactOperationDD:
    def test_root_level_is_top_touched_qubit(self, pkg):
        edge = compact_operation_dd(pkg, Operation("x", (2,), (0,)))
        assert pkg.mat.levels[pkg.edge_node(edge)] == 2
        edge = compact_operation_dd(pkg, Operation("h", (1,)))
        assert pkg.mat.levels[pkg.edge_node(edge)] == 1

    def test_matches_full_dd_on_its_own_register(self, pkg):
        op = Operation("x", (1,), (0,))
        compact = compact_operation_dd(pkg, op)
        c = QuantumCircuit(2)
        c.cx(0, 1)
        np.testing.assert_allclose(
            edge_to_matrix(compact, 2, pkg), circuit_unitary(c), atol=1e-12
        )


class TestKernelsVsFullHeight:
    """Kernels and full-height multiplication agree node-for-node in the
    same package; fresh-package roots match the golden digests."""

    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matrix_accumulation_left(self, gate_set, seed, pkg):
        circuit = random_circuit(5, 25, seed=seed, gate_set=gate_set)
        direct = circuit_dd(pkg, circuit)
        assert matrix_digest(direct, pkg) == _GOLDEN[gate_set, seed][
            "circuit_dd"
        ]
        full = pkg.identity(5)
        for op in circuit:
            full = _full_height_left(pkg, full, op, 5)
        assert pkg.edge_node(direct) == pkg.edge_node(full)
        assert pkg.edge_weight(direct) == pkg.edge_weight(full)
        np.testing.assert_allclose(
            edge_to_matrix(direct, 5, pkg), circuit_unitary(circuit), atol=1e-9
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_accumulation_right(self, seed, pkg):
        accumulated_direct = pkg.identity(4)
        accumulated_full = pkg.identity(4)
        for op in random_circuit(4, 20, seed=seed):
            accumulated_direct = apply_operation_right(
                pkg, accumulated_direct, op
            )
            accumulated_full = _full_height_right(pkg, accumulated_full, op, 4)
            assert pkg.edge_node(accumulated_direct) == pkg.edge_node(
                accumulated_full
            )
            assert pkg.edge_weight(accumulated_direct) == pkg.edge_weight(
                accumulated_full
            )

    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vector_simulation(self, gate_set, seed, pkg):
        circuit = random_circuit(5, 25, seed=seed, gate_set=gate_set)
        direct = simulate_circuit_dd(pkg, circuit)
        assert vector_digest(direct, pkg) == _GOLDEN[gate_set, seed][
            "simulate_circuit_dd"
        ]
        full = pkg.basis_state(5)
        for op in circuit:
            full = _full_height_vector(pkg, full, op, 5)
        assert pkg.edge_node(direct) == pkg.edge_node(full)
        assert pkg.edge_weight(direct) == pkg.edge_weight(full)
        np.testing.assert_allclose(
            edge_to_vector(direct, 5, pkg), statevector(circuit), atol=1e-9
        )

    def test_wide_register_narrow_gate(self, pkg):
        """A gate on low qubits of a wide register passes upper levels through."""
        num_qubits = 12
        accumulated = pkg.identity(num_qubits)
        op = Operation("x", (1,), (0,))
        direct = apply_operation_left(pkg, accumulated, op)
        full = _full_height_left(pkg, accumulated, op, num_qubits)
        assert pkg.edge_node(direct) == pkg.edge_node(full)
        assert pkg.edge_weight(direct) == pkg.edge_weight(full)
        # The pass-through never created nodes above the accumulated height.
        assert pkg.mat.levels[pkg.edge_node(direct)] == num_qubits - 1

    def test_zero_target_short_circuits(self, pkg):
        zero = pkg.zero_matrix_edge()
        gate = compact_operation_dd(pkg, Operation("h", (0,)))
        assert pkg.edge_weight(pkg.apply_gate_left(gate, zero)) == 0
        assert pkg.edge_weight(pkg.apply_gate_right(zero, gate)) == 0
        zero_vector = pkg.zero_vector_edge()
        assert pkg.edge_weight(pkg.apply_gate_vector(gate, zero_vector)) == 0


class TestSwapDD:
    @pytest.mark.parametrize("num_qubits", [2, 3, 5])
    def test_swap_dd_matches_dense(self, num_qubits, pkg):
        for a in range(num_qubits):
            for b in range(a + 1, num_qubits):
                circuit = QuantumCircuit(num_qubits)
                circuit.swap(a, b)
                np.testing.assert_allclose(
                    edge_to_matrix(swap_dd(pkg, a, b, num_qubits), num_qubits, pkg),
                    circuit_unitary(circuit),
                    atol=1e-12,
                )

    def test_swap_dd_is_argument_order_invariant(self, pkg):
        assert pkg.edge_node(swap_dd(pkg, 0, 2, 3)) == pkg.edge_node(
            swap_dd(pkg, 2, 0, 3)
        )

    def test_swap_dd_rejects_bad_arguments(self, pkg):
        with pytest.raises(ValueError):
            swap_dd(pkg, 1, 1, 3)
        with pytest.raises(ValueError):
            swap_dd(pkg, 0, 3, 3)

    def test_operation_dd_special_cases_swap(self, pkg):
        from repro.dd.gates import operation_dd

        edge = operation_dd(pkg, Operation("swap", (0, 2)), 4)
        assert pkg.edge_node(edge) == pkg.edge_node(swap_dd(pkg, 0, 2, 4))

    def test_controlled_swap_uses_generic_path(self, pkg):
        """A Fredkin gate must not hit the uncontrolled special case."""
        from repro.dd.gates import operation_dd

        fredkin = Operation("swap", (0, 1), (2,))
        circuit = QuantumCircuit(3, operations=[fredkin])
        np.testing.assert_allclose(
            edge_to_matrix(operation_dd(pkg, fredkin, 3), 3, pkg),
            circuit_unitary(circuit),
            atol=1e-12,
        )


class TestPermutationDD:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_random_permutations_match_dense(self, num_qubits, pkg):
        rng = random.Random(num_qubits)
        for _ in range(4):
            wires = list(range(num_qubits))
            rng.shuffle(wires)
            perm = {i: wires[i] for i in range(num_qubits)}
            np.testing.assert_allclose(
                edge_to_matrix(permutation_dd(pkg, perm, num_qubits), num_qubits, pkg),
                permutation_matrix(perm, num_qubits),
                atol=1e-12,
            )

    def test_identity_permutation(self, pkg):
        edge = permutation_dd(pkg, {}, 4)
        assert pkg.edge_node(edge) == pkg.edge_node(pkg.identity(4))

    def test_partial_permutation_on_wide_register(self, pkg):
        """Low-wire cycles on a wide register match the dense reference."""
        num_qubits = 8
        perm = {0: 2, 2: 1, 1: 0}
        np.testing.assert_allclose(
            edge_to_matrix(permutation_dd(pkg, perm, num_qubits), num_qubits, pkg),
            permutation_matrix(perm, num_qubits),
            atol=1e-12,
        )


class TestApplyOperationToVector:
    def test_vector_kernel_matches_dense_on_stimuli(self, pkg):
        from repro.ec.stimuli import generate_stimulus, prepare_stimulus_state

        rng = random.Random(3)
        for kind in ("classical", "local_quantum", "global_quantum"):
            stimulus = generate_stimulus(kind, 5, 4, rng)
            state = prepare_stimulus_state(pkg, stimulus, 5)
            np.testing.assert_allclose(
                edge_to_vector(state, 5, pkg), statevector(stimulus), atol=1e-9
            )

    def test_vector_kernel_matches_full_height(self, pkg):
        circuit = random_circuit(4, 15, seed=11)
        state_direct = pkg.basis_state(4)
        state_full = pkg.basis_state(4)
        for op in circuit:
            state_direct = apply_operation_to_vector(pkg, state_direct, op)
            state_full = _full_height_vector(pkg, state_full, op, 4)
        assert pkg.edge_node(state_direct) == pkg.edge_node(state_full)
        assert pkg.edge_weight(state_direct) == pkg.edge_weight(state_full)
