"""Unit tests for gate-DD construction (`repro.dd.gates`)."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.circuit.gate import Operation
from repro.circuit.unitary import operation_unitary, permutation_matrix
from repro.dd import ArrayDDPackage, edge_to_matrix
from repro.dd.gates import (
    apply_operation_left,
    apply_operation_right,
    circuit_dd,
    operation_dd,
    permutation_dd,
    permutation_to_transpositions,
)
from tests.conftest import random_circuit


@pytest.fixture
def pkg():
    return ArrayDDPackage()


OPERATIONS = [
    Operation("h", (0,)),
    Operation("h", (2,)),
    Operation("t", (1,)),
    Operation("rz", (1,), params=(0.7,)),
    Operation("u3", (0,), params=(0.3, 0.8, 1.7)),
    Operation("x", (2,), (0,)),
    Operation("x", (0,), (2,)),
    Operation("z", (1,), (2,)),
    Operation("x", (1,), (0, 2)),
    Operation("swap", (0, 2)),
    Operation("swap", (2, 0)),
    Operation("swap", (0, 1), (2,)),
    Operation("rzz", (0, 2), params=(0.9,)),
    Operation("iswap", (1, 2)),
    Operation("rx", (1,), (0,), (1.2,)),
]


class TestOperationDD:
    @pytest.mark.parametrize("op", OPERATIONS, ids=str)
    def test_matches_dense(self, op, pkg):
        edge = operation_dd(pkg, op, 3)
        np.testing.assert_allclose(
            edge_to_matrix(edge, 3, pkg), operation_unitary(op, 3), atol=1e-10
        )

    def test_many_controls(self, pkg):
        op = Operation("x", (0,), (1, 2, 3, 4))
        np.testing.assert_allclose(
            edge_to_matrix(operation_dd(pkg, op, 5), 5, pkg),
            operation_unitary(op, 5),
            atol=1e-10,
        )

    def test_left_right_application(self, pkg):
        h = Operation("h", (0,))
        x = Operation("x", (0,))
        left = apply_operation_left(pkg, operation_dd(pkg, x, 1), h)  # H @ X
        right = apply_operation_right(pkg, operation_dd(pkg, x, 1), h)  # X @ H
        hx = operation_unitary(h, 1) @ operation_unitary(x, 1)
        xh = operation_unitary(x, 1) @ operation_unitary(h, 1)
        np.testing.assert_allclose(edge_to_matrix(left, 1, pkg), hx, atol=1e-12)
        np.testing.assert_allclose(edge_to_matrix(right, 1, pkg), xh, atol=1e-12)


class TestCircuitDD:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense(self, seed, pkg):
        circuit = random_circuit(4, 25, seed=seed)
        np.testing.assert_allclose(
            edge_to_matrix(circuit_dd(pkg, circuit), 4, pkg),
            circuit_unitary(circuit),
            atol=1e-8,
        )

    def test_ghz_dd_is_compact(self, pkg):
        """Paper Fig. 3a: the GHZ unitary has a compact DD."""
        ghz = QuantumCircuit(3).h(0).cx(0, 1).cx(0, 2)
        size = pkg.matrix_dd_size(circuit_dd(pkg, ghz))
        assert size < 8  # far below the 4^3 dense entries


class TestPermutations:
    def test_transpositions_compose_to_permutation(self):
        perm = {0: 2, 2: 4, 4: 0, 1: 3, 3: 1}
        transpositions = permutation_to_transpositions(perm, 5)
        current = list(range(5))
        for a, b in transpositions:
            current[a], current[b] = current[b], current[a]
        # content that started on wire w must end on wire perm[w]
        for wire in range(5):
            assert current[perm[wire]] == wire

    def test_identity_permutation_empty(self):
        assert permutation_to_transpositions({}, 4) == []

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            permutation_to_transpositions({0: 1, 1: 1}, 2)

    @pytest.mark.parametrize(
        "perm", [{0: 1, 1: 0}, {0: 1, 1: 2, 2: 0}, {0: 2, 2: 0}]
    )
    def test_permutation_dd_matches_dense(self, perm, pkg):
        edge = permutation_dd(pkg, perm, 3)
        np.testing.assert_allclose(
            edge_to_matrix(edge, 3, pkg), permutation_matrix(perm, 3), atol=1e-12
        )
