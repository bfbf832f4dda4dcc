"""Property-based algebra laws of the DD package.

Canonical decision diagrams form a matrix algebra; these hypothesis-driven
tests check the algebraic laws — associativity, distributivity, the adjoint
anti-homomorphism, trace cyclicity.  Equality is checked numerically: node
identity only holds when both computation orders produce bit-identical
interned weights, and as the paper notes (Section 4.1), canonical diagrams
"might not be exactly identical due to numerical imprecisions" — different
evaluation orders accumulate different rounding.  Where exact identity is
robust (e.g. commutativity of addition via the cache's canonical operand
order) we do assert it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dd import ArrayDDPackage, edge_to_matrix, edge_to_vector
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from tests.conftest import random_circuit

_N = 3


def _close(pkg, left, right, n):
    np.testing.assert_allclose(
        edge_to_matrix(left, n, pkg), edge_to_matrix(right, n, pkg), atol=1e-8
    )


def _three_circuits(seed):
    return (
        random_circuit(_N, 8, seed=seed),
        random_circuit(_N, 8, seed=seed + 1_000_000),
        random_circuit(_N, 8, seed=seed + 2_000_000),
    )


class TestAlgebraLaws:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_multiplication_associative(self, seed):
        pkg = ArrayDDPackage()
        a, b, c = [circuit_dd(pkg, x) for x in _three_circuits(seed)]
        left = pkg.multiply(pkg.multiply(a, b), c)
        right = pkg.multiply(a, pkg.multiply(b, c))
        _close(pkg, left, right, _N)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_left_distributivity(self, seed):
        pkg = ArrayDDPackage()
        a, b, c = [circuit_dd(pkg, x) for x in _three_circuits(seed)]
        left = pkg.multiply(a, pkg.add(b, c))
        right = pkg.add(pkg.multiply(a, b), pkg.multiply(a, c))
        np.testing.assert_allclose(
            edge_to_matrix(left, _N, pkg),
            edge_to_matrix(right, _N, pkg),
            atol=1e-8,
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_adjoint_anti_homomorphism(self, seed):
        pkg = ArrayDDPackage()
        a, b, _ = [circuit_dd(pkg, x) for x in _three_circuits(seed)]
        left = pkg.conjugate_transpose(pkg.multiply(a, b))
        right = pkg.multiply(
            pkg.conjugate_transpose(b), pkg.conjugate_transpose(a)
        )
        _close(pkg, left, right, _N)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_adjoint_involutive(self, seed):
        pkg = ArrayDDPackage()
        a, _, _ = [circuit_dd(pkg, x) for x in _three_circuits(seed)]
        double = pkg.conjugate_transpose(pkg.conjugate_transpose(a))
        _close(pkg, double, a, _N)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_trace_cyclic(self, seed):
        pkg = ArrayDDPackage()
        a, b, _ = [circuit_dd(pkg, x) for x in _three_circuits(seed)]
        tr_ab = pkg.trace(pkg.multiply(a, b))
        tr_ba = pkg.trace(pkg.multiply(b, a))
        assert tr_ab == pytest.approx(tr_ba, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_addition_commutative_and_canonical(self, seed):
        pkg = ArrayDDPackage()
        a, b, _ = [circuit_dd(pkg, x) for x in _three_circuits(seed)]
        left = pkg.add(a, b)
        right = pkg.add(b, a)
        assert pkg.edge_node(left) == pkg.edge_node(right)
        assert pkg.edge_weight(left) == pytest.approx(
            pkg.edge_weight(right), abs=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matrix_vector_consistent_with_matrix_product(self, seed):
        """(A B)|0...0> equals A (B |0...0>)."""
        pkg = ArrayDDPackage()
        circuit_a, circuit_b, _ = _three_circuits(seed)
        a = circuit_dd(pkg, circuit_a)
        b = circuit_dd(pkg, circuit_b)
        zero = pkg.basis_state(_N)
        via_matrix = pkg.multiply_matrix_vector(pkg.multiply(a, b), zero)
        via_vector = pkg.multiply_matrix_vector(
            a, pkg.multiply_matrix_vector(b, zero)
        )
        np.testing.assert_allclose(
            edge_to_vector(via_matrix, _N, pkg),
            edge_to_vector(via_vector, _N, pkg),
            atol=1e-8,
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_inner_product_conjugate_symmetry(self, seed):
        pkg = ArrayDDPackage()
        circuit_a, circuit_b, _ = _three_circuits(seed)
        va = simulate_circuit_dd(pkg, circuit_a)
        vb = simulate_circuit_dd(pkg, circuit_b)
        ab = pkg.inner_product(va, vb)
        ba = pkg.inner_product(vb, va)
        assert ab == pytest.approx(ba.conjugate(), abs=1e-9)

    def test_clear_compute_tables_preserves_results(self):
        pkg = ArrayDDPackage()
        a = circuit_dd(pkg, random_circuit(_N, 10, seed=5))
        b = circuit_dd(pkg, random_circuit(_N, 10, seed=6))
        before = pkg.multiply(a, b)
        pkg.clear_compute_tables()
        after = pkg.multiply(a, b)
        assert pkg.edge_node(before) == pkg.edge_node(after)
        assert pkg.edge_weight(before) == pkg.edge_weight(after)
