"""Tests for the array-native DD engine (`repro.dd.array_package` /
`repro.dd.array_store`).

Canonical handles play the role of node identity, the open-addressed
unique table guarantees canonicity (including growth from pathologically
small capacities), dense exports agree with numpy, and root digests are
independent of the package and the process that built them.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.circuit.unitary import statevector
from repro.dd import (
    ArrayDDPackage,
    ComplexTable,
    NodeStore,
    edge_to_matrix,
    edge_to_vector,
    matrix_digest,
    vector_digest,
)
from repro.dd.array_package import EDGE_SHIFT, WEIGHT_MASK, ZERO_EDGE
from repro.dd.export import matrix_dd_to_dot
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from tests.conftest import assert_allclose, random_circuit


@pytest.fixture
def pkg():
    return ArrayDDPackage()


class TestNodeStore:
    def test_terminal_is_handle_zero(self):
        store = NodeStore(2)
        assert len(store) == 1
        assert store.num_nodes == 0
        assert store.levels[0] == -1

    def test_lookup_is_canonical(self):
        store = NodeStore(2)
        handle1, created1 = store.lookup_or_insert(0, (0, 1, 0, 0))
        handle2, created2 = store.lookup_or_insert(0, (0, 1, 0, 0))
        assert created1 and not created2
        assert handle1 == handle2 == 1

    def test_distinct_fields_distinct_handles(self):
        store = NodeStore(2)
        a, _ = store.lookup_or_insert(0, (0, 1, 0, 0))
        b, _ = store.lookup_or_insert(0, (0, 0, 0, 1))
        c, _ = store.lookup_or_insert(1, (0, 1, 0, 0))
        assert len({a, b, c}) == 3

    def test_arity_and_capacity_validation(self):
        with pytest.raises(ValueError):
            NodeStore(1)
        with pytest.raises(ValueError):
            NodeStore(2, slot_capacity=0)

    def test_growth_from_tiny_capacity(self):
        """A 1-slot table must survive arbitrary insertions via growth."""
        store = NodeStore(2, slot_capacity=1)
        handles = {}
        for level in range(6):
            for wid in range(1, 9):
                handle, created = store.lookup_or_insert(
                    0, (0, wid, 0, level)
                )
                if (level, wid) in handles:
                    assert not created
                    assert handle == handles[(level, wid)]
                else:
                    assert created
                    handles[(level, wid)] = handle
        assert store.grows > 0
        assert store.num_nodes == len(handles)
        # Every node is still found after all the rehashing.
        for (level, wid), expected in handles.items():
            handle, created = store.lookup_or_insert(0, (0, wid, 0, level))
            assert not created and handle == expected

    def test_collision_chains_verified_by_fields(self):
        """Probe-chain candidates are verified against the field arrays,
        so hash collisions can never alias two distinct nodes."""
        store = NodeStore(4, slot_capacity=2)
        seen = set()
        for i in range(1, 40):
            handle, created = store.lookup_or_insert(
                i % 3, (0, i, 0, 0, 0, 0, 0, 0)
            )
            assert created
            assert handle not in seen
            seen.add(handle)
        assert store.collisions > 0
        stats = store.stats()
        assert stats["nodes"] == 39
        assert stats["lookups"] == 39
        assert stats["slot_capacity"] >= 64

    def test_as_arrays_layout(self):
        store = NodeStore(2)
        store.lookup_or_insert(3, (0, 1, 0, 2))
        arrays = store.as_arrays()
        assert arrays["levels"].tolist() == [-1, 3]
        assert arrays["children"].shape == (2, 2)
        assert arrays["weights"][1].tolist() == [1, 2]


class TestArrayAlgebra:
    def test_identity_matrix(self, pkg):
        dense = edge_to_matrix(pkg.identity(3), 3, pkg)
        assert_allclose(dense, np.eye(8))

    def test_basis_state(self, pkg):
        dense = edge_to_vector(pkg.basis_state(3, bits=0b101), 3, pkg)
        expected = np.zeros(8, dtype=complex)
        expected[0b101] = 1.0
        assert_allclose(dense, expected)

    def test_circuit_matrix_matches_dense(self, pkg):
        circuit = random_circuit(3, 20, seed=1)
        actual = edge_to_matrix(circuit_dd(pkg, circuit), 3, pkg)
        assert_allclose(actual, circuit_unitary(circuit))

    def test_simulation_matches_dense(self, pkg):
        circuit = random_circuit(3, 20, seed=2)
        actual = edge_to_vector(simulate_circuit_dd(pkg, circuit), 3, pkg)
        assert_allclose(actual, statevector(circuit))

    def test_unitarity_via_conjugate_transpose(self, pkg):
        circuit = random_circuit(3, 15, seed=3)
        u = circuit_dd(pkg, circuit)
        product = pkg.multiply(pkg.conjugate_transpose(u), u)
        assert pkg.is_identity(product, 3)

    def test_fidelity_of_equal_states(self, pkg):
        circuit = random_circuit(3, 12, seed=4)
        state = simulate_circuit_dd(pkg, circuit)
        assert pkg.fidelity(state, state) == pytest.approx(1.0)

    def test_trace_of_identity(self, pkg):
        assert pkg.trace(pkg.identity(4)) == pytest.approx(16.0)

    def test_zero_edge_weight_mask(self, pkg):
        """`is_zero` is a weight-id test, never `edge == 0`: arithmetic
        can snap a weight to zero under a non-terminal handle."""
        assert ZERO_EDGE & WEIGHT_MASK == 0
        ghz = QuantumCircuit(2).h(0).cx(0, 1)
        root = circuit_dd(pkg, ghz)
        assert root & WEIGHT_MASK != 0
        assert root >> EDGE_SHIFT != 0

    def test_tiny_unique_table_same_results(self):
        """Growth from a 2-slot unique table is behaviour-invisible."""
        circuit = random_circuit(4, 30, seed=5)
        table = ComplexTable()
        small = ArrayDDPackage(complex_table=table, unique_table_slots=2)
        table2 = ComplexTable()
        big = ArrayDDPackage(complex_table=table2, unique_table_slots=1 << 12)
        root_small = circuit_dd(small, circuit)
        root_big = circuit_dd(big, circuit)
        dense_small = edge_to_matrix(root_small, 4, small)
        dense_big = edge_to_matrix(root_big, 4, big)
        assert_allclose(dense_small, dense_big, atol=0)
        assert matrix_digest(root_small, small) == matrix_digest(root_big, big)
        assert small.mat.grows > 0

    def test_store_statistics_shape(self, pkg):
        circuit_dd(pkg, QuantumCircuit(2).h(0).cx(0, 1))
        stats = pkg.store_statistics()
        assert stats["matrix_store"]["nodes"] > 0
        assert stats["matrix_store"]["hits"] >= 0
        assert set(stats) == {"matrix_store", "vector_store"}

    def test_dd_sizes_golden(self, pkg):
        """Node counts recorded when an object-node engine still ran
        beside this one; both engines reported these sizes."""
        circuit = random_circuit(4, 25, seed=6)
        assert pkg.matrix_dd_size(circuit_dd(pkg, circuit)) == 85
        assert pkg.vector_dd_size(simulate_circuit_dd(pkg, circuit)) == 15


class TestHandleExportRoundTrip:
    def test_dense_round_trip(self, pkg):
        """Handle-based dense export is deterministic across packages."""
        circuit = random_circuit(3, 18, seed=7)
        root = circuit_dd(pkg, circuit)
        dense = edge_to_matrix(root, 3, pkg)
        fresh = ArrayDDPackage()
        rebuilt = circuit_dd(fresh, circuit)
        assert fresh.matrix_dd_size(rebuilt) == pkg.matrix_dd_size(root)
        assert_allclose(edge_to_matrix(rebuilt, 3, fresh), dense, atol=0)

    def test_dot_rendering_from_handles(self, pkg):
        ghz = QuantumCircuit(2).h(0).cx(0, 1)
        root = circuit_dd(pkg, ghz)
        dot = matrix_dd_to_dot(root, pkg)
        assert dot.startswith("digraph dd {")
        assert dot.rstrip().endswith("}")
        assert "terminal" in dot
        # One circle node per DD node.
        assert dot.count("shape=circle") == pkg.matrix_dd_size(root)

    def test_dot_rendering_golden(self, pkg):
        """The Bell-circuit rendering, as an object-node engine also
        produced it for the same circuit."""
        ghz = QuantumCircuit(2).h(0).cx(0, 1)
        assert matrix_dd_to_dot(circuit_dd(pkg, ghz), pkg) == "\n".join([
            "digraph dd {",
            "  rankdir=TB;",
            "  root [shape=point];",
            '  terminal [label="1", shape=box];',
            '  root -> n0 [label="0.7071+0i"];',
            '  n0 [label="q1", shape=circle];',
            '  n0 -> n1 [label="00: 1+0i"];',
            '  n1 [label="q0", shape=circle];',
            '  n1 -> terminal [label="00: 1+0i"];',
            '  n1 -> terminal [label="01: 1+0i"];',
            '  n0 -> n2 [label="01: 1+0i"];',
            '  n2 [label="q0", shape=circle];',
            '  n2 -> terminal [label="10: 1+0i"];',
            '  n2 -> terminal [label="11: -1+0i"];',
            '  n0 -> n2 [label="10: 1+0i"];',
            '  n0 -> n1 [label="11: 1+0i"];',
            "}",
        ])

    def test_dot_zero_edge(self, pkg):
        dot = matrix_dd_to_dot(ZERO_EDGE, pkg)
        assert "root ->" not in dot


_DIGEST_SCRIPT = """
from repro.dd import ArrayDDPackage, matrix_digest, vector_digest
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from tests.conftest import random_circuit

circuit = random_circuit(3, 20, seed=8)
pkg = ArrayDDPackage()
print(matrix_digest(circuit_dd(pkg, circuit), pkg))
print(vector_digest(simulate_circuit_dd(pkg, circuit), pkg))
"""


class TestDigests:
    def _digests(self):
        circuit = random_circuit(3, 20, seed=8)
        pkg = ArrayDDPackage()
        return [
            matrix_digest(circuit_dd(pkg, circuit), pkg),
            vector_digest(simulate_circuit_dd(pkg, circuit), pkg),
        ]

    def test_fresh_packages_equal_digests(self):
        first, second = self._digests(), self._digests()
        assert first == second
        assert all(len(digest) == 64 for digest in first)

    def test_fresh_processes_equal_digests(self):
        """Digests carry no process state (ids, interning order), so two
        interpreters agree with each other and with this one."""
        root = Path(__file__).resolve().parents[2]
        env = {"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": ""}
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT], cwd=root, env=env,
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout.split()
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1] == self._digests()

    def test_different_circuits_different_digests(self, pkg):
        a = matrix_digest(circuit_dd(pkg, QuantumCircuit(2).h(0)), pkg)
        b = matrix_digest(circuit_dd(pkg, QuantumCircuit(2).h(1)), pkg)
        assert a != b

    def test_weight_changes_digest(self, pkg):
        a = matrix_digest(circuit_dd(pkg, QuantumCircuit(1).z(0)), pkg)
        b = matrix_digest(circuit_dd(pkg, QuantumCircuit(1).s(0)), pkg)
        assert a != b

    def test_digest_is_cheap_on_deep_chains(self):
        """Memoized per node, so a 64-level identity chain — whose tree
        unfolding is exponential in depth — hashes in linear time."""
        first, second = ArrayDDPackage(), ArrayDDPackage()
        assert matrix_digest(first.identity(64), first) == matrix_digest(
            second.identity(64), second
        )
