"""Unit tests for the slot-indexed compute tables and cache eviction.

The key property under test: *eviction never changes results*.  A bounded
compute table may drop memoized entries at any time, which costs a
recomputation but must yield the very same canonical nodes — the
randomized stress test at the bottom checks multiply/add results across
table sizes 64, 4096 and unbounded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.array_package import ArrayDDPackage
from repro.dd.compute_table import ComputeTable, DEFAULT_COMPUTE_TABLE_SIZE
from repro.dd.export import edge_to_matrix
from repro.dd.gates import circuit_dd

from tests.conftest import random_circuit


class TestComputeTable:
    def test_basic_get_put(self):
        table = ComputeTable("t", 16)
        assert table.get((1, 2)) is None
        table.put((1, 2), "value")
        assert table.get((1, 2)) == "value"
        assert table.hits == 1
        assert table.misses == 1
        assert len(table) == 1

    def test_collision_overwrites_single_slot(self):
        table = ComputeTable("t", 1)
        table.put((1,), "a")
        table.put((2,), "b")  # same slot, different key
        assert table.evictions == 1
        assert len(table) == 1
        assert table.get((1,)) is None
        assert table.get((2,)) == "b"

    def test_same_key_overwrite_is_not_an_eviction(self):
        table = ComputeTable("t", 4)
        table.put((1,), "a")
        table.put((1,), "b")
        assert table.evictions == 0
        assert table.get((1,)) == "b"

    def test_size_rounds_up_to_power_of_two(self):
        assert ComputeTable("t", 100).size == 128
        assert ComputeTable("t", 1).size == 1
        assert ComputeTable("t", 4096).size == 4096

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ComputeTable("t", 0)
        with pytest.raises(ValueError):
            ComputeTable("t", -5)

    def test_unbounded_mode(self):
        table = ComputeTable("t", None)
        assert not table.bounded
        assert table.size is None
        for i in range(1000):
            table.put((i,), i)
        assert len(table) == 1000
        assert all(table.get((i,)) == i for i in range(1000))
        assert table.evictions == 0

    def test_clear_resets_entries_and_stats(self):
        table = ComputeTable("t", 16)
        table.put((1,), "a")
        table.get((1,))
        table.clear()
        assert len(table) == 0
        assert table.hits == 0 and table.misses == 0 and table.evictions == 0
        assert table.get((1,)) is None

    def test_stats_shape(self):
        table = ComputeTable("t", 8)
        table.put((1,), "a")
        table.get((1,))
        table.get((2,))
        assert table.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }

    def test_default_size_is_power_of_two(self):
        assert DEFAULT_COMPUTE_TABLE_SIZE & (DEFAULT_COMPUTE_TABLE_SIZE - 1) == 0


class TestPackageTableWiring:
    def test_package_honours_table_size(self):
        pkg = ArrayDDPackage(compute_table_size=64)
        assert all(t.size == 64 for t in pkg._tables.values())
        unbounded = ArrayDDPackage(compute_table_size=None)
        assert all(t.size is None for t in unbounded._tables.values())

    def test_compute_table_stats_keys(self):
        pkg = ArrayDDPackage()
        stats = pkg.compute_table_stats()
        assert "mul" in stats and "add" in stats and "apply_left" in stats
        assert set(stats["mul"]) == {"hits", "misses", "evictions", "entries"}

    def test_clear_compute_tables_clears_all(self):
        pkg = ArrayDDPackage(compute_table_size=64)
        circuit = random_circuit(3, 15, seed=2)
        circuit_dd(pkg, circuit)
        assert any(len(t) for t in pkg._tables.values())
        pkg.clear_compute_tables()
        assert all(len(t) == 0 for t in pkg._tables.values())


class TestEvictionStress:
    """Randomized stress: results are identical under any table size."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations", "mixed"])
    def test_eviction_invariance(self, seed, gate_set):
        circuits = [
            random_circuit(5, 25, seed=10 * seed + offset, gate_set=gate_set)
            for offset in range(2)
        ]
        references = None
        for table_size in (64, 4096, None):
            pkg = ArrayDDPackage(compute_table_size=table_size)
            # Interleave construction, multiplication and addition so the
            # tiny tables actually evict mid-recursion.
            a = circuit_dd(pkg, circuits[0])
            b = circuit_dd(pkg, circuits[1])
            product = pkg.multiply(a, b)
            total = pkg.add(a, b)
            dense = [
                edge_to_matrix(edge, 5, pkg) for edge in (a, b, product, total)
            ]
            for edge in (a, b, product, total):
                assert pkg.matrix_dd_size(edge) > 1
            if references is None:
                references = dense
                if table_size == 64:
                    # The tiny table must actually have evicted, otherwise
                    # this stress test exercises nothing.
                    assert any(
                        t.evictions for t in pkg._tables.values()
                    ), "expected evictions with 64-slot tables"
            else:
                # Eviction may only cost recomputation — numerically the
                # results are indistinguishable.  (Exact node counts can
                # drift by ±1 across *packages* because recomputation
                # order changes which weight becomes the tolerance
                # bucket's canonical representative.)
                for got, expected in zip(dense, references):
                    np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("table_size", [64, 4096, None])
    def test_checker_verdicts_invariant_under_table_size(self, table_size):
        from repro.bench.algorithms import ghz_state
        from repro.compile import compile_circuit, line_architecture
        from repro.ec import Configuration, EquivalenceCheckingManager
        from repro.ec.results import Equivalence

        original = ghz_state(6)
        compiled = compile_circuit(original, line_architecture(8))
        config = Configuration(
            strategy="alternating", seed=0, compute_table_size=table_size
        )
        result = EquivalenceCheckingManager(original, compiled, config).run()
        assert result.equivalence in (
            Equivalence.EQUIVALENT,
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        )

    def test_same_package_canonicity_under_eviction(self):
        """Recomputing after eviction returns the *same* canonical node."""
        pkg = ArrayDDPackage(compute_table_size=64)
        circuit = random_circuit(4, 30, seed=7)
        first = circuit_dd(pkg, circuit)
        pkg.clear_compute_tables()  # worst case: every memo gone
        second = circuit_dd(pkg, circuit)
        assert pkg.edge_node(first) == pkg.edge_node(second)
        assert pkg.edge_weight(first) == pkg.edge_weight(second)
