"""Tests for the observability layer (`repro.perf`).

Covers the :class:`PerfCounters` primitive, the package statistics
snapshot, and the surfacing of both through checker results and the CLI.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import ghz_state
from repro.dd import ArrayDDPackage
from repro.dd.gates import circuit_dd, simulate_circuit_dd
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.perf import PerfCounters, package_statistics
from tests.conftest import random_circuit


class TestPerfCounters:
    def test_phase_accumulates(self):
        perf = PerfCounters()
        with perf.phase("work"):
            pass
        first = perf.phase_seconds["work"]
        with perf.phase("work"):
            sum(range(1000))
        assert perf.phase_seconds["work"] >= first
        assert set(perf.phase_seconds) == {"work"}

    def test_phase_records_on_exception(self):
        perf = PerfCounters()
        with pytest.raises(RuntimeError):
            with perf.phase("failing"):
                raise RuntimeError("boom")
        assert "failing" in perf.phase_seconds

    def test_count(self):
        perf = PerfCounters()
        perf.count("gate_applications")
        perf.count("gate_applications", 4)
        assert perf.counters == {"gate_applications": 5}

    def test_as_dict_shape(self):
        perf = PerfCounters()
        with perf.phase("a"):
            pass
        out = perf.as_dict()
        assert set(out) == {"phase_seconds"}
        assert isinstance(out["phase_seconds"]["a"], float)
        perf.count("n", 3)
        out = perf.as_dict()
        assert out["counters"] == {"n": 3}


class TestPackageStatistics:
    def test_snapshot_keys(self):
        pkg = ArrayDDPackage()
        circuit_dd(pkg, random_circuit(4, 20, seed=0))
        simulate_circuit_dd(pkg, random_circuit(4, 10, seed=1))
        stats = package_statistics(pkg)
        assert set(stats) == {
            "compute_tables",
            "complex_table",
            "unique_matrix_nodes",
            "unique_vector_nodes",
            "matrix_nodes_created",
            "vector_nodes_created",
            "node_stores",
        }
        assert stats["matrix_nodes_created"] > 0
        assert stats["vector_nodes_created"] > 0
        assert stats["unique_matrix_nodes"] <= stats["matrix_nodes_created"]
        assert set(stats["complex_table"]) == {"hits", "misses", "size"}
        # Direct kernels were exercised, so their caches saw traffic.
        tables = stats["compute_tables"]
        assert tables["apply_left"]["misses"] > 0
        assert tables["apply_vec"]["misses"] > 0
        assert set(stats["node_stores"]) == {"matrix_store", "vector_store"}

    def test_nodes_created_counts_unique_table_misses_only(self):
        pkg = ArrayDDPackage()
        circuit = random_circuit(3, 10, seed=5)
        circuit_dd(pkg, circuit)
        created = pkg.matrix_nodes_created
        # Rebuilding the same circuit hits the unique table throughout.
        pkg.clear_compute_tables()
        circuit_dd(pkg, circuit)
        assert pkg.matrix_nodes_created == created


CHECKER_CASES = [
    ("construction", {"construction", "verdict"}),
    ("alternating", {"schedule", "alternation", "verdict"}),
    ("simulation", {"stimulus_preparation", "simulation", "fidelity"}),
]


class TestCheckerStatistics:
    @pytest.mark.parametrize("strategy,expected_phases", CHECKER_CASES)
    def test_result_carries_perf_block(self, strategy, expected_phases):
        circuit = ghz_state(4)
        config = Configuration(strategy=strategy, seed=0, num_simulations=2)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        assert "perf" in result.statistics
        assert "complex_table" in result.statistics
        perf = result.statistics["perf"]
        assert expected_phases <= set(perf["phase_seconds"])
        assert "compute_tables" in perf
        assert perf["unique_matrix_nodes"] >= 0

    def test_alternating_counts_gate_applications(self):
        circuit = ghz_state(4)
        config = Configuration(strategy="alternating", seed=0)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        counters = result.statistics["perf"]["counters"]
        assert counters["gate_applications"] == 2 * len(circuit)

    def test_alternating_max_dd_size_golden(self):
        """GHZ-5 against itself: verdict and peak size as both gate-
        application paths reported them when both existed."""
        circuit = ghz_state(5)
        config = Configuration(strategy="alternating", seed=0)
        result = EquivalenceCheckingManager(circuit, circuit, config).run()
        assert result.equivalence is Equivalence.EQUIVALENT
        assert result.statistics["max_dd_size"] == 5


class TestCliSurfacing:
    @pytest.fixture
    def qasm_file(self, tmp_path):
        from repro.circuit import circuit_to_qasm

        path = tmp_path / "ghz.qasm"
        path.write_text(circuit_to_qasm(ghz_state(3)))
        return path

    def test_verbose_prints_nested_perf_statistics(self, qasm_file, capsys):
        from repro.cli import main

        code = main([
            "verify", str(qasm_file), str(qasm_file),
            "--strategy", "alternating", "-v",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "perf:" in out
        assert "phase_seconds:" in out
        assert "complex_table:" in out
        assert "apply_left:" in out

    def test_compute_table_size_flag(self, qasm_file):
        from repro.cli import main

        for spec in ("64", "0"):  # bounded and unbounded
            code = main([
                "verify", str(qasm_file), str(qasm_file),
                "--strategy", "construction", "--compute-table-size", spec,
            ])
            assert code == 0
