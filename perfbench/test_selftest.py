"""Fast self-test of the benchmark at its ``--tiny`` size (~1 min).

Run from the repository root::

    python3 -m pytest perfbench/test_selftest.py -q

Every workload, traced and untraced, must answer correctly and emit
every metric ``BENCHMARK.json`` declares, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import common  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        report = _report(workload, 3, trace)
        if "passes" in report:  # in-process: one latency per cell, however many passes
            assert report["samples"]["n"] * report["passes"] == len(report["rows"])
    else:
        report = _report(workload, 3, trace)
        assert report["verdict_mismatches"] == 0
        assert len(report["traced_rows"]) == len(report["rows"]) // report.get("passes", 1)


def _report(workload, seed, trace):
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        return json.load(handle)


def test_runner_and_benchmark_json_declare_the_same_metrics():
    assert common.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert common.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in BENCHMARK["end_to_end"])


def test_instances_are_the_seed_0_table1_set():
    import table1
    from repro.bench.suite import compiled_benchmarks, optimized_benchmarks
    from repro.service.server import circuit_to_payload

    expected = {}
    for instance in compiled_benchmarks(seed=0) + optimized_benchmarks(seed=0):
        for cell, circuit in instance.variants.items():
            expected[(instance.use_case, instance.name, cell)] = (
                circuit_to_payload(instance.original), circuit_to_payload(circuit))
    for workload in table1.WORKLOADS:
        checks, _layers = table1.build(workload, tiny=False)
        for check in checks:
            key = (check.block, check.instance, check.cell)
            assert expected[key] == (check.payload1, check.payload2), key


def test_refuses_without_the_checker_sources():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
