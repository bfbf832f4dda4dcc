"""Self-tests for the project-invariant AST lint (tools/check_repro.py)."""

import importlib.util
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_repro", _REPO_ROOT / "tools" / "check_repro.py"
)
check_repro = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_repro)


def _run_on(tmp_path: Path, relative: str, source: str):
    """Build a minimal fake tree containing one file and lint it."""
    root = tmp_path
    counters = root / "src" / "repro" / "perf" / "counters.py"
    counters.parent.mkdir(parents=True, exist_ok=True)
    counters.write_text('COUNTER_NAMESPACES = ("analysis", "zx")\n')
    target = root / "src" / "repro" / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return check_repro.run_checks(root)


class TestRealTreeIsClean:
    def test_zero_findings_on_the_repository(self):
        findings = check_repro.run_checks(_REPO_ROOT)
        assert findings == [], [str(f) for f in findings]


class TestDeadlineLoopRule:
    def test_unchecked_loop_in_checker_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo_checker.py",
            "def run(circ, deadline):\n"
            "    total = 0\n"
            "    for op in circ:\n"
            "        total += 1\n"
            "    return total\n",
        )
        assert [f.rule for f in findings] == ["deadline-loop"]

    def test_loop_consulting_deadline_is_clean(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo_checker.py",
            "def run(circ, deadline):\n"
            "    for op in circ:\n"
            "        _check_deadline(deadline)\n"
            "    return 0\n",
        )
        assert findings == []

    def test_functions_without_deadline_are_exempt(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo_checker.py",
            "def helper(circ):\n"
            "    for op in circ:\n"
            "        pass\n",
        )
        assert findings == []

    def test_rule_only_applies_to_hot_paths(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/other_module.py",
            "def run(circ, deadline):\n"
            "    for op in circ:\n"
            "        pass\n",
        )
        assert findings == []

    def test_suppression_with_reason(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo_checker.py",
            "def run(circ, deadline):\n"
            "    # repro: allow(deadline-loop): bounded by gate arity\n"
            "    for op in circ:\n"
            "        pass\n",
        )
        assert findings == []

    def test_wrong_rule_suppression_does_not_apply(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo_checker.py",
            "def run(circ, deadline):\n"
            "    # repro: allow(seeded-rng): wrong rule\n"
            "    for op in circ:\n"
            "        pass\n",
        )
        # The loop stays flagged, and the mismatched suppression is now
        # itself reported as dead.
        assert sorted(f.rule for f in findings) == [
            "deadline-loop",
            "stale-allow",
        ]


class TestSeededRngRule:
    def test_unseeded_random_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/helpers.py",
            "import random\nrng = random.Random()\n",
        )
        assert [f.rule for f in findings] == ["seeded-rng"]

    def test_seeded_random_is_clean(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/helpers.py",
            "import random\nrng = random.Random(42)\n",
        )
        assert findings == []

    def test_np_random_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "dd/kernels.py",
            "import numpy as np\nx = np.random.rand(4)\n",
        )
        assert [f.rule for f in findings] == ["seeded-rng"]

    def test_global_random_draw_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "zx/pick.py",
            "import random\nv = random.choice([1, 2])\n",
        )
        assert [f.rule for f in findings] == ["seeded-rng"]

    def test_generator_module_is_exempt(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "fuzz/generator.py",
            "import random\nrng = random.Random()\n",
        )
        assert findings == []


class TestCounterNamespaceRule:
    def test_unregistered_namespace_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo.py",
            "def f(counters):\n"
            "    counters.count('bogus.thing')\n",
        )
        assert [f.rule for f in findings] == ["counter-namespace"]

    def test_registered_namespace_is_clean(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo.py",
            "def f(counters, perf):\n"
            "    counters.count('zx.rounds', 3)\n"
            "    perf.count('analysis.runs')\n",
        )
        assert findings == []

    def test_unrelated_count_calls_are_ignored(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/demo.py",
            "def f(source):\n"
            "    return source.count('x') + [1].count(1)\n",
        )
        assert findings == []


class TestNoWallclockRule:
    def test_time_time_in_pure_package_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "dd/clocky.py",
            "import time\nstart = time.time()\n",
        )
        assert [f.rule for f in findings] == ["no-wallclock"]

    def test_perf_counter_is_allowed(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "analysis/timed.py",
            "import time\nstart = time.perf_counter()\n",
        )
        assert findings == []

    def test_harness_layer_is_exempt(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "harness/clocky.py",
            "import time\nstart = time.time()\n",
        )
        assert findings == []


class TestNoForkRule:
    def test_os_fork_outside_harness_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/sneaky.py",
            "import os\npid = os.fork()\n",
        )
        assert [f.rule for f in findings] == ["no-fork"]

    def test_multiprocessing_process_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "fuzz/spawny.py",
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=print)\n",
        )
        assert [f.rule for f in findings] == ["no-fork"]

    def test_aliased_context_process_is_flagged(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/ctxy.py",
            "import multiprocessing as mp\n"
            "ctx = mp.get_context('fork')\n"
            "p = ctx.Process(target=print)\n",
        )
        assert "no-fork" in [f.rule for f in findings]

    def test_harness_layer_is_exempt(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "harness/forky.py",
            "import os\npid = os.fork()\n",
        )
        assert findings == []

    def test_suppression_with_reason(self, tmp_path):
        findings = _run_on(
            tmp_path,
            "ec/sneaky.py",
            "import os\n"
            "# repro: allow(no-fork): demonstrating the rule\n"
            "pid = os.fork()\n",
        )
        assert findings == []


class TestCli:
    def test_main_exit_codes(self, tmp_path, capsys):
        counters = tmp_path / "src" / "repro" / "perf" / "counters.py"
        counters.parent.mkdir(parents=True)
        counters.write_text('COUNTER_NAMESPACES = ("zx",)\n')
        clean = check_repro.main(["--root", str(tmp_path)])
        assert clean == 0
        bad = tmp_path / "src" / "repro" / "dd" / "clocky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstart = time.time()\n")
        dirty = check_repro.main(["--root", str(tmp_path)])
        assert dirty == 1
        out = capsys.readouterr().out
        assert "no-wallclock" in out
