"""The supervised-child primitive (:mod:`repro.harness.child`) and the
failure contract the sandbox, the racer and the worker pool share
because all three supervise through it."""

import signal

import pytest

from repro.bench.algorithms import ghz_state
from repro.ec import Configuration
from repro.errors import CheckCrashed, CheckWorkerLost, RetryPolicy
from repro.harness import RaceEntry, ResourceLimits, race_checks, run_check
from repro.harness.chaos import ChaosSpec
from repro.harness.child import Child, hard_budget, job_message
from repro.service import PoolConfig, WorkerPool

_FAST_BACKOFF = RetryPolicy(
    max_retries=0, backoff_base=0.01, backoff_max=0.05, jitter=0.5,
    jitter_seed=0,
)


@pytest.fixture(scope="module")
def pair():
    circuit = ghz_state(3)
    return circuit, circuit


def _config():
    return Configuration(strategy="alternating", seed=0, timeout=30.0,
                         max_retries=0)


def _via_sandbox(pair, chaos, memory_mb=None):
    return run_check(
        *pair, _config(), chaos=chaos,
        limits=ResourceLimits(memory_mb=memory_mb),
        retry=RetryPolicy(max_retries=0),
    ).failure


def _via_racer(pair, chaos, memory_mb=None):
    entry = RaceEntry(
        name="lane", configuration=_config(), memory_mb=memory_mb,
        chaos=chaos,
    )
    return race_checks(*pair, [entry]).outcome("lane").error


def _via_pool(pair, chaos, memory_mb=None):
    config = PoolConfig(
        workers=1, memory_mb=memory_mb, restart_backoff=_FAST_BACKOFF
    )
    with WorkerPool(config) as pool:
        job_id = pool.submit(*pair, _config(), chaos=chaos, chaos_once=False)
        pool.drain(timeout=120.0)
        result = pool.result(job_id)
    assert pool.audit()["leaked"] == 0
    return result.failure


SUPERVISORS = {
    "sandbox": _via_sandbox,
    "racer": _via_racer,
    "pool": _via_pool,
}


def test_hard_budget_is_timeout_plus_grace():
    assert hard_budget(Configuration(timeout=3.0), grace=0.5) == 3.5
    assert hard_budget(Configuration(timeout=3.0)) == 5.0
    assert hard_budget(Configuration()) is None


class TestChild:
    def test_serves_jobs_pings_and_shutdown(self, pair):
        child = Child()
        try:
            assert child.recv()["type"] == "ready"
            assert child.send(job_message(7, *pair, _config()))
            result = child.recv()
            assert result["type"] == "result" and result["id"] == 7
            assert result["ok"] and result["jobs_done"] == 1
            assert child.send({"type": "ping"})
            assert child.recv()["type"] == "pong"
            assert child.send({"type": "shutdown"})
            assert child.recv() == {"type": "bye", "jobs_done": 1}
        finally:
            assert child.reap() == 0
        assert child.reap() == 0  # idempotent
        assert child.recv() is None

    def test_killed_child_is_worker_lost(self):
        child = Child()
        child.kill()
        error = child.death_error()
        assert isinstance(error, CheckWorkerLost)
        assert error.diagnostics == {"signal": signal.SIGKILL, "pid": child.pid}

    def test_startup_crash_is_crashed(self):
        child = Child(startup_chaos=ChaosSpec(mode="crash"))
        assert child.recv() is None
        error = child.death_error()
        assert type(error) is CheckCrashed
        assert error.diagnostics["signal_name"] == "SIGSEGV"


@pytest.mark.chaos
@pytest.mark.parametrize("supervisor", sorted(SUPERVISORS))
@pytest.mark.parametrize(
    "chaos, kind",
    [
        (ChaosSpec(mode="crash"), "crashed"),
        (ChaosSpec(mode="crash", signal_number=signal.SIGKILL), "worker_lost"),
        (ChaosSpec(mode="exit"), "worker_lost"),
    ],
    ids=["sigsegv", "sigkill", "exit"],
)
def test_child_death_has_one_failure_kind(pair, supervisor, chaos, kind):
    """A job that kills its child fails with the same kind whichever
    supervisor ran it (the pool's record is the quarantined one)."""
    failure = SUPERVISORS[supervisor](pair, chaos)
    assert failure["kind"] == kind


@pytest.mark.chaos
@pytest.mark.parametrize("supervisor", sorted(SUPERVISORS))
def test_out_of_memory_records_the_limit(pair, supervisor):
    failure = SUPERVISORS[supervisor](
        pair, ChaosSpec(mode="memory_balloon", balloon_mb=1024), memory_mb=64
    )
    assert failure["kind"] == "out_of_memory"
    assert failure["diagnostics"]["memory_limit_mb"] == 64
