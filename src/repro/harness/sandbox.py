"""Subprocess sandboxing of equivalence checks.

One check runs in one :class:`~repro.harness.child.Child`.  The parent
enforces a *hard* wall-clock budget: if no structured result arrives in
time the child is SIGKILLed — no cooperation from the checker required,
which is what contains the non-cooperative hot loops, memory balloons
and crashes that purely cooperative ``deadline`` checks cannot (both
QCEC-style DD checking and ``full_reduce`` are known to blow up
super-polynomially on adversarial instances).  The child additionally
runs under an address-space ceiling so a memory blowup dies as a clean
:class:`~repro.errors.CheckOutOfMemory` instead of triggering the
host's OOM killer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.errors import (
    CheckError,
    CheckTimeout,
    InvalidInput,
    RetryPolicy,
    call_with_retry,
    error_from_dict,
)
from repro.harness.chaos import ChaosSpec
from repro.harness.child import (
    DEFAULT_GRACE_SECONDS,
    START_METHOD,
    Child,
    hard_budget,
    job_message,
    run_job,
)


@dataclass(frozen=True)
class ResourceLimits:
    """Hard limits applied to one sandboxed check.

    Attributes:
        wall_time: Hard wall-clock budget in seconds for the child.
            ``None`` derives it from the configuration's cooperative
            ``timeout`` plus ``grace`` (or no hard limit if that is also
            unset).
        memory_mb: Address-space headroom in MiB granted to the check
            *on top of* the interpreter's footprint at startup (measured
            from ``/proc/self/statm`` where available).  ``None`` leaves
            the inherited limits untouched.
        grace: Seconds added to a derived ``wall_time`` budget.
    """

    wall_time: Optional[float] = None
    memory_mb: Optional[int] = None
    grace: float = DEFAULT_GRACE_SECONDS

    def validate(self) -> None:
        for name in ("wall_time", "grace"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if self.memory_mb is not None and (
            isinstance(self.memory_mb, bool)
            or not isinstance(self.memory_mb, int)
            or self.memory_mb < 1
        ):
            raise ValueError(
                f"memory_mb must be a positive integer, got {self.memory_mb!r}"
            )

    def hard_budget(self, configuration: Configuration) -> Optional[float]:
        """The effective hard wall-clock budget for one check."""
        if self.wall_time is not None:
            return self.wall_time
        return hard_budget(configuration, self.grace)


def run_check_isolated(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    limits: Optional[ResourceLimits] = None,
    chaos: Optional[ChaosSpec] = None,
) -> EquivalenceCheckingResult:
    """Run one check in a sandboxed child; raise :class:`CheckError` on failure.

    On success the returned result carries an extra
    ``statistics["isolation"]`` block (pid, start method, applied limits,
    parent-measured overhead).
    """
    configuration = configuration or Configuration()
    try:
        configuration.validate()
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc
    limits = limits or ResourceLimits(
        memory_mb=configuration.memory_limit_mb
    )
    limits.validate()
    budget = limits.hard_budget(configuration)

    start = time.monotonic()
    deadline = None if budget is None else start + budget
    child = Child(limits.memory_mb)
    limit: Dict[str, object] = {}
    try:
        child.send(job_message(0, circuit1, circuit2, configuration, chaos))
        while True:
            if deadline is not None and not child.poll(
                max(0.0, deadline - time.monotonic())
            ):
                raise CheckTimeout(
                    "hard wall-clock budget exceeded; child killed",
                    hard=True,
                    budget_seconds=budget,
                    pid=child.pid,
                )
            message = child.recv()
            if message is None:
                raise child.death_error()
            if message["type"] == "ready":
                limit = message["limit"]
            elif message["type"] == "result":
                break
    finally:
        child.kill()
        child.reap()
    if not message["ok"]:
        raise error_from_dict(message["error"])

    result = EquivalenceCheckingResult.from_dict(message["result"])
    parent_seconds = time.monotonic() - start
    result.statistics["isolation"] = {
        "pid": child.pid,
        "start_method": START_METHOD,
        "memory_limit_mb": limits.memory_mb,
        "hard_budget_seconds": budget,
        "parent_seconds": round(parent_seconds, 6),
        "overhead_seconds": round(max(0.0, parent_seconds - result.time), 6),
        "limit": limit,
    }
    return result


def _failure_result(
    error: CheckError, strategy: str, elapsed: float
) -> EquivalenceCheckingResult:
    """Degrade a structured failure into a reportable result."""
    verdict = (
        Equivalence.TIMEOUT
        if isinstance(error, CheckTimeout)
        else Equivalence.NO_INFORMATION
    )
    return EquivalenceCheckingResult(
        verdict, strategy, elapsed, {"failure": error.to_dict()}
    )


def run_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    *,
    isolate: bool = True,
    limits: Optional[ResourceLimits] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    sleep=None,
) -> EquivalenceCheckingResult:
    """Fault-tolerant front door: never raises on a failed check.

    Transient failures (crashed/lost workers) are retried with bounded
    exponential backoff per ``retry`` (default: derived from the
    configuration's ``max_retries`` / ``retry_backoff``); any surviving
    failure degrades into a ``TIMEOUT``/``NO_INFORMATION`` result whose
    ``statistics["failure"]`` holds the taxonomy record.
    """
    configuration = configuration or Configuration()
    if retry is None:
        retry = RetryPolicy(
            max_retries=configuration.max_retries,
            backoff_base=configuration.retry_backoff,
        )

    def attempt() -> EquivalenceCheckingResult:
        if isolate:
            return run_check_isolated(
                circuit1, circuit2, configuration, limits=limits, chaos=chaos
            )
        return run_job(circuit1, circuit2, configuration, chaos)

    start = time.monotonic()
    try:
        return call_with_retry(attempt, retry, sleep=sleep)
    except CheckError as error:
        from repro.errors import PortfolioDisagreement

        if isinstance(error, PortfolioDisagreement):
            # Contradictory sound verdicts are a checker bug, not an
            # operational failure — never degrade them into a result.
            raise
        return _failure_result(
            error, configuration.strategy, time.monotonic() - start
        )
