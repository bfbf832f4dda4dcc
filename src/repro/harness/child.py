"""One supervised child process: the only module in the tree that forks.

Every isolated check runs in a :class:`Child` — the one-shot sandbox
(:func:`repro.harness.sandbox.run_check_isolated`), every lane of the
racer (:func:`repro.harness.race.race_checks`) and every long-lived
worker of :class:`repro.service.pool.WorkerPool`.  Those three are
policies over the same six operations: spawn (with RLIMIT_AS headroom
and an optional startup fault), :meth:`Child.send`, :meth:`Child.recv`,
:meth:`Child.kill`, :meth:`Child.reap` and :meth:`Child.death_error`.
A child that dies without reporting is therefore classified the same
way whoever supervised it: a fatal signal is
:class:`~repro.errors.CheckCrashed`, any other death
:class:`~repro.errors.CheckWorkerLost`.

Every child runs :func:`_serve` over one duplex pipe::

    child  -> parent   ready {limit}                      once, at startup
    parent -> child    job {id, circuit1, circuit2, configuration, chaos}
    child  -> parent   result {id, ok, result | error, rss_mb, jobs_done}
    parent -> child    ping          child -> parent   pong {rss_mb}
    parent -> child    shutdown      child -> parent   bye {jobs_done}

and every job goes through :func:`run_job`, which is also what
``run_check(isolate=False)`` calls in-process.  Results cross the
boundary as JSON-safe dicts (:meth:`EquivalenceCheckingResult.to_dict`),
never as pickles of live checker state.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
from typing import Any, Dict, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.results import EquivalenceCheckingResult
from repro.errors import (
    CheckCrashed,
    CheckError,
    CheckOutOfMemory,
    CheckWorkerLost,
    classify_exception,
)
from repro.harness import chaos as chaos_module
from repro.harness.chaos import ChaosSpec

#: Extra wall-clock seconds the hard kill allows beyond the cooperative
#: timeout — covers interpreter startup and result serialization.
DEFAULT_GRACE_SECONDS = 2.0

#: Seconds :meth:`Child.reap` waits for an exit before it SIGKILLs.
_REAP_SECONDS = 2.0

_MIB = 1024 * 1024

#: How children are started: ``fork`` wherever the platform has it.
START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_all_start_methods()[0]
)

_FATAL_SIGNALS = {
    int(getattr(signal, name)): name
    for name in ("SIGSEGV", "SIGBUS", "SIGILL", "SIGFPE", "SIGABRT")
    if hasattr(signal, name)
}


def hard_budget(
    configuration: Configuration, grace: float = DEFAULT_GRACE_SECONDS
) -> Optional[float]:
    """SIGKILL budget of one check: its cooperative timeout plus ``grace``."""
    if configuration.timeout is None:
        return None
    return configuration.timeout + grace


def _statm_bytes(index: int) -> Optional[int]:
    """One ``/proc/self/statm`` field in bytes (0 = virtual size, 1 = RSS)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[index])
        return pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - no /proc
        return None


def _rss_mb() -> Optional[float]:
    rss = _statm_bytes(1)
    return None if rss is None else rss / _MIB


def _apply_memory_limit(memory_mb: int) -> Dict[str, object]:
    """Ceil this process's address space; returns what was applied."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return {"applied": False, "reason": "resource module unavailable"}
    baseline = _statm_bytes(0)
    headroom = memory_mb * _MIB
    # The ceiling sits on top of the interpreter's footprint: RLIMIT_AS
    # counts *virtual* address space, and numpy/scipy map hundreds of MiB
    # before the check even starts, so an absolute ceiling would kill the
    # worker during startup rather than during the blowup.
    limit = headroom if baseline is None else baseline + headroom
    applied: Dict[str, object] = {
        "applied": False,
        "limit_bytes": limit,
        "baseline_bytes": baseline,
    }
    try:
        if hasattr(resource, "RLIMIT_CORE"):
            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        applied["applied"] = True
    except (ValueError, OSError) as exc:  # pragma: no cover - exotic rlimits
        applied["reason"] = str(exc)
    return applied


def run_job(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    chaos: Optional[ChaosSpec] = None,
    memory_mb: Optional[int] = None,
) -> EquivalenceCheckingResult:
    """Run one check; every failure leaves as a classified :class:`CheckError`.

    Graceful degradation is the supervisor's job, so it is switched off
    here: raw failures must reach the classifier for the taxonomy to
    stay precise.  ``memory_mb`` is the address-space headroom the
    check runs under, recorded on an out-of-memory failure.
    """
    from repro.ec.manager import EquivalenceCheckingManager

    chaos_module.activate(chaos)
    try:
        config = dataclasses.replace(configuration, graceful_degradation=False)
        return EquivalenceCheckingManager(circuit1, circuit2, config).run()
    except MemoryError:
        # Free the balloon before anything serializes the report.
        import gc

        gc.collect()
        raise CheckOutOfMemory(
            "check exceeded its address-space limit", memory_limit_mb=memory_mb
        ) from None
    except Exception as exc:  # noqa: BLE001 - containment is the point
        raise classify_exception(exc) from exc
    finally:
        chaos_module.deactivate()


def job_message(
    job_id: int,
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    chaos: Optional[ChaosSpec] = None,
) -> Dict[str, Any]:
    """The ``job`` message that asks a child to run one check."""
    return {
        "type": "job",
        "id": job_id,
        "circuit1": circuit1,
        "circuit2": circuit2,
        "configuration": configuration,
        "chaos": chaos,
    }


def _serve(
    conn: Any, memory_mb: Optional[int], startup_chaos: Optional[ChaosSpec]
) -> None:
    """Child entry point: apply limits, report ready, serve until shutdown.

    SIGINT is ignored — a Ctrl-C aimed at the foreground process must
    reach the supervisor, which owns the child's lifetime, not kill the
    child mid-check.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass
    limit = {} if memory_mb is None else _apply_memory_limit(memory_mb)
    if startup_chaos is not None:
        chaos_module.trigger(startup_chaos)
    jobs_done = 0
    try:
        conn.send({"type": "ready", "limit": limit})
        while True:
            try:
                message = conn.recv()
            except EOFError:  # the supervisor is gone — nothing to serve
                break
            kind = message.get("type")
            if kind == "shutdown":
                conn.send({"type": "bye", "jobs_done": jobs_done})
                break
            if kind == "ping":
                conn.send({"type": "pong", "rss_mb": _rss_mb()})
                continue
            if kind != "job":  # pragma: no cover - unknown message
                continue
            reply: Dict[str, Any] = {"type": "result", "id": message["id"]}
            try:
                result = run_job(
                    message["circuit1"],
                    message["circuit2"],
                    message["configuration"],
                    message["chaos"],
                    memory_mb,
                )
                reply.update(ok=True, result=result.to_dict())
            except CheckError as error:
                reply.update(ok=False, error=error.to_dict())
            jobs_done += 1
            reply.update(rss_mb=_rss_mb(), jobs_done=jobs_done)
            conn.send(reply)
    except OSError:  # pragma: no cover - the supervisor died
        pass
    finally:
        conn.close()


class Child:
    """Parent-side handle of one forked child running :func:`_serve`.

    A child is selectable: :func:`multiprocessing.connection.wait` over
    a list of children returns the children that have a message (or
    hung up).
    """

    def __init__(
        self,
        memory_mb: Optional[int] = None,
        startup_chaos: Optional[ChaosSpec] = None,
    ) -> None:
        ctx = multiprocessing.get_context(START_METHOD)
        self.conn, child_conn = ctx.Pipe(duplex=True)
        try:
            self.process = ctx.Process(
                target=_serve,
                args=(child_conn, memory_mb, startup_chaos),
                daemon=True,
            )
            self.process.start()
        except BaseException:
            # A failed spawn (fork exhaustion) must not strand the
            # parent's pipe end.
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self.pid = self.process.pid

    def fileno(self) -> int:
        return self.conn.fileno()

    def send(self, message: Dict[str, Any]) -> bool:
        """Send one message; False when the child can no longer take it."""
        try:
            self.conn.send(message)
        except OSError:
            return False
        return True

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """True once a message (or the hang-up) is waiting."""
        return self.conn.poll(timeout)

    def recv(self) -> Optional[Dict[str, Any]]:
        """The next message, blocking; None once the child has hung up."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def kill(self) -> None:
        """SIGKILL the child (a no-op once it is reaped)."""
        self.process.kill()

    def reap(self) -> Optional[int]:
        """Wait for the exit (SIGKILL if it lingers), release the pipe.

        Returns the exit code; idempotent.
        """
        self.process.join(_REAP_SECONDS)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join(_REAP_SECONDS)
        self.conn.close()
        return self.process.exitcode

    def death_error(self) -> CheckError:
        """Reap a child that died without reporting, and classify its death."""
        exitcode = self.reap()
        if exitcode is not None and exitcode < 0:
            number = -exitcode
            name = _FATAL_SIGNALS.get(number)
            if name is not None:
                return CheckCrashed(
                    f"child died on {name}",
                    signal=number,
                    signal_name=name,
                    pid=self.pid,
                )
            return CheckWorkerLost(
                f"child killed by signal {number}", signal=number, pid=self.pid
            )
        return CheckWorkerLost(
            "child exited without reporting a result",
            exitcode=exitcode,
            pid=self.pid,
        )
