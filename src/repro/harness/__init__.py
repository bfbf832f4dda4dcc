"""Fault-isolated execution of equivalence checks.

Every isolated check runs in a :class:`~repro.harness.child.Child`, the
one supervised-child primitive and the only module that forks: spawn
with an address-space limit, send, receive, kill, reap, and one
exit-code classification.  A *hard* wall-clock timeout (SIGKILL on
overrun — independent of the cooperative ``deadline`` checks inside the
checkers) contains what cooperative checks cannot, and the
:class:`~repro.ec.results.EquivalenceCheckingResult` crosses back as a
JSON-safe dict.  Failures surface as the :mod:`repro.errors` taxonomy;
transient ones are retried with bounded exponential backoff;
:func:`run_check` degrades every failure into a
``NO_INFORMATION``/``TIMEOUT`` result so batch drivers (the Table-1
harness) never lose the remaining cells to one bad instance.

Three policies sit on the primitive: the one-shot sandbox
(:mod:`repro.harness.sandbox`), the multi-child racer
(:mod:`repro.harness.race`, the execution substrate of the concurrent
strategy portfolio :mod:`repro.ec.portfolio`: staggered launches under
one shared deadline, first sound verdict wins, losers SIGKILLed and
reaped) and the long-lived worker pool (:mod:`repro.service.pool`).

Entry points::

    from repro.harness import run_check, run_check_isolated, ResourceLimits

    result = run_check(c1, c2, configuration)           # never raises
    result = run_check_isolated(c1, c2, configuration)  # raises CheckError

    from repro.harness import RaceEntry, race_checks

    outcome = race_checks(c1, c2, entries, shared_budget=60.0)
"""

from repro.harness.journal import Journal, JournalMismatch
from repro.harness.race import (
    ChildOutcome,
    RaceEntry,
    RaceOutcome,
    race_checks,
)
from repro.harness.sandbox import (
    DEFAULT_GRACE_SECONDS,
    ResourceLimits,
    run_check,
    run_check_isolated,
)

__all__ = [
    "ChildOutcome",
    "DEFAULT_GRACE_SECONDS",
    "Journal",
    "JournalMismatch",
    "RaceEntry",
    "RaceOutcome",
    "ResourceLimits",
    "race_checks",
    "run_check",
    "run_check_isolated",
]
