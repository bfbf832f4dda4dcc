"""Cheap performance observability for the DD engine and checkers.

Every equivalence check can carry a :class:`PerfCounters` that records
wall time per checker phase plus ad-hoc counters, and
:func:`package_statistics` snapshots a :class:`repro.dd.ArrayDDPackage`'s
compute-table hit/miss/eviction counters, complex-table statistics,
unique-node counts and node-store probe counters.  The ZX checker threads the same ``PerfCounters``
through ``full_reduce``, which reports per-rule ``zx.<rule>.candidates``
(vertices drained from the rule's worklist) / ``zx.<rule>.rewrites``
counts plus ``zx.rounds`` (outer rounds to fixpoint) and the
``simplify`` / ``chain_contraction`` phase timers.  Everything is a plain
dictionary once serialized, so it flows through
:class:`repro.ec.results.EquivalenceCheckingResult` and the CLI
``--verbose`` output unchanged, and lands in benchmark JSON artifacts
for trend tracking.
"""

from repro.perf.counters import (
    COUNTER_NAMESPACES,
    PerfCounters,
    json_safe,
    package_statistics,
)

__all__ = [
    "COUNTER_NAMESPACES",
    "PerfCounters",
    "json_safe",
    "package_statistics",
]
