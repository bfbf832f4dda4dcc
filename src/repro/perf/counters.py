"""Phase timers, counters and DD-package statistics snapshots.

Designed to stay cheap enough to leave enabled unconditionally: a phase
measurement is two ``perf_counter`` calls and a dict update, and the
package snapshot only reads counters the DD package maintains anyway.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from typing import Dict, Iterator

#: Registered counter namespaces: the first dotted component of every
#: ``PerfCounters.count`` name must appear here.  ``tools/check_repro.py``
#: enforces this statically so dashboards never meet a typo'd or
#: unreviewed counter family.
COUNTER_NAMESPACES = (
    "analysis",
    "cache",
    "dd",
    "gate_applications",
    "portfolio",
    "service",
    "zx",
)


class PerfCounters:
    """Wall time per named phase plus arbitrary integer counters."""

    __slots__ = ("phase_seconds", "counters")

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def as_dict(self) -> Dict[str, object]:
        """Serializable view: rounded phase times plus raw counters."""
        out: Dict[str, object] = {
            "phase_seconds": {
                name: round(value, 6)
                for name, value in sorted(self.phase_seconds.items())
            }
        }
        if self.counters:
            out["counters"] = dict(sorted(self.counters.items()))
        return out


def json_safe(value: object) -> object:
    """Coerce a statistics tree into pure-JSON primitives.

    Checker statistics are mostly plain dicts already, but may carry
    enums (verdicts), tuples (traces), numpy scalars and int-keyed dicts
    (``residual_permutation``).  The isolation harness and the Table-1
    journal serialize through this so the wire format is stable JSON and
    never an opaque pickle of live checker state.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json rejects NaN/inf depending on the consumer; keep them as
        # strings so a pathological statistic cannot poison a journal.
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(item) for item in value]
    # numpy scalars expose item(); anything else degrades to repr.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return json_safe(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def package_statistics(pkg) -> Dict[str, object]:
    """Snapshot one DD package's internal performance counters.

    ``pkg`` is a :class:`repro.dd.array_package.ArrayDDPackage`.  Returns
    a nested dict with per-compute-table hit/miss/eviction statistics,
    the complex table's hit/miss/size, unique-node totals (the node
    counts are cumulative — unique tables never evict, so the final count
    is also the peak), and the node-store growth and open-addressed
    unique-table probe counters under ``node_stores``.
    """
    return {
        "compute_tables": pkg.compute_table_stats(),
        "complex_table": pkg.complex_table.stats(),
        "unique_matrix_nodes": pkg.num_unique_matrix_nodes(),
        "unique_vector_nodes": pkg.num_unique_vector_nodes(),
        "matrix_nodes_created": pkg.matrix_nodes_created,
        "vector_nodes_created": pkg.vector_nodes_created,
        "node_stores": pkg.store_statistics(),
    }
