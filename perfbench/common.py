"""Shared pieces of the benchmark: metric names, verdict rules, spans, stats.

Only the standard library is imported here, so ``run.py`` can load this
module (and time the checker's own imports separately) before ``src`` is
known to be present.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: End-to-end metrics (``--trace 0``), name -> unit.  Must match
#: ``BENCHMARK.json``; ``test_selftest.py`` checks both directions.
END_TO_END: Dict[str, str] = {
    "checks_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "decided_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_RATIO = "ratio"
_COUNT = "count"

#: Per-layer metrics (``--trace 1``), name -> unit.  Every workload emits
#: every name; a layer a workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = {
    # circuit: QASM payload decode (timed checks) and encode (set-up)
    "circuit.parse_s": "s",
    "circuit.gates_parsed": _COUNT,
    "circuit.encode_s": "s",
    # bench + compile: input construction, all in set-up
    "bench.generate_s": "s",
    "compile.compile_s": "s",
    "compile.optimize_s": "s",
    "compile.gates_out": _COUNT,
    # analysis: the static pre-pass
    "analysis.prepass_s": "s",
    "analysis.short_circuits": _COUNT,
    # ec: checker stages, timed from outside
    "ec.simulation_s": "s",
    "ec.alternating_s": "s",
    "ec.stabilizer_s": "s",
    "ec.zx_s": "s",
    "ec.decided_by.analysis": _COUNT,
    "ec.decided_by.simulation": _COUNT,
    "ec.decided_by.alternating": _COUNT,
    "ec.decided_by.stabilizer": _COUNT,
    "ec.decided_by.zx": _COUNT,
    "ec.decided_by.undecided": _COUNT,
    # dd, simulation stages: read from each simulation result's perf block
    "dd.sim.simulation_s": "s",
    "dd.sim.stimulus_preparation_s": "s",
    "dd.sim.fidelity_s": "s",
    "dd.batched_gate_applications": _COUNT,
    "dd.apply_vec.hits": _COUNT,
    "dd.apply_vec.misses": _COUNT,
    "dd.apply_vec.hit_ratio": _RATIO,
    "dd.apply_vec.evictions": _COUNT,
    "dd.mul_vec.hit_ratio": _RATIO,
    "dd.add_vec.hit_ratio": _RATIO,
    "dd.vector_nodes_created": _COUNT,
    # dd, alternating stages: read from each alternating result's perf block
    "dd.alternation_s": "s",
    "dd.gate_applications": _COUNT,
    "dd.apply_left.hit_ratio": _RATIO,
    "dd.apply_right.hit_ratio": _RATIO,
    "dd.mul.hits": _COUNT,
    "dd.mul.misses": _COUNT,
    "dd.mul.hit_ratio": _RATIO,
    "dd.add.hit_ratio": _RATIO,
    "dd.matrix_nodes_created": _COUNT,
    "dd.unique_matrix_nodes": _COUNT,
    "dd.complex_table.hit_ratio": _RATIO,
    # zx: the perf block of zx_check
    "zx.compose_s": "s",
    "zx.simplify_s": "s",
    "zx.chain_contraction_s": "s",
    "zx.rewrites": _COUNT,
    "zx.rounds": _COUNT,
    "zx.initial_spiders": _COUNT,
    "zx.spiders_remaining": _COUNT,
    # service: `repro serve` seen through the socket and `stats`
    "service.encode_s": "s",
    "service.worker_check_s": "s",
    "service.busy_share": _RATIO,
    "service.batch_overhead_p50_s": "s",
    "service.workers_spawned": _COUNT,
    "service.workers_recycled": _COUNT,
    "service.rejected_busy": _COUNT,
    "service.leftover_processes": _COUNT,
    # cache: the VerdictCache behind the server
    "cache.hits": _COUNT,
    "cache.misses": _COUNT,
    "cache.stores": _COUNT,
    "cache.coalesced": _COUNT,
    "cache.hit_ratio": _RATIO,
    "cache.hit_batch_p50_s": "s",
    # the traced run itself
    "trace.overhead_s": "s",
    "trace.span_coverage_min": _RATIO,
    "trace.requests": _COUNT,
}

SOUND = ("equivalent", "equivalent_up_to_global_phase", "not_equivalent")
POSITIVE = ("equivalent", "equivalent_up_to_global_phase", "probably_equivalent")

#: Spans must cover at least this share of each traced request's wall.
MIN_SPAN_COVERAGE = 0.95


def judge(verdict: str, expected: str, strategy: str, degraded: bool) -> Tuple[bool, bool]:
    """``(wrong, failed)`` for one answered check.

    An equivalent pair must come out positive.  A non-equivalent pair
    must come out NOT_EQUIVALENT, except under ``zx``, which cannot
    prove non-equivalence and only must never answer positive.  A
    TIMEOUT or a degraded ``failure`` record is a failure but not a
    wrong verdict.
    """
    if degraded or verdict == "timeout":
        return False, True
    if expected == "equivalent":
        wrong = verdict not in POSITIVE
    elif strategy == "zx":
        wrong = verdict in POSITIVE
    else:
        wrong = verdict != "not_equivalent"
    return wrong, wrong


def tail_quantile(n: int, cap: float = 1.0) -> float:
    """The highest quantile up to ``cap`` with at least ten of ``n`` samples above it."""
    return min(cap, (n - 10) / n) if n > 10 else 1.0


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile.

    A beta-weighted mean of all order statistics: with the 18 to 36
    unlike Table-1 cells of one pass, a single order statistic inherits
    the full run-to-run noise of whichever cell sits at that rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1 or q >= 1.0:
        return ordered[-1]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule per order statistic's interval
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        mids = ((i * steps + j + 0.5) * h for j in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in mids
        ) * h)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def latency_metrics(latencies: Sequence[float], factor: float,
                    tail_cap: float) -> Tuple[float, float, Dict[str, object]]:
    """p50 and tail in reference seconds, and the sample description."""
    q = tail_quantile(len(latencies), tail_cap)
    raw_p50, raw_tail = hd_quantile(latencies, 0.5), hd_quantile(latencies, q)
    return (
        raw_p50 / factor,
        raw_tail / factor,
        {"n": len(latencies), "tail_percentile": 100.0 * q,
         "raw_p50_s": raw_p50, "raw_tail_s": raw_tail},
    )


class SpeedReference:
    """Machine speed, sampled between requests with a fixed workload.

    On a shared host the same pass runs up to 2x faster or slower from
    one run to the next, through contention from other tenants.  A fixed
    loop of random list and dict reads over a ~20 MB working set feels
    part of it, so timing metrics are divided by :attr:`factor`.  On a
    2-vCPU Xeon VM, over ten runs in a noisy period, that cut the
    IQR/median of optimized-dd's checks per second from 0.34 to 0.23 and
    table1-zx's from 0.24 to 0.14; the rest is noise the loop does not
    see (per 3 s of checking, log-time correlation 0.6).  Raw seconds
    stay in the rows.
    """

    #: Seconds of one sample on an uncontended 2-core Xeon host.
    REFERENCE_S = 0.02
    #: One sample per this many seconds of wall time.
    EVERY_S = 0.5
    #: Most samples taken at once, after a long request.
    MAX_BURST = 4

    def __init__(self) -> None:
        rss_before = peak_rss_mb()
        rng = random.Random(0)
        self._items = list(range(500_000))
        self._index = [rng.randrange(len(self._items)) for _ in range(50_000)]
        self._table = {i: i for i in range(50_000)}
        self._keys = [rng.randrange(len(self._table)) for _ in range(50_000)]
        #: What the reference's own lists add to this process's resident set.
        self.resident_mb = peak_rss_mb() - rss_before
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for index in self._index:
            total += self._items[index]
        for key in self._keys:
            total += self._table[key]
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent += self._last - start

    def maybe_sample(self) -> None:
        """Take one sample per ``EVERY_S`` passed since the last one.

        A long request is followed by several samples, so the mean weighs
        each stretch of the run by its length, not by how many requests
        it held.
        """
        due = min(self.MAX_BURST, (time.perf_counter() - self._last) / self.EVERY_S)
        for _ in range(int(due)):
            self.sample()

    @property
    def factor(self) -> float:
        """Mean slowdown of this run against ``REFERENCE_S``."""
        return statistics.fmean(self.samples) / self.REFERENCE_S


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """What a workload's ``run`` returns; ``run.py`` turns it into metrics."""

    #: One row per answered check of the measured pass(es).
    rows: List[Dict[str, object]]
    #: One latency per request: per cell in-process (the median over the
    #: passes, so always one per cell), per batch in ``service-mix``.
    latencies: List[float]
    #: Measured seconds, speed-reference samples excluded.
    wall: float
    #: Seconds of the measured work that the traced pass repeats.
    repeated_wall: float
    #: Set-up seconds after the imports (median of the repeated parts).
    setup_s: float
    peak_rss_mb: float
    #: Highest quantile the tail latency may take.
    tail_cap: float = 1.0
    #: Gate failures that are not verdicts: leftover processes, cache
    #: answers that differ from the first answer.
    problems: int = 0
    report: Dict[str, object] = field(default_factory=dict)
    # Filled by a traced run only.
    traced_rows: List[Dict[str, object]] = field(default_factory=list)
    traced_wall: float = 0.0
    #: Per traced request: the share of its wall that its child spans cover.
    coverages: List[float] = field(default_factory=list)
    #: Traced verdicts that differ from the untraced verdict of the same check.
    mismatches: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    request: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: int) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, request, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def coverages(self, root: str) -> List[float]:
        """Per ``root`` span: the share of its wall its children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        return [
            ratio(covered.get(span.id, 0.0), span.seconds)
            for span in self.spans
            if span.name == root
        ]

    def as_dicts(self) -> List[Dict[str, object]]:
        return [asdict(span) for span in self.spans]


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))
