"""The ``service-mix`` workload: fuzz pairs through ``repro serve``.

One client drives a closed loop of fixed-size batches through
``ServiceClient.submit_batch``, as ``repro submit`` does.  Each batch
carries ``RESUBMITTED`` pairs that an earlier batch already sent, so
every batch mixes pool executions (cache writes) with cache hits
(reads).  The server is ``python -m repro serve`` with its defaults,
apart from ``--workers`` and a fresh ``--cache`` journal.  The server
runs in its own session, so after ``shutdown`` any process left in that
session is a leftover worker.

The speed reference (``common.SpeedReference``) is sampled before the
first server starts, between batches (when the workers wait for the next
one; the samples are taken out of the measured wall) and after the last
server stops.

The number of batches a run sends follows the host's speed, so the tail
latency is the fixed 90th percentile (``TAIL_QUANTILE``), not the highest
one with ten samples above it, which would rise with a faster program.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.ec.configuration import Configuration
from repro.fuzz.generator import generate_instance
from repro.service.server import ServiceClient, circuit_to_payload

from common import Measurement, SpeedReference, Tracer, judge, median, nproc, ratio

#: The four fuzz families with concrete (non-symbolic) circuits.
FAMILIES = ("clifford", "clifford_t", "rotations", "ancilla")
BATCH = 8
RESUBMITTED = 2
#: Upper bound on batches in one measured pass; the pair stream is
#: generated for this many.
MAX_BATCHES = 300
TINY_BATCHES = 4
#: Tail latency quantile; a run sends well over 100 batches.
TAIL_QUANTILE = 0.90
#: Batches answered wholly from the cache, probed after the traced pass.
HIT_PROBES = 10
CHECK_TIMEOUT = 60.0
START_TIMEOUT = 60.0
#: How often the workers' peak resident sets are read, in seconds.
POLL_EVERY_S = 0.5
#: Server starts timed in set-up; the median is reported.
SETUP_REPEATS = 3
#: Speed-reference samples taken before and again after the servers run.
REFERENCE_SAMPLES = 8
#: Counters read from ``stats`` around each measured pass.
COUNTERS = (
    "service.workers_spawned",
    "service.workers_recycled",
    "service.rejected_busy",
    "service.jobs_completed",
    "cache.hit",
    "cache.miss",
    "cache.store",
    "cache.coalesced",
)


def workers() -> int:
    return min(2, nproc())


def plan(seed: int, batches: int) -> Tuple[List, List[List[int]]]:
    """The pair stream and, per batch, the indices of its pairs.

    Batch ``b`` sends ``BATCH - RESUBMITTED`` new pairs plus
    ``RESUBMITTED`` pairs drawn from earlier batches (the first batch
    sends only new ones).
    """
    fresh = BATCH - RESUBMITTED
    total = BATCH + (batches - 1) * fresh
    pairs = [
        generate_instance(seed * 1_000_003 + i, FAMILIES[i % len(FAMILIES)])[1]
        for i in range(total)
    ]
    rng = random.Random(seed)
    layout = [list(range(BATCH))]
    sent = BATCH
    for _ in range(batches - 1):
        batch = list(range(sent, sent + fresh)) + rng.sample(range(sent), RESUBMITTED)
        rng.shuffle(batch)
        layout.append(batch)
        sent += fresh
    return pairs, layout


def _session_members(session: int) -> List[int]:
    """Live processes of ``session`` (Linux ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields: state, ppid, pgrp, session, ...
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process: its peak resident set since its exec."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve`` process plus the client connected to it."""

    def __init__(self, root: str, workdir: str, name: str) -> None:
        self.socket = os.path.relpath(os.path.join(workdir, f"{name}.sock"), root)
        self.journal = os.path.join(workdir, f"{name}-cache.jsonl")
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self._log = open(os.path.join(workdir, f"{name}.log"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", str(workers()), "--cache", self.journal],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client: Optional[ServiceClient] = None
        #: Highest worker resident set seen so far, in MB.
        self.worker_peak_mb = 0.0
        self.stopped = False

    def wait_ready(self) -> None:
        """Block until the first ``ping`` is answered."""
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            if os.path.exists(self.socket):
                try:
                    client = ServiceClient(self.socket)
                except OSError:
                    client = None
                if client is not None:
                    if client.ping():
                        self.client = client
                        return
                    client.close()
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer ping in time")

    def poll_workers(self) -> None:
        """Fold the workers' current peak resident sets into ``worker_peak_mb``.

        Read from ``/proc`` because ``RUSAGE_CHILDREN`` would also count
        the image of this client that the server was forked from.
        """
        for pid in _session_members(self.process.pid):
            if pid != self.process.pid:
                self.worker_peak_mb = max(self.worker_peak_mb, _peak_rss_mb(pid))

    def counters(self) -> Dict[str, int]:
        assert self.client is not None
        counters = self.client.stats()["counters"].get("counters", {})
        return {name: int(counters.get(name, 0)) for name in COUNTERS}

    def stop(self) -> int:
        """Shut down, reap, and return the number of leftover processes.

        Leftovers (and a server that ignores ``shutdown``) are killed.
        A socket file left behind counts as one more leftover.  Stopping
        a stopped server returns 0.
        """
        if self.stopped:
            return 0
        self.stopped = True
        self.poll_workers()
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown_server()
        except (OSError, EOFError):
            pass
        finally:
            if self.client is not None:
                self.client.close()
                self.client = None
        leftovers = 0
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            leftovers += 1
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + 2.0
        members = _session_members(self.process.pid)
        while members and time.monotonic() < deadline:
            time.sleep(0.02)
            members = _session_members(self.process.pid)
        if members:
            leftovers += len(members)
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if os.path.exists(self.socket):
            leftovers += 1
            os.unlink(self.socket)
        self._log.close()
        return leftovers


def _batch_pairs(pairs, indices):
    return [(pairs[i].circuit1, pairs[i].circuit2) for i in indices]


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in COUNTERS}


class Loop:
    """Closed-loop batch submission with the verdict gate."""

    def __init__(self, server: Server, pairs, layout, config: Configuration,
                 reference: SpeedReference, log: Callable[[str], None]) -> None:
        self.server = server
        self.reference = reference
        self.pairs = pairs
        self.layout = layout
        self.config = config
        self.log = log
        self.next_batch = 0
        self.answered: Dict[int, str] = {}
        self.rows: List[Dict[str, object]] = []
        self.cache_mismatches = 0

    def _judge(self, batch: int, indices: List[int], results, seconds: float) -> float:
        """Gate the verdicts; return the worker time of new pairs."""
        check_time = 0.0
        for index, result in zip(indices, results):
            pair = self.pairs[index]
            verdict = str(result["equivalence"])
            degraded = isinstance(result.get("statistics", {}).get("failure"), dict)
            wrong, failed = judge(verdict, pair.label, "combined", degraded)
            resubmitted = index in self.answered
            if resubmitted:
                self.cache_mismatches += verdict != self.answered[index]
            else:
                self.answered[index] = verdict
                check_time += float(result.get("time", 0.0))
            self.rows.append({
                "workload": "service-mix", "batch": batch, "pair": index,
                "recipe": pair.recipe, "strategy": "combined", "verdict": verdict,
                "expected": pair.label, "resubmitted": resubmitted,
                "seconds": float(result.get("time", 0.0)), "batch_seconds": seconds,
                "wrong": wrong, "failed": failed,
            })
            if wrong:
                self.log(f"WRONG verdict {verdict} for pair {index} ({pair.recipe}, "
                         f"label {pair.label})")
        return check_time

    def run(self, seconds: float, max_batches: int,
            tracer: Optional[Tracer] = None) -> Dict[str, object]:
        client = self.server.client
        assert client is not None
        latencies: List[float] = []
        overheads: List[float] = []
        check_time = 0.0
        encode_s = 0.0
        jobs = 0
        first_row = len(self.rows)
        wall = 0.0
        start = last_poll = time.perf_counter()
        spent_before = self.reference.spent
        stop = min(len(self.layout), self.next_batch + max_batches)
        while self.next_batch < stop:
            # Between batches the workers wait for the next one.
            self.reference.maybe_sample()
            if time.perf_counter() - last_poll >= POLL_EVERY_S:
                self.server.poll_workers()
                last_poll = time.perf_counter()
            batch = self.next_batch
            self.next_batch += 1
            indices = self.layout[batch]
            pairs = _batch_pairs(self.pairs, indices)
            if tracer is None:
                sent = time.perf_counter()
                results = client.submit_batch(pairs, self.config)
                latency = time.perf_counter() - sent
            else:
                # The client's encode step, timed on its own: submit_batch
                # encodes the same pairs again inside the round trip, so
                # this span lies outside the batch and its wall.
                with tracer.span("service.encode", batch) as encode:
                    for circuit1, circuit2 in pairs:
                        circuit_to_payload(circuit1)
                        circuit_to_payload(circuit2)
                encode_s += encode.seconds
                with tracer.span("batch", batch) as root:
                    with tracer.span("service.round_trip", batch):
                        results = client.submit_batch(pairs, self.config)
                latency = root.seconds
            batch_check = self._judge(batch, indices, results, latency)
            check_time += batch_check
            latencies.append(latency)
            overheads.append(latency - batch_check / workers())
            jobs += len(indices)
            wall = time.perf_counter() - start - encode_s - (self.reference.spent - spent_before)
            if wall >= seconds:
                break
        return {
            "rows": self.rows[first_row:],
            "latencies": latencies,
            "wall": wall,
            "jobs": jobs,
            "check_time": check_time,
            "encode_s": encode_s,
            "overhead_p50": median(overheads),
        }

    def hit_probe(self, batches: int) -> List[float]:
        """Round trips of batches made only of already answered pairs."""
        client = self.server.client
        assert client is not None
        rng = random.Random(len(self.answered))
        answered = sorted(self.answered)
        latencies = []
        for _ in range(batches):
            indices = rng.sample(answered, min(BATCH, len(answered)))
            sent = time.perf_counter()
            results = client.submit_batch(_batch_pairs(self.pairs, indices), self.config)
            latencies.append(time.perf_counter() - sent)
            for index, result in zip(indices, results):
                self.cache_mismatches += str(result["equivalence"]) != self.answered[index]
        return latencies


def run(root: str, workdir: str, seed: int, seconds: float, trace: bool, tiny: bool,
        reference: SpeedReference, log: Callable[[str], None]) -> Measurement:
    """Set up (pairs once, server start three times), then measure.

    The traced pass replays the measured batches on a fresh server with a
    fresh journal, so each traced verdict is compared with the untraced
    verdict of the same pair in the same batch, and the traced wall with
    the wall of the same work.
    """
    max_batches = TINY_BATCHES if tiny else MAX_BATCHES
    start = time.perf_counter()
    pairs, layout = plan(seed, max_batches)
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    for pair in pairs:
        circuit_to_payload(pair.circuit1)
        circuit_to_payload(pair.circuit2)
    encode_s = time.perf_counter() - start
    for _ in range(REFERENCE_SAMPLES):
        reference.sample()

    config = Configuration(seed=seed, timeout=CHECK_TIMEOUT)
    servers: List[Server] = []
    starts = []
    leftovers = 0
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        for attempt in range(SETUP_REPEATS):
            if servers:
                leftovers += servers[-1].stop()
            begin = time.perf_counter()
            servers.append(Server(root, workdir, f"serve{attempt}"))
            servers[-1].wait_ready()
            starts.append(time.perf_counter() - begin)
        server = servers[-1]
        loop = Loop(server, pairs, layout, config, reference, log)
        before = server.counters()
        measured = loop.run(seconds, max_batches)
        counters = _delta(before, server.counters())
        leftovers += server.stop()
        log(f"{measured['jobs']} jobs in {len(measured['latencies'])} batches, "
            f"{measured['wall']:.2f}s")
        if trace:
            servers.append(Server(root, workdir, "traced"))
            servers[-1].wait_ready()
            replay = Loop(servers[-1], pairs, layout, config, reference, log)
            tracer = Tracer()
            before = replay.server.counters()
            traced = replay.run(math.inf, len(measured["latencies"]), tracer)
            traced_counters = _delta(before, replay.server.counters())
            hit_batches = replay.hit_probe(HIT_PROBES)
            leftovers += replay.server.stop()
    finally:
        for server in servers:
            leftovers += server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for _ in range(REFERENCE_SAMPLES):
        reference.sample()

    measurement = Measurement(
        rows=measured["rows"],
        latencies=measured["latencies"],
        wall=measured["wall"],
        repeated_wall=measured["wall"],
        setup_s=generate_s + encode_s + median(starts),
        tail_cap=TAIL_QUANTILE,
        peak_rss_mb=loop.server.worker_peak_mb,
        problems=leftovers + loop.cache_mismatches,
        report={
            "batches": len(measured["latencies"]),
            "generate_s": generate_s,
            "encode_s": encode_s,
            "server_starts_s": starts,
            "counters": counters,
            "leftover_processes": leftovers,
            "cache_mismatches": loop.cache_mismatches,
        },
    )
    if not trace:
        return measurement

    untraced = {(r["batch"], r["pair"]): r["verdict"] for r in measured["rows"]}
    for traced_row in traced["rows"]:
        traced_row["same_as_untraced"] = (
            traced_row["verdict"] == untraced[(traced_row["batch"], traced_row["pair"])])
    measurement.traced_rows = traced["rows"]
    measurement.traced_wall = traced["wall"]
    measurement.coverages = tracer.coverages("batch")
    measurement.mismatches = sum(1 for r in traced["rows"] if not r["same_as_untraced"])
    measurement.problems += replay.cache_mismatches
    measurement.report.update(traced_counters=traced_counters, hit_batches_s=hit_batches,
                              replay_cache_mismatches=replay.cache_mismatches,
                              spans=tracer.as_dicts())
    hits, misses = traced_counters["cache.hit"], traced_counters["cache.miss"]
    measurement.layers = {
        "bench.generate_s": generate_s,
        "circuit.encode_s": encode_s,
        "service.encode_s": traced["encode_s"],
        "service.worker_check_s": traced["check_time"],
        "service.busy_share": ratio(traced["check_time"], workers() * traced["wall"]),
        "service.batch_overhead_p50_s": traced["overhead_p50"],
        "service.workers_spawned": traced_counters["service.workers_spawned"],
        "service.workers_recycled": traced_counters["service.workers_recycled"],
        "service.rejected_busy": traced_counters["service.rejected_busy"],
        "service.leftover_processes": leftovers,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": traced_counters["cache.store"],
        "cache.coalesced": traced_counters["cache.coalesced"],
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.hit_batch_p50_s": median(hit_batches),
    }
    return measurement
