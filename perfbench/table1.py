"""Table-1 workloads: each cell checked in-process as ``repro verify`` does.

A check decodes the two QASM payloads and calls
``EquivalenceCheckingManager.run``.  The traced pass instead replays the
manager's documented order from outside (decode, static pre-pass, then
each stage of the advised schedule under the combined stop rule, or
``zx_check``) so every layer is timed by the benchmark, not by the
program.

Every check is the seed-0 Table-1 cell of ``repro.bench.study``: the
circuits, the injected errors and the simulation stimuli
(``Configuration.seed``) are fixed, so a cell is the same work in every
run and a later change can see which cell moved.  The run seed only
permutes the order of the checks in a pass.  Drawing the errors from the
run seed moved one pass of the optimized block between 15 s and 31 s (a
missing phase gate that classical stimuli cannot see sends a cell to the
alternating proof); drawing the stimuli from it moved the simulation
work of single compiled cells by 13-15% (vector nodes created).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import analysis
from repro.bench import algorithms, reversible
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit.circuit import QuantumCircuit
from repro.compile.architectures import manhattan_architecture
from repro.compile.compiler import compile_circuit
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec.configuration import Configuration
from repro.ec.dd_checker import AlternatingChecker
from repro.ec.manager import EquivalenceCheckingManager
from repro.ec.results import Equivalence, EquivalenceCheckingResult, EquivalenceCheckingTimeout
from repro.ec.sim_checker import simulation_check
from repro.ec.stab_checker import stabilizer_check
from repro.ec.zx_checker import zx_check
from repro.service.server import circuit_from_payload, circuit_to_payload

from common import (SOUND, Measurement, Span, SpeedReference, Tracer, judge, median,
                    peak_rss_mb, ratio)

#: Far above the slowest cell (hwb5 under zx, ~8.6 s on a 2-core host).
CHECK_TIMEOUT = 60.0

#: Set-up is repeated this often and its median reported.
SETUP_REPEATS = 3

#: Seed of the random instances, the injected errors and the stimuli:
#: the seed-0 set of ``repro.bench.study`` (Table 1 of the case study).
INSTANCE_SEED = 0

CONFIGURATIONS = ("equivalent", "gate_missing", "flipped_cnot")

COMPILED: Tuple[Tuple[str, Callable[[], QuantumCircuit]], ...] = (
    ("grover_4", lambda: algorithms.grover(4)),
    ("qft_6", lambda: algorithms.qft(6)),
    ("randomwalk_3_2", lambda: algorithms.quantum_random_walk(3, steps=2)),
    ("qpe_exact_5", lambda: algorithms.qpe_exact(5)),
    ("ghz_16", lambda: algorithms.ghz_state(16)),
    ("graphstate_12", lambda: algorithms.graph_state(12, seed=INSTANCE_SEED)),
)

OPTIMIZED: Tuple[Tuple[str, Callable[[], QuantumCircuit]], ...] = (
    ("urf_s1_5", lambda: reversible.synthesize(
        reversible.random_reversible_function(5, seed=INSTANCE_SEED + 1))),
    ("plus13mod64_6", lambda: reversible.synthesize(reversible.plus_constant_mod(6, 13))),
    ("hwb5_5", lambda: reversible.synthesize(reversible.hidden_weighted_bit(5))),
    ("grover_4", lambda: algorithms.grover(4)),
    ("qft_6", lambda: algorithms.qft(6)),
    ("randomwalk_3_2", lambda: algorithms.quantum_random_walk(3, steps=2)),
)

#: Instances kept by ``--tiny`` (the self-test size).
TINY = {"compiled": ("ghz_16",), "optimized": ("qft_6",)}

#: workload -> the (block, strategy) pairs one pass checks.
WORKLOADS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "compiled-dd": (("compiled", "combined"),),
    "optimized-dd": (("optimized", "combined"),),
    "table1-zx": (("compiled", "zx"), ("optimized", "zx")),
}


@dataclass
class Check:
    block: str
    instance: str
    cell: str
    strategy: str
    payload1: Dict[str, object]
    payload2: Dict[str, object]
    expected: str


def build(workload: str, tiny: bool) -> Tuple[List[Check], Dict[str, float]]:
    """Generate, compile or optimize, inject errors and encode payloads.

    Returns the checks of one pass (in Table-1 order) and the set-up
    layer times.
    """
    layers = {
        "bench.generate_s": 0.0,
        "compile.compile_s": 0.0,
        "compile.optimize_s": 0.0,
        "compile.gates_out": 0,
        "circuit.encode_s": 0.0,
    }
    checks: List[Check] = []
    device = None
    for block, strategy in WORKLOADS[workload]:
        for name, generate in COMPILED if block == "compiled" else OPTIMIZED:
            if tiny and name not in TINY[block]:
                continue
            start = time.perf_counter()
            original = generate()
            layers["bench.generate_s"] += time.perf_counter() - start
            start = time.perf_counter()
            if block == "compiled":
                if device is None:
                    device = manhattan_architecture()
                derived = compile_circuit(original, device)
                layers["compile.compile_s"] += time.perf_counter() - start
            else:
                derived = optimize_circuit(decompose_to_basis(original), level=2)
                layers["compile.optimize_s"] += time.perf_counter() - start
            layers["compile.gates_out"] += len(derived)
            start = time.perf_counter()
            variants = {
                "equivalent": derived,
                "gate_missing": remove_random_gate(derived, seed=INSTANCE_SEED),
                "flipped_cnot": flip_random_cnot(derived, seed=INSTANCE_SEED),
            }
            layers["bench.generate_s"] += time.perf_counter() - start
            start = time.perf_counter()
            payload1 = circuit_to_payload(original)
            for cell in CONFIGURATIONS:
                checks.append(Check(
                    block, name, cell, strategy, payload1,
                    circuit_to_payload(variants[cell]),
                    "equivalent" if cell == "equivalent" else "not_equivalent",
                ))
            layers["circuit.encode_s"] += time.perf_counter() - start
    return checks, layers


def configuration(check: Check) -> Configuration:
    return Configuration(strategy=check.strategy, seed=INSTANCE_SEED, timeout=CHECK_TIMEOUT)


#: Statistics key each stage leaves in its result, checked in this order.
_STAGE_MARKERS = (
    ("zx_rewrites", "zx"),
    ("stimuli_digest", "simulation"),
    ("hilbert_schmidt_fidelity", "alternating"),
    ("combined_schedule", "stabilizer"),
)


def deciding_stage(result: EquivalenceCheckingResult) -> str:
    """The stage whose result the manager returned, from its statistics."""
    if result.equivalence.value not in SOUND:
        return "undecided"
    for key, stage in _STAGE_MARKERS:
        if key in result.statistics:
            return stage
    return "analysis"


def check_once(check: Check, config: Configuration) -> Tuple[EquivalenceCheckingResult, float]:
    """One request as ``repro verify`` serves it: decode, then run."""
    start = time.perf_counter()
    circuit1 = circuit_from_payload(check.payload1)
    circuit2 = circuit_from_payload(check.payload2)
    result = EquivalenceCheckingManager(circuit1, circuit2, config).run()
    return result, time.perf_counter() - start


def row(workload: str, check: Check, verdict: str, stage: str, seconds: float,
        wrong: bool, failed: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "block": check.block,
        "instance": check.instance,
        "configuration": check.cell,
        "strategy": check.strategy,
        "verdict": verdict,
        "stage": stage,
        "seconds": seconds,
        "wrong": wrong,
        "failed": failed,
    }


class LayerTotals:
    """Per-layer sums over the stage results of the traced pass."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.sim_tables: Dict[str, Dict[str, int]] = {}
        self.alt_tables: Dict[str, Dict[str, int]] = {}
        self.alt_complex = {"hits": 0, "misses": 0}

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    @staticmethod
    def _merge(into: Dict[str, Dict[str, int]], tables: Dict[str, Dict[str, int]]) -> None:
        for table, counts in tables.items():
            slot = into.setdefault(table, {"hits": 0, "misses": 0, "evictions": 0})
            for field in slot:
                slot[field] += int(counts.get(field, 0))

    def simulation(self, perf: Dict[str, object]) -> None:
        phases = perf.get("phase_seconds", {})
        counters = perf.get("counters", {})
        self.add("dd.sim.simulation_s", phases.get("simulation", 0.0))
        self.add("dd.sim.stimulus_preparation_s", phases.get("stimulus_preparation", 0.0))
        self.add("dd.sim.fidelity_s", phases.get("fidelity", 0.0))
        self.add("dd.batched_gate_applications", counters.get("dd.batched_gate_applications", 0))
        self.add("dd.vector_nodes_created", perf.get("vector_nodes_created", 0))
        self._merge(self.sim_tables, perf.get("compute_tables", {}))

    def alternating(self, perf: Dict[str, object]) -> None:
        phases = perf.get("phase_seconds", {})
        counters = perf.get("counters", {})
        self.add("dd.alternation_s", phases.get("alternation", 0.0))
        self.add("dd.gate_applications", counters.get("gate_applications", 0))
        self.add("dd.matrix_nodes_created", perf.get("matrix_nodes_created", 0))
        self.add("dd.unique_matrix_nodes", perf.get("unique_matrix_nodes", 0))
        self._merge(self.alt_tables, perf.get("compute_tables", {}))
        complex_table = perf.get("complex_table", {})
        for field in self.alt_complex:
            self.alt_complex[field] += int(complex_table.get(field, 0))

    def zx(self, statistics: Dict[str, object]) -> None:
        perf = statistics.get("perf", {})
        phases = perf.get("phase_seconds", {})
        self.add("zx.compose_s", phases.get("compose", 0.0))
        self.add("zx.simplify_s", phases.get("simplify", 0.0))
        self.add("zx.chain_contraction_s", phases.get("chain_contraction", 0.0))
        self.add("zx.rounds", perf.get("counters", {}).get("zx.rounds", 0))
        self.add("zx.rewrites", statistics.get("zx_rewrites", 0))
        self.add("zx.initial_spiders", statistics.get("initial_spiders", 0))
        self.add("zx.spiders_remaining", statistics.get("spiders_remaining", 0))

    def finish(self) -> Dict[str, float]:
        out = dict(self.values)

        def hit_ratio(tables: Dict[str, Dict[str, int]], name: str) -> float:
            counts = tables.get(name, {"hits": 0, "misses": 0})
            return ratio(counts["hits"], counts["hits"] + counts["misses"])

        apply_vec = self.sim_tables.get("apply_vec", {"hits": 0, "misses": 0, "evictions": 0})
        out["dd.apply_vec.hits"] = apply_vec["hits"]
        out["dd.apply_vec.misses"] = apply_vec["misses"]
        out["dd.apply_vec.evictions"] = apply_vec["evictions"]
        for table in ("apply_vec", "mul_vec", "add_vec"):
            out[f"dd.{table}.hit_ratio"] = hit_ratio(self.sim_tables, table)
        mul = self.alt_tables.get("mul", {"hits": 0, "misses": 0})
        out["dd.mul.hits"] = mul["hits"]
        out["dd.mul.misses"] = mul["misses"]
        for table in ("apply_left", "apply_right", "mul", "add"):
            out[f"dd.{table}.hit_ratio"] = hit_ratio(self.alt_tables, table)
        out["dd.complex_table.hit_ratio"] = ratio(
            self.alt_complex["hits"], self.alt_complex["hits"] + self.alt_complex["misses"]
        )
        return out


class Traced(NamedTuple):
    verdict: str
    stage: str
    degraded: bool
    span: Span
    #: The simulation stage's perf block, which ``combined`` drops.
    simulation_perf: Optional[Dict[str, object]]


def traced_check(
    check: Check, config: Configuration, tracer: Tracer, request: int, totals: LayerTotals
) -> Traced:
    """Replay the manager's order from outside, one span per layer call."""
    simulation_perf = None
    with tracer.span("check", request) as root:
        with tracer.span("circuit.parse", request):
            circuit1 = circuit_from_payload(check.payload1)
            circuit2 = circuit_from_payload(check.payload2)
        totals.add("circuit.gates_parsed", len(circuit1) + len(circuit2))
        start = time.monotonic()
        deadline = start + CHECK_TIMEOUT
        try:
            with tracer.span("analysis.prepass", request):
                short_circuit, report = analysis.run_prepass(
                    circuit1, circuit2, config, start, deadline
                )
            if short_circuit is not None:
                totals.add("analysis.short_circuits", 1)
                return Traced(short_circuit.equivalence.value, "analysis", False, root, None)
            if check.strategy == "zx":
                with tracer.span("ec.zx", request):
                    result = zx_check(circuit1, circuit2, config, deadline)
                totals.zx(result.statistics)
                decided = result.equivalence.value in SOUND
                return Traced(result.equivalence.value, "zx" if decided else "undecided",
                              False, root, None)
            schedule = (
                tuple(report.advice.schedule)
                if report is not None and report.advice is not None
                else ("simulation", "alternating")
            )
            result = None
            for stage in schedule:
                with tracer.span(f"ec.{stage}", request):
                    if stage == "simulation":
                        result = simulation_check(circuit1, circuit2, config, deadline)
                    elif stage == "alternating":
                        result = AlternatingChecker(circuit1, circuit2, config).run(deadline)
                    else:
                        result = stabilizer_check(circuit1, circuit2, config, deadline)
                perf = result.statistics.get("perf", {})
                if stage == "simulation":
                    simulation_perf = perf
                    totals.simulation(perf)
                    if result.equivalence is Equivalence.NOT_EQUIVALENT:
                        break
                elif stage == "alternating":
                    totals.alternating(perf)
                    if result.proven:
                        break
                elif result.proven:
                    break
            assert result is not None
            decided = result.equivalence.value in SOUND
            return Traced(result.equivalence.value, stage if decided else "undecided",
                          False, root, simulation_perf)
        except EquivalenceCheckingTimeout:
            return Traced(Equivalence.TIMEOUT.value, "undecided", False, root, simulation_perf)
        except Exception:  # degraded, as the manager's graceful path would
            return Traced(Equivalence.NO_INFORMATION.value, "undecided", True, root,
                          simulation_perf)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        reference: SpeedReference, log: Callable[[str], None]) -> Measurement:
    """Set up, then time whole passes; with ``trace`` add one traced pass.

    A pass checks every cell once.  At least one pass runs, and another
    only if it should end within ``seconds``.  Each cell's latency is its
    median over the passes, so the sample is one latency per cell
    however fast the host is.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        checks, layers = build(workload, tiny)
        setups.append(time.perf_counter() - start)
    random.Random(seed).shuffle(checks)
    configs = [configuration(check) for check in checks]

    rows: List[Dict[str, object]] = []
    cell_latencies: List[List[float]] = [[] for _ in checks]
    untraced_verdicts: List[str] = []
    passes = 0
    start = time.perf_counter()
    spent_before = reference.spent
    while True:
        for request, (check, config) in enumerate(zip(checks, configs)):
            reference.maybe_sample()
            result, elapsed = check_once(check, config)
            verdict = result.equivalence.value
            wrong, failed = judge(verdict, check.expected, check.strategy,
                                  result.failure is not None)
            cell_latencies[request].append(elapsed)
            if passes == 0:
                untraced_verdicts.append(verdict)
            rows.append(row(workload, check, verdict, deciding_stage(result), elapsed,
                            wrong, failed))
            log(f"{check.block:9} {check.instance:15} {check.cell:13} {check.strategy:8} "
                f"{verdict:30} {elapsed:7.3f}s{'  WRONG' if wrong else ''}")
        passes += 1
        wall = time.perf_counter() - start
        # Whole passes only; start another only if it should end in time.
        if wall + wall / passes > seconds:
            break
    reference.sample()
    wall -= reference.spent - spent_before

    measurement = Measurement(
        rows=rows,
        latencies=[median(samples) for samples in cell_latencies],
        wall=wall,
        repeated_wall=wall / passes,
        setup_s=median(setups),
        # The speed reference's lists stay resident; they are not the checker's.
        peak_rss_mb=peak_rss_mb() - reference.resident_mb,
        report={"passes": passes, "setup_repeats_s": setups, "setup_layers": layers},
    )
    if not trace:
        return measurement

    tracer = Tracer()
    totals = LayerTotals()
    traced_start = time.perf_counter()
    for request, (check, config) in enumerate(zip(checks, configs)):
        traced = traced_check(check, config, tracer, request, totals)
        wrong, failed = judge(traced.verdict, check.expected, check.strategy, traced.degraded)
        same = traced.verdict == untraced_verdicts[request]
        measurement.mismatches += not same
        traced_row = row(workload, check, traced.verdict, traced.stage, traced.span.seconds,
                         wrong, failed)
        traced_row["same_as_untraced"] = same
        traced_row["simulation_perf"] = traced.simulation_perf
        measurement.traced_rows.append(traced_row)
    measurement.traced_wall = time.perf_counter() - traced_start
    measurement.coverages = tracer.coverages("check")
    measurement.report["spans"] = tracer.as_dicts()
    layer_values = dict(layers)
    layer_values.update(totals.finish())
    for name in ("analysis.prepass", "ec.simulation", "ec.alternating", "ec.stabilizer", "ec.zx"):
        layer_values[f"{name}_s"] = tracer.seconds(name)
    layer_values["circuit.parse_s"] = tracer.seconds("circuit.parse")
    for stage in ("analysis", "simulation", "alternating", "stabilizer", "zx", "undecided"):
        layer_values[f"ec.decided_by.{stage}"] = sum(
            1 for r in measurement.traced_rows if r["stage"] == stage)
    measurement.layers = layer_values
    return measurement
