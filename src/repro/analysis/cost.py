"""Strategy cost model and advisor (static pass 5).

Estimates the relative effort of the DD and ZX pipelines from statically
cheap features — width, depth, T-count, rotation count, and two-qubit
structure — and turns the estimate plus the fragment profiles into an
:class:`Advice` the manager's ``combined`` strategy consumes.

The paper's case study (Sections 4-5) motivates the heuristics:

* Clifford circuits are polynomially decidable — the stabilizer checker
  dominates everything and should run *first*.
* ``full_reduce`` excels on Clifford+T with moderate T-count but gets
  stuck on rotation-heavy circuits, where the alternating DD scheme with
  a good application ordering stays tractable.
* DD sizes blow up with entangling depth; ZX cost tracks the spider
  count (≈ gates) and the non-Clifford phase count.

The advisor is deliberately conservative: it only *reorders* the
schedule, never removes a stage, so the combined flow keeps its
worst-case behaviour and the advice can never cost correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.gateset import (
    FRAGMENT_CLIFFORD,
    FRAGMENT_ROTATION_HEAVY,
    GateSetProfile,
)
from repro.circuit.circuit import QuantumCircuit

#: Default combined schedule (mirrors ``_run_combined``'s historic order).
DEFAULT_SCHEDULE: Tuple[str, ...] = ("simulation", "alternating")

#: Every strategy the portfolio can race (stabilizer is gated on the
#: gateset pass; everything else always applies).
PORTFOLIO_STRATEGIES: Tuple[str, ...] = (
    "alternating",
    "construction",
    "simulation",
    "zx",
    "stabilizer",
)


def circuit_depth(circuit: QuantumCircuit) -> int:
    """Critical-path length of the circuit (greedy wire-front packing)."""
    front: Dict[int, int] = {}
    depth = 0
    for op in circuit:
        layer = 1 + max((front.get(q, 0) for q in op.qubits), default=0)
        for q in op.qubits:
            front[q] = layer
        depth = max(depth, layer)
    return depth


@dataclass(frozen=True)
class CostEstimate:
    """Relative effort scores for one circuit pair.

    Scores are unitless and only meaningful relative to each other; the
    advisor compares ``dd_score`` against ``zx_score`` and inspects the
    feature fields to justify its ordering.
    """

    num_qubits: int
    total_gates: int
    depth: int
    t_count: int
    rotation_count: int
    two_qubit_count: int
    dd_score: float
    zx_score: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_qubits": self.num_qubits,
            "total_gates": self.total_gates,
            "depth": self.depth,
            "t_count": self.t_count,
            "rotation_count": self.rotation_count,
            "two_qubit_count": self.two_qubit_count,
            "dd_score": round(self.dd_score, 3),
            "zx_score": round(self.zx_score, 3),
        }


def estimate_cost(
    circuits: Tuple[QuantumCircuit, QuantumCircuit],
    profiles: Tuple[GateSetProfile, GateSetProfile],
) -> CostEstimate:
    """Combine both circuits' static features into one pair estimate."""
    num_qubits = max(c.num_qubits for c in circuits)
    depth = max(circuit_depth(c) for c in circuits)
    total_gates = sum(p.num_gates for p in profiles)
    t_count = sum(p.t_like_gates for p in profiles)
    rotations = sum(p.rotation_gates for p in profiles)
    two_qubit = sum(p.two_qubit_gates for p in profiles)
    # DD effort grows with the entangling structure the diagram must
    # represent: two-qubit depth drives node counts, width caps them.
    # Coefficients tuned for the array-native kernels (struct-of-arrays
    # node store + batched stimuli cut per-gate DD cost by ~2.5-3x on the
    # Table-1 cells against an object-node engine), which narrows the gap
    # to ZX on entangling-heavy pairs.
    dd_score = (
        float(total_gates)
        + 3.0 * two_qubit
        + 0.4 * depth * num_qubits
    )
    # ZX effort tracks the spider count plus the phases full_reduce
    # cannot fuse away; generic rotations are the dominant obstruction.
    zx_score = (
        float(total_gates)
        + 6.0 * t_count
        + 40.0 * rotations
    )
    return CostEstimate(
        num_qubits=num_qubits,
        total_gates=total_gates,
        depth=depth,
        t_count=t_count,
        rotation_count=rotations,
        two_qubit_count=two_qubit,
        dd_score=dd_score,
        zx_score=zx_score,
    )


@dataclass(frozen=True)
class Advice:
    """Advisor output consumed by the manager's combined dispatch.

    Attributes:
        schedule: Stage order for the combined strategy.  Always a
            permutation/extension of :data:`DEFAULT_SCHEDULE` — stages
            are only added in front, never dropped.
        preferred_checker: The single-strategy recommendation shown by
            ``repro analyze``.
        rationale: Human-readable one-liners justifying the ordering.
    """

    schedule: Tuple[str, ...]
    preferred_checker: str
    rationale: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schedule": list(self.schedule),
            "preferred_checker": self.preferred_checker,
            "rationale": list(self.rationale),
        }


def advise(
    profiles: Tuple[GateSetProfile, GateSetProfile],
    estimate: CostEstimate,
) -> Advice:
    """Derive a combined-strategy schedule from the static evidence."""
    rationale: List[str] = []
    schedule: Tuple[str, ...] = DEFAULT_SCHEDULE
    if all(p.fragment == FRAGMENT_CLIFFORD for p in profiles):
        # Polynomial decision procedure applies — run it before anything
        # exponential; the downstream stages remain as a safety net.
        schedule = ("stabilizer",) + DEFAULT_SCHEDULE
        preferred = "stabilizer"
        rationale.append(
            "both circuits are Clifford-only: the stabilizer tableau "
            "decides equivalence in polynomial time"
        )
    elif all(p.is_clifford_t for p in profiles) and (
        estimate.zx_score < estimate.dd_score
    ):
        preferred = "zx"
        rationale.append(
            "Clifford+T pair with low rewrite obstruction: full_reduce "
            f"is favoured (zx_score {estimate.zx_score:.0f} < dd_score "
            f"{estimate.dd_score:.0f})"
        )
    elif any(p.fragment == FRAGMENT_ROTATION_HEAVY for p in profiles):
        preferred = "alternating"
        rationale.append(
            "rotation-heavy fragment: ZX reduction is likely to get "
            "stuck, alternating DD check preferred"
        )
    elif estimate.zx_score < estimate.dd_score:
        preferred = "zx"
        rationale.append(
            f"cost model favours ZX (zx_score {estimate.zx_score:.0f} "
            f"< dd_score {estimate.dd_score:.0f})"
        )
    else:
        preferred = "alternating"
        rationale.append(
            f"cost model favours DD (dd_score {estimate.dd_score:.0f} "
            f"<= zx_score {estimate.zx_score:.0f})"
        )
    if schedule == DEFAULT_SCHEDULE:
        rationale.append(
            "combined schedule unchanged: stimuli first, then the "
            "alternating DD proof stage"
        )
    return Advice(
        schedule=schedule,
        preferred_checker=preferred,
        rationale=tuple(rationale),
    )


@dataclass(frozen=True)
class PortfolioSlot:
    """One lane of a portfolio race.

    Attributes:
        strategy: The checker strategy this lane runs.
        delay: Seconds after race start before the lane launches (lanes
            are promoted early when another lane finishes undecided).
        time_budget: Per-lane wall-clock budget in seconds, ``None`` =
            bounded only by the shared race deadline.
        memory_mb: RLIMIT_AS headroom for the lane's child, in MiB.
    """

    strategy: str
    delay: float = 0.0
    time_budget: Optional[float] = None
    memory_mb: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "delay": round(self.delay, 6),
            "time_budget": self.time_budget,
            "memory_mb": self.memory_mb,
        }


@dataclass(frozen=True)
class PortfolioPlan:
    """Advisor-seeded launch plan consumed by :mod:`repro.ec.portfolio`.

    ``slots`` is the launch order: zero-delay lanes (the predicted
    winner and the cheap simulation falsifier) race immediately, the
    rest sit behind the head start.  The plan never *drops* a strategy
    — staggering only defers launches, so the portfolio retains the
    sequential schedule's worst-case completeness.
    """

    slots: Tuple[PortfolioSlot, ...]
    preferred_checker: str
    rationale: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "slots": [slot.to_dict() for slot in self.slots],
            "preferred_checker": self.preferred_checker,
            "rationale": list(self.rationale),
        }


def seed_portfolio(
    profiles: Tuple[GateSetProfile, GateSetProfile],
    estimate: CostEstimate,
    *,
    head_start: float = 0.25,
    timeout: Optional[float] = None,
    memory_mb: Optional[int] = None,
) -> PortfolioPlan:
    """Turn the static cost evidence into a portfolio launch plan.

    The advisor's single-strategy recommendation becomes the zero-delay
    lane; ``simulation`` always races alongside it from the start (the
    paper's combined rationale — random stimuli are the cheapest
    falsifier, and a sound ``NOT_EQUIVALENT`` from them ends the race).
    Every other applicable strategy launches after ``head_start``
    seconds, ordered cheapest-first by the cost model; ``construction``
    always trails ``alternating`` (same paradigm, strictly larger
    intermediate diagrams).  ``stabilizer`` joins only when the gateset
    pass proves both circuits Clifford — on any other pair it can only
    return ``NO_INFORMATION``.
    """
    advice = advise(profiles, estimate)
    clifford = all(p.fragment == FRAGMENT_CLIFFORD for p in profiles)
    applicable = [
        strategy
        for strategy in PORTFOLIO_STRATEGIES
        if strategy != "stabilizer" or clifford
    ]
    preferred = advice.preferred_checker
    if preferred not in applicable:  # pragma: no cover - defensive
        preferred = "alternating"
    ordered: List[str] = [preferred]
    if "simulation" != preferred:
        ordered.append("simulation")
    # Remaining lanes, cheapest paradigm first per the cost model.
    zx_first = estimate.zx_score < estimate.dd_score
    tail_order = (
        ("stabilizer", "zx", "alternating", "construction")
        if zx_first
        else ("stabilizer", "alternating", "zx", "construction")
    )
    ordered.extend(
        strategy
        for strategy in tail_order
        if strategy in applicable and strategy not in ordered
    )
    slots = tuple(
        PortfolioSlot(
            strategy=strategy,
            delay=0.0 if index < 2 else head_start,
            time_budget=timeout,
            memory_mb=memory_mb,
        )
        for index, strategy in enumerate(ordered)
    )
    rationale = advice.rationale + (
        f"portfolio: {preferred} and simulation race from t=0, "
        f"{len(slots) - min(2, len(slots))} companion lane(s) stagger in "
        f"after a {head_start:g}s head start",
    )
    return PortfolioPlan(
        slots=slots,
        preferred_checker=preferred,
        rationale=rationale,
    )
