"""Decision-diagram based equivalence checking (paper Section 4.1).

Two strategies live here:

* :class:`ConstructionChecker` — build both circuits' complete system
  matrices as DDs and exploit canonicity: equal functions are represented
  by the very same node (the baseline the alternating scheme improves on).
* :class:`AlternatingChecker` — build the DD of ``G' G†`` starting from
  the identity "in the middle", alternating between applications of gates
  from ``G'`` (on the left) and inverted gates from ``G`` (on the right)
  as directed by an *oracle*, so the intermediate diagram stays as close
  to the identity as possible.  Since the product ``U† U'`` is constructed
  anyway, the Hilbert-Schmidt check ``|tr(U† U')| ~ 2^n`` comes for free.

Both consume circuits in *logical form* (see
:mod:`repro.ec.permutations`), which realizes the permutation tracking and
SWAP reconstruction the paper describes, on the compact register of the
wires either circuit touches: a compiled circuit's idle device wires only
add identity levels to every DD (``active_qubits`` / ``elided_wires`` in
the statistics record the compact width).

Gates are merged into the accumulated product through the
``apply_gate_*`` kernels (only the diagram below a gate's top qubit is
traversed).  Every result carries
a ``perf`` statistics block (phase wall times, compute-table and
complex-table counters) produced by :mod:`repro.perf`.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.dd.array_package import ArrayDDPackage
from repro.dd.gates import apply_operation_left, apply_operation_right
from repro.ec.configuration import Configuration
from repro.ec.permutations import logical_pair
from repro.ec.results import (
    Equivalence,
    EquivalenceCheckingResult,
    EquivalenceCheckingTimeout,
)
from repro.perf import PerfCounters, package_statistics


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise EquivalenceCheckingTimeout()


def make_package(configuration: Configuration) -> ArrayDDPackage:
    """A fresh DD package with the configured tolerance and table size."""
    return ArrayDDPackage(
        configuration.tolerance,
        compute_table_size=configuration.compute_table_size,
    )


def _phase_verdict(
    pkg: ArrayDDPackage, edge: int, num_qubits: int, threshold: float
) -> Equivalence:
    """Classify a product DD that should represent the identity."""
    if pkg.is_identity(edge, num_qubits, up_to_global_phase=False):
        return Equivalence.EQUIVALENT
    if pkg.is_identity(edge, num_qubits, up_to_global_phase=True):
        return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
    # Canonicity failed structurally; fall back to the Hilbert-Schmidt
    # fidelity, which tolerates numerical noise (Section 3).
    fidelity = pkg.hilbert_schmidt_fidelity(edge, num_qubits)
    if abs(fidelity - 1.0) <= threshold:
        return Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
    return Equivalence.NOT_EQUIVALENT


class ConstructionChecker:
    """Build both full system-matrix DDs and compare canonical roots."""

    def __init__(
        self,
        circuit1: QuantumCircuit,
        circuit2: QuantumCircuit,
        configuration: Optional[Configuration] = None,
    ) -> None:
        self.configuration = configuration or Configuration()
        self.pair = logical_pair(circuit1, circuit2, self.configuration)
        self.logical1, self.logical2 = self.pair.circuit1, self.pair.circuit2
        self.num_qubits = self.pair.active_qubits
        self.package = make_package(self.configuration)

    def run(self, deadline: Optional[float] = None) -> EquivalenceCheckingResult:
        start = time.monotonic()
        pkg = self.package
        perf = PerfCounters()
        edges = []
        max_size = 0
        with perf.phase("construction"):
            for circuit in (self.logical1, self.logical2):
                accumulated = pkg.identity(self.num_qubits)
                for op in circuit:
                    _check_deadline(deadline)
                    accumulated = apply_operation_left(pkg, accumulated, op)
                    perf.count("gate_applications")
                    if self.configuration.trace_sizes:
                        max_size = max(
                            max_size, pkg.matrix_dd_size(accumulated)
                        )
                edges.append(accumulated)
        first, second = edges
        with perf.phase("verdict"):
            # Canonicity: equal functions share one node handle.
            if pkg.edge_node(first) == pkg.edge_node(second):
                weight_delta = abs(
                    pkg.edge_weight(first) - pkg.edge_weight(second)
                )
                if weight_delta <= 16 * pkg.tolerance:
                    verdict = Equivalence.EQUIVALENT
                else:
                    verdict = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
            else:
                # Structural mismatch may still be numerical noise; decide via
                # the Hilbert-Schmidt inner product of U† U'.
                product = pkg.multiply(pkg.conjugate_transpose(first), second)
                fidelity = pkg.hilbert_schmidt_fidelity(product, self.num_qubits)
                if abs(fidelity - 1.0) <= self.configuration.fidelity_threshold:
                    verdict = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
                else:
                    verdict = Equivalence.NOT_EQUIVALENT
        statistics = {
            "dd_size_1": pkg.matrix_dd_size(first),
            "dd_size_2": pkg.matrix_dd_size(second),
            "unique_nodes": pkg.num_unique_matrix_nodes(),
            **self.pair.width_statistics(),
            "complex_table": pkg.complex_table.stats(),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        }
        if self.configuration.trace_sizes:
            statistics["max_dd_size"] = max_size
        return EquivalenceCheckingResult(
            verdict, "construction", time.monotonic() - start, statistics
        )


class AlternatingChecker:
    """The alternating ``G' G†`` scheme with oracle-driven gate selection."""

    def __init__(
        self,
        circuit1: QuantumCircuit,
        circuit2: QuantumCircuit,
        configuration: Optional[Configuration] = None,
    ) -> None:
        self.configuration = configuration or Configuration()
        self.pair = logical_pair(circuit1, circuit2, self.configuration)
        self.logical1, self.logical2 = self.pair.circuit1, self.pair.circuit2
        self.num_qubits = self.pair.active_qubits
        self.package = make_package(self.configuration)

    # -- oracles ----------------------------------------------------------
    def _schedule_naive(self, m1: int, m2: int) -> List[int]:
        """Strict 1:1 alternation (side 1 = inverted G, side 2 = G')."""
        schedule = []
        for i in range(max(m1, m2)):
            if i < m1:
                schedule.append(1)
            if i < m2:
                schedule.append(2)
        return schedule

    def _schedule_compilation_flow(self) -> List[int]:
        """Per-gate cost profile oracle (Burgholzer et al., reference [38]).

        When ``G'`` is the *compiled* version of ``G``, each original gate
        expands into a predictable number of basis gates; applying one
        original gate followed by its expected expansion keeps the product
        at the identity through every gate boundary.  The profile is
        estimated by decomposing each original gate to the device basis
        and scaling to the actual compiled gate count (routing SWAPs make
        the true count larger than the profile sum).
        """
        from repro.compile.decompose import decompose_to_basis
        from repro.circuit.circuit import QuantumCircuit

        costs = []
        for op in self.logical1:
            single = QuantumCircuit(self.num_qubits, operations=[op])
            costs.append(max(1, len(decompose_to_basis(single))))
        total_cost = sum(costs)
        m2 = len(self.logical2)
        schedule: List[int] = []
        emitted2 = 0
        seen_cost = 0
        for cost in costs:
            schedule.append(1)
            seen_cost += cost
            target = round(m2 * seen_cost / total_cost) if total_cost else 0
            # repro: allow(deadline-prop): emitted2 increases to target <= m2
            while emitted2 < target:
                schedule.append(2)
                emitted2 += 1
        schedule.extend([2] * (m2 - emitted2))
        return schedule

    def _schedule_proportional(self, m1: int, m2: int) -> List[int]:
        """Alternation weighted by the gate-count ratio (QCEC default)."""
        if m1 == 0 or m2 == 0:
            return [1] * m1 + [2] * m2
        schedule = []
        taken1 = taken2 = 0
        # repro: allow(deadline-prop): every iteration takes one gate
        while taken1 < m1 or taken2 < m2:
            # Take from the side that is behind its proportional share.
            share1 = (taken1 + 1) / m1 if taken1 < m1 else float("inf")
            share2 = (taken2 + 1) / m2 if taken2 < m2 else float("inf")
            if share1 <= share2:
                schedule.append(1)
                taken1 += 1
            else:
                schedule.append(2)
                taken2 += 1
        return schedule

    def run(self, deadline: Optional[float] = None) -> EquivalenceCheckingResult:
        start = time.monotonic()
        pkg = self.package
        config = self.configuration
        perf = PerfCounters()
        gates1 = [op.inverse() for op in self.logical1]  # applied right
        gates2 = list(self.logical2.operations)  # applied left
        accumulated = pkg.identity(self.num_qubits)
        max_size = 1
        trace: List[int] = []

        if config.oracle == "lookahead":
            with perf.phase("alternation"):
                index1 = index2 = 0
                while index1 < len(gates1) or index2 < len(gates2):
                    _check_deadline(deadline)
                    candidate1 = candidate2 = None
                    if index1 < len(gates1):
                        candidate1 = apply_operation_right(
                            pkg, accumulated, gates1[index1]
                        )
                    if index2 < len(gates2):
                        candidate2 = apply_operation_left(
                            pkg, accumulated, gates2[index2]
                        )
                    if candidate2 is None or (
                        candidate1 is not None
                        and pkg.matrix_dd_size(candidate1)
                        <= pkg.matrix_dd_size(candidate2)
                    ):
                        accumulated = candidate1
                        index1 += 1
                    else:
                        accumulated = candidate2
                        index2 += 1
                    perf.count("gate_applications")
                    size = pkg.matrix_dd_size(accumulated)
                    max_size = max(max_size, size)
                    if config.trace_sizes:
                        trace.append(size)
        else:
            with perf.phase("schedule"):
                if config.oracle == "naive":
                    schedule = self._schedule_naive(len(gates1), len(gates2))
                elif config.oracle == "compilation_flow":
                    schedule = self._schedule_compilation_flow()
                else:
                    schedule = self._schedule_proportional(
                        len(gates1), len(gates2)
                    )
            with perf.phase("alternation"):
                index1 = index2 = 0
                for side in schedule:
                    _check_deadline(deadline)
                    if side == 1:
                        accumulated = apply_operation_right(
                            pkg, accumulated, gates1[index1]
                        )
                        index1 += 1
                    else:
                        accumulated = apply_operation_left(
                            pkg, accumulated, gates2[index2]
                        )
                        index2 += 1
                    perf.count("gate_applications")
                    if config.trace_sizes:
                        size = pkg.matrix_dd_size(accumulated)
                        max_size = max(max_size, size)
                        trace.append(size)

        if not config.trace_sizes:
            max_size = max(max_size, pkg.matrix_dd_size(accumulated))
        with perf.phase("verdict"):
            verdict = _phase_verdict(
                pkg, accumulated, self.num_qubits, config.fidelity_threshold
            )
            fidelity = pkg.hilbert_schmidt_fidelity(
                accumulated, self.num_qubits
            )
        statistics = {
            "max_dd_size": max_size,
            "final_dd_size": pkg.matrix_dd_size(accumulated),
            "hilbert_schmidt_fidelity": fidelity,
            "unique_nodes": pkg.num_unique_matrix_nodes(),
            "permutations": self.pair.permutation_statistics,
            **self.pair.width_statistics(),
            "complex_table": pkg.complex_table.stats(),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        }
        if config.trace_sizes:
            statistics["dd_size_trace"] = trace
        return EquivalenceCheckingResult(
            verdict, "alternating", time.monotonic() - start, statistics
        )


def construction_dd_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Functional wrapper around :class:`ConstructionChecker`."""
    return ConstructionChecker(circuit1, circuit2, configuration).run(deadline)


def alternating_dd_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Functional wrapper around :class:`AlternatingChecker`."""
    return AlternatingChecker(circuit1, circuit2, configuration).run(deadline)
