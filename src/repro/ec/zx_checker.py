"""ZX-calculus based equivalence checking (paper Section 5.1).

Both circuits are brought into logical form (handling layouts and output
permutations), converted to ZX-diagrams, composed as ``G' ∘ G†`` and
simplified with ``full_reduce``.  If the result is a bare-wire identity
diagram the circuits are equivalent (up to global phase — the scalar is
not tracked); a bare-wire *permutation* that does not match the expected
one, impossible here because logical form already folds the expected
permutation in, would mean non-equivalence.  If spiders remain, the method
yields ``NO_INFORMATION``: as the paper stresses, a stuck reduction is "a
strong indication" but *not* a proof of non-equivalence.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.circuit.circuit import QuantumCircuit
from repro.ec.configuration import Configuration
from repro.ec.permutations import to_logical_form
from repro.ec.results import (
    Equivalence,
    EquivalenceCheckingResult,
    EquivalenceCheckingTimeout,
)
from repro.perf import PerfCounters
from repro.zx.circuit_conv import circuit_to_zx
from repro.zx.simplify import (
    SimplificationTimeout,
    contract_unitary_chains,
    full_reduce,
)


def zx_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Check equivalence by reducing the composed ZX-diagram ``G' G†``."""
    config = configuration or Configuration()
    start = time.monotonic()
    num_qubits = max(circuit1.num_qubits, circuit2.num_qubits)
    logical1, _ = to_logical_form(
        circuit1, num_qubits, config.elide_permutations, config.reconstruct_swaps
    )
    logical2, _ = to_logical_form(
        circuit2, num_qubits, config.elide_permutations, config.reconstruct_swaps
    )
    perf = PerfCounters()
    with perf.phase("compose"):
        diagram = circuit_to_zx(logical1).adjoint().compose(
            circuit_to_zx(logical2)
        )
    initial_spiders = diagram.num_spiders
    try:
        with perf.phase("simplify"):
            rewrites = full_reduce(diagram, deadline=deadline, counters=perf)
        # Reproduction extension: circuits decomposed with different Euler
        # conventions leave numerically-identity single-qubit chains the
        # symbolic rules cannot see; contract them and re-reduce.
        with perf.phase("chain_contraction"):
            while contract_unitary_chains(
                diagram, config.tolerance * 1e4, deadline=deadline
            ):
                rewrites += full_reduce(
                    diagram, deadline=deadline, counters=perf
                )
    except SimplificationTimeout as exc:
        raise EquivalenceCheckingTimeout() from exc
    statistics = {
        "initial_spiders": initial_spiders,
        "spiders_remaining": diagram.num_spiders,
        "zx_rewrites": rewrites,
        "perf": perf.as_dict(),
    }
    permutation = diagram.wire_permutation()
    if permutation is not None:
        identity = all(src == dst for src, dst in permutation.items())
        verdict = (
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
            if identity
            else Equivalence.NOT_EQUIVALENT
        )
        if not identity:
            statistics["residual_permutation"] = permutation
    else:
        verdict = Equivalence.NO_INFORMATION
    return EquivalenceCheckingResult(
        verdict, "zx", time.monotonic() - start, statistics
    )
