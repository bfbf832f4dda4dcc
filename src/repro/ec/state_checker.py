"""State-preparation equivalence checking.

Many of the case study's benchmarks (GHZ, graph states, W states) are
*state-preparation* circuits: what matters is not the full unitary but the
state produced from ``|0...0>``.  State equivalence is strictly weaker than
unitary equivalence — circuits may differ arbitrarily on other input
states — and much cheaper to decide: a single DD simulation of each
circuit plus one inner product, ``| <psi1 | psi2> | = 1``.

QCEC exposes the same notion ("check only from |0...0>"); here it is the
``"state"`` strategy of the manager.  Unlike the random-stimuli strategy,
the verdict is a *proof* (up to numerical tolerance) for the
state-preparation semantics.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.circuit.circuit import QuantumCircuit
from repro.dd.gates import apply_operation_to_vector
from repro.ec.configuration import Configuration
from repro.ec.dd_checker import _check_deadline, make_package
from repro.ec.permutations import logical_pair
from repro.ec.results import Equivalence, EquivalenceCheckingResult


def state_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Decide whether both circuits prepare the same state from ``|0...0>``."""
    config = configuration or Configuration()
    start = time.monotonic()
    pair = logical_pair(circuit1, circuit2, config)
    num_qubits = pair.active_qubits
    pkg = make_package(config)
    states = []
    max_size = 0
    for logical in (pair.circuit1, pair.circuit2):
        state = pkg.basis_state(num_qubits)
        for op in logical:
            _check_deadline(deadline)
            state = apply_operation_to_vector(
                pkg, state, op, num_qubits, direct=config.direct_application
            )
        states.append(state)
        max_size = max(max_size, pkg.vector_dd_size(state))
    overlap = pkg.inner_product(states[0], states[1])
    fidelity = abs(overlap) ** 2
    if abs(fidelity - 1.0) <= config.fidelity_threshold:
        if abs(overlap - 1.0) <= 16 * pkg.tolerance:
            verdict = Equivalence.EQUIVALENT
        else:
            verdict = Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE
    else:
        verdict = Equivalence.NOT_EQUIVALENT
    return EquivalenceCheckingResult(
        verdict,
        "state",
        time.monotonic() - start,
        {
            "fidelity": fidelity,
            "max_state_dd_size": max_size,
            **pair.width_statistics(),
            # canonicity bonus: equal states share the very same node
            # (object identity or handle equality, by engine)
            "same_canonical_node": (
                pkg.edge_node(states[0]) == pkg.edge_node(states[1])
            ),
        },
    )
