"""Random-stimuli simulation checking (paper Section 6.1 / [45]).

The paper's QCEC configuration runs the alternating scheme "in parallel
with a sequence of 16 simulation runs. If the simulations manage to prove
non-equivalence of the circuits, the equivalence checking routine is
terminated early."  Each run simulates both circuits on a random classical
basis state using vector decision diagrams and compares the resulting
states' fidelity: any mismatch is a *proof* of non-equivalence, while
agreement on all stimuli yields ``PROBABLY_EQUIVALENT`` — strong evidence,
not proof.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Optional

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import circuit_to_qasm
from repro.dd.array_gates import apply_operation_columns
from repro.dd.gates import apply_operation_to_vector
from repro.ec.configuration import Configuration
from repro.ec.dd_checker import _check_deadline, make_package
from repro.ec.permutations import logical_pair
from repro.ec.results import Equivalence, EquivalenceCheckingResult
from repro.ec.stimuli import (
    generate_stimulus,
    prepare_stimulus_columns,
    prepare_stimulus_state,
)
from repro.perf import PerfCounters, package_statistics


def simulation_check(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Optional[Configuration] = None,
    deadline: Optional[float] = None,
) -> EquivalenceCheckingResult:
    """Run random-basis-state simulations of both circuits and compare.

    Stimuli are random bit strings on the *data* qubits (the width of the
    narrower circuit); ancilla wires added by compilation start in
    ``|0>``, matching the hardware assumption.  Ancillas no gate touches
    are dropped before simulation (:func:`logical_pair`): they stay in
    ``|0>`` in both circuits and cannot change a fidelity.

    Under ``Configuration.array_dd`` (default) all stimuli are batched:
    one column state per stimulus, one pass over each circuit's gates
    applying every gate to all columns, fidelities compared at the end.
    The stimulus sequence (and hence ``stimuli_digest``) is byte-identical
    to the per-stimulus legacy loop, but there is no early exit before
    all stimuli are simulated.
    """
    config = configuration or Configuration()
    start = time.monotonic()
    data_qubits = min(circuit1.num_qubits, circuit2.num_qubits)
    pair = logical_pair(circuit1, circuit2, config, keep=range(data_qubits))
    logical1, logical2 = pair.circuit1, pair.circuit2
    # Stimuli are generated and digested at the full register width (the
    # digest is part of the reproducibility contract), then simulated on
    # the compact register of the wires either circuit touches.
    full_width = pair.num_qubits
    num_qubits = pair.active_qubits
    rng = random.Random(config.seed)
    pkg = make_package(config)
    direct = config.direct_application
    perf = PerfCounters()
    # Running digest over the serialized stimuli: two runs with the same
    # seed must report byte-identical sequences (reproducibility contract,
    # checkable across process boundaries via this statistic).
    stimuli_digest = hashlib.sha256()

    def statistics(runs: int, fidelity: float) -> dict:
        return {
            "simulations_run": runs,
            "min_fidelity": fidelity,
            "stimuli_digest": stimuli_digest.hexdigest(),
            **pair.width_statistics(),
            "complex_table": pkg.complex_table.stats(),
            "perf": {**perf.as_dict(), **package_statistics(pkg)},
        }

    if config.array_dd:
        # Batched path: generate every stimulus up front (identical rng
        # call order and digest updates as the per-stimulus loop below),
        # then propagate all of them as one matrix-of-columns pass per
        # gate.  Every stimulus always runs to completion — no early exit
        # mid-batch — which changes nothing about the verdict.
        with perf.phase("stimulus_preparation"):
            stimuli = []
            for _ in range(config.num_simulations):
                _check_deadline(deadline)
                stimulus = generate_stimulus(
                    config.stimuli_type, full_width, data_qubits, rng
                )
                stimuli_digest.update(
                    circuit_to_qasm(stimulus).encode("utf-8")
                )
                stimuli.append(pair.compact(stimulus))
            columns = prepare_stimulus_columns(
                pkg, stimuli, num_qubits, direct=direct
            )
        perf.count("dd.batch_width", len(columns))
        with perf.phase("simulation"):
            states1 = list(columns)
            states2 = list(columns)
            for op in logical1:
                _check_deadline(deadline)
                states1 = apply_operation_columns(
                    pkg, states1, op, num_qubits, direct=direct
                )
                perf.count("dd.batched_gate_applications")
            for op in logical2:
                _check_deadline(deadline)
                states2 = apply_operation_columns(
                    pkg, states2, op, num_qubits, direct=direct
                )
                perf.count("dd.batched_gate_applications")
        min_fidelity = 1.0
        with perf.phase("fidelity"):
            for index, (state1, state2) in enumerate(zip(states1, states2)):
                _check_deadline(deadline)
                fidelity = pkg.fidelity(state1, state2)
                min_fidelity = min(min_fidelity, fidelity)
                if abs(fidelity - 1.0) > config.fidelity_threshold:
                    stats = statistics(config.num_simulations, fidelity)
                    # How many stimuli the per-stimulus loop would have
                    # needed — keeps the paper's "errors show up within a
                    # few simulations" observable under batching.
                    stats["first_mismatch"] = index + 1
                    return EquivalenceCheckingResult(
                        Equivalence.NOT_EQUIVALENT,
                        "simulation",
                        time.monotonic() - start,
                        stats,
                    )
        return EquivalenceCheckingResult(
            Equivalence.PROBABLY_EQUIVALENT,
            "simulation",
            time.monotonic() - start,
            statistics(config.num_simulations, min_fidelity),
        )

    runs = 0
    min_fidelity = 1.0
    for _ in range(config.num_simulations):
        with perf.phase("stimulus_preparation"):
            stimulus = generate_stimulus(
                config.stimuli_type, full_width, data_qubits, rng
            )
            stimuli_digest.update(circuit_to_qasm(stimulus).encode("utf-8"))
            prepared = prepare_stimulus_state(
                pkg, pair.compact(stimulus), num_qubits, direct=direct
            )
        state1 = state2 = prepared
        with perf.phase("simulation"):
            for op in logical1:
                _check_deadline(deadline)
                state1 = apply_operation_to_vector(
                    pkg, state1, op, num_qubits, direct=direct
                )
            for op in logical2:
                _check_deadline(deadline)
                state2 = apply_operation_to_vector(
                    pkg, state2, op, num_qubits, direct=direct
                )
        runs += 1
        with perf.phase("fidelity"):
            fidelity = pkg.fidelity(state1, state2)
        min_fidelity = min(min_fidelity, fidelity)
        if abs(fidelity - 1.0) > config.fidelity_threshold:
            return EquivalenceCheckingResult(
                Equivalence.NOT_EQUIVALENT,
                "simulation",
                time.monotonic() - start,
                statistics(runs, fidelity),
            )
    return EquivalenceCheckingResult(
        Equivalence.PROBABLY_EQUIVALENT,
        "simulation",
        time.monotonic() - start,
        statistics(runs, min_fidelity),
    )
