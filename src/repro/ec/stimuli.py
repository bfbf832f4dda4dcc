"""Random stimuli generation for simulation-based equivalence checking.

Re-implements the three stimuli families of Burgholzer et al., "Random
stimuli generation for the verification of quantum circuits" (ASP-DAC
2021) — reference [45] of the paper, the machinery behind QCEC's
simulation runs:

* **classical** — random computational basis states.  Cheapest to
  simulate (the state DD starts with one node per level), but blind to
  diagonal-only errors.
* **local quantum** — a random single-qubit stabilizer state on every
  qubit (random choice of the six Pauli eigenstates).  Still product
  states (compact DDs), but sensitive to phase errors.
* **global quantum** — a random stabilizer-like entangling layer: a layer
  of random single-qubit Clifford gates followed by a random tree of
  CNOTs.  The strongest discriminator; one stimulus already detects most
  errors with high probability.

Each generator returns a `QuantumCircuit` preparing the stimulus from
``|0...0>``, so the simulation checker simply prepends it to both circuits
under test.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.dd.array_package import ArrayDDPackage

#: The supported stimuli families.
STIMULI_TYPES = ("classical", "local_quantum", "global_quantum")

#: Preparations of the six single-qubit stabilizer states from |0>.
_LOCAL_STATE_PREPARATIONS = (
    (),  # |0>
    ("x",),  # |1>
    ("h",),  # |+>
    ("x", "h"),  # |->
    ("h", "s"),  # |+i>
    ("x", "h", "s"),  # |-i>
)


def classical_stimulus(
    num_qubits: int, data_qubits: int, rng: random.Random
) -> QuantumCircuit:
    """A random computational basis state on the data qubits."""
    circuit = QuantumCircuit(num_qubits, name="stimulus_classical")
    bits = rng.getrandbits(data_qubits) if data_qubits else 0
    for qubit in range(data_qubits):
        if (bits >> qubit) & 1:
            circuit.x(qubit)
    return circuit


def local_quantum_stimulus(
    num_qubits: int, data_qubits: int, rng: random.Random
) -> QuantumCircuit:
    """A random product of single-qubit stabilizer states."""
    circuit = QuantumCircuit(num_qubits, name="stimulus_local")
    for qubit in range(data_qubits):
        for gate in rng.choice(_LOCAL_STATE_PREPARATIONS):
            circuit.add(gate, [qubit])
    return circuit


def global_quantum_stimulus(
    num_qubits: int, data_qubits: int, rng: random.Random
) -> QuantumCircuit:
    """A random entangled stabilizer state on the data qubits.

    A layer of random local stabilizer preparations followed by a random
    spanning tree of CNOTs — entangled enough to expose errors anywhere in
    the circuit while keeping the decision diagram of the state small
    (tree entanglement).
    """
    circuit = local_quantum_stimulus(num_qubits, data_qubits, rng)
    circuit.name = "stimulus_global"
    connected: List[int] = [0] if data_qubits else []
    remaining = list(range(1, data_qubits))
    rng.shuffle(remaining)
    for qubit in remaining:
        circuit.cx(rng.choice(connected), qubit)
        connected.append(qubit)
    return circuit


_GENERATORS = {
    "classical": classical_stimulus,
    "local_quantum": local_quantum_stimulus,
    "global_quantum": global_quantum_stimulus,
}


def generate_stimulus(
    kind: str,
    num_qubits: int,
    data_qubits: int,
    rng: Optional[random.Random] = None,
) -> QuantumCircuit:
    """Generate one stimulus-preparation circuit of the requested kind."""
    if kind not in _GENERATORS:
        raise ValueError(
            f"unknown stimuli type {kind!r}; pick one of {STIMULI_TYPES}"
        )
    # repro: allow(seeded-rng): explicit opt-in fallback for interactive use; every checker path passes a seeded rng
    return _GENERATORS[kind](num_qubits, data_qubits, rng or random.Random())


def prepare_stimulus_state(
    pkg: ArrayDDPackage, stimulus: QuantumCircuit, num_qubits: int
) -> int:
    """Run a stimulus-preparation circuit on ``|0...0>`` as a vector DD.

    The vector kernel touches only the levels up to each gate's top
    qubit, so preparing a stimulus on a wide register stays cheap.
    """
    from repro.dd.gates import apply_operation_to_vector

    state = pkg.basis_state(num_qubits)
    for op in stimulus:
        state = apply_operation_to_vector(pkg, state, op)
    return state


def prepare_stimulus_columns(
    pkg: ArrayDDPackage, stimuli: Sequence[QuantumCircuit], num_qubits: int
) -> List[int]:
    """Prepare one column state per stimulus, for batched simulation.

    The columns all live in ``pkg``, so node sharing across stimuli is
    maximal and every later gate pass (see
    :func:`repro.dd.array_gates.apply_operation_columns`) amortizes its
    compute-table fills across the batch width.
    """
    return [
        prepare_stimulus_state(pkg, stimulus, num_qubits)
        for stimulus in stimuli
    ]
