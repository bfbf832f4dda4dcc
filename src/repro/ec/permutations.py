"""Qubit-permutation handling for compiled circuits.

Compiled circuits act on *physical* wires related to the original logical
qubits by an initial layout and an output permutation (paper Section 3).
The machinery here realizes Section 4.1's treatment:

* :func:`reconstruct_swaps` re-assembles SWAPs that the compiler
  decomposed into three CNOTs ("To maximize this potential, deconstructed
  SWAP operations are reconstructed"),
* :func:`to_logical_form` rewrites a circuit onto logical wires by
  *tracking* the physical-to-logical permutation through the circuit,
  absorbing SWAP gates into the tracked permutation instead of emitting
  them, and appending corrective SWAPs only where the tracked permutation
  disagrees with the declared output permutation,
* :func:`logical_pair` puts both circuits of a check into logical form on
  a shared register and drops the wires neither of them touches.

Every equivalence-checking strategy consumes circuits in logical form, so
all of them handle permuted inputs/outputs uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Operation
from repro.dd.gates import permutation_to_transpositions
from repro.ec.configuration import Configuration


def reconstruct_swaps(circuit: QuantumCircuit) -> QuantumCircuit:
    """Replace CNOT triples ``cx(a,b) cx(b,a) cx(a,b)`` by ``swap(a,b)``.

    Only list-consecutive triples are matched, which is how compilation
    flows emit them; the pass preserves layout metadata.
    """
    out = QuantumCircuit(
        circuit.num_qubits,
        name=circuit.name,
        initial_layout=circuit.initial_layout,
        output_permutation=circuit.output_permutation,
    )
    ops = list(circuit)
    index = 0
    # repro: allow(deadline-prop): index strictly advances over a fixed list
    while index < len(ops):
        op = ops[index]
        if (
            index + 2 < len(ops)
            and _is_cx(op)
            and _is_cx(ops[index + 1])
            and _is_cx(ops[index + 2])
            and ops[index + 1].controls == op.targets
            and ops[index + 1].targets == op.controls
            and ops[index + 2] == op
        ):
            out.swap(op.controls[0], op.targets[0])
            index += 3
            continue
        out.append(op)
        index += 1
    return out


def _is_cx(op: Operation) -> bool:
    return op.name == "x" and len(op.controls) == 1


def to_logical_form(
    circuit: QuantumCircuit,
    num_qubits: Optional[int] = None,
    elide_permutations: bool = True,
    reconstruct: bool = True,
) -> Tuple[QuantumCircuit, Dict[str, int]]:
    """Rewrite a circuit onto logical wires, erasing its layout metadata.

    Returns the rewritten circuit (with identity layout/output metadata)
    plus statistics: ``swaps_elided`` (absorbed into the tracked
    permutation), ``swaps_reconstructed`` and ``correction_swaps``
    (appended to fix a leftover permutation mismatch).

    The invariant maintained while scanning is: *physical wire ``w`` of
    the input circuit corresponds to logical wire ``perm[w]`` of the
    output circuit*, starting from the initial layout.
    """
    if num_qubits is None:
        num_qubits = circuit.num_qubits
    if num_qubits < circuit.num_qubits:
        raise ValueError("cannot shrink a circuit in to_logical_form")
    statistics = {
        "swaps_elided": 0,
        "swaps_reconstructed": 0,
        "correction_swaps": 0,
    }
    source = reconstruct_swaps(circuit) if reconstruct else circuit
    if reconstruct:
        statistics["swaps_reconstructed"] = sum(
            1 for op in source if op.name == "swap"
        ) - sum(1 for op in circuit if op.name == "swap")

    perm = circuit.resolved_initial_layout()  # physical wire -> logical
    for extra in range(circuit.num_qubits, num_qubits):
        perm.setdefault(extra, extra)
    out = QuantumCircuit(num_qubits, name=f"{circuit.name}_logical")

    for op in source:
        if op.name == "swap" and not op.controls and elide_permutations:
            a, b = op.targets
            perm[a], perm[b] = perm[b], perm[a]
            statistics["swaps_elided"] += 1
            continue
        out.append(op.remapped(perm))

    expected = circuit.resolved_output_permutation()  # physical -> logical
    for extra in range(circuit.num_qubits, num_qubits):
        expected.setdefault(extra, extra)
    # The state sitting on logical wire perm[w] must end up being reported
    # as logical qubit expected[w]: emit SWAPs realizing the wire map
    # perm[w] -> expected[w].
    correction = {perm[w]: expected[w] for w in perm}
    for a, b in permutation_to_transpositions(correction, num_qubits):
        out.swap(a, b)
        statistics["correction_swaps"] += 1
    return out, statistics


class LogicalPair(NamedTuple):
    """Both circuits of a check in logical form on one compact register.

    ``wires[i]`` is the full-register wire that compact wire ``i`` stands
    for; ``num_qubits`` is the full register width before idle wires
    were dropped.
    """

    circuit1: QuantumCircuit
    circuit2: QuantumCircuit
    wires: Tuple[int, ...]
    num_qubits: int
    permutation_statistics: Dict[str, Dict[str, int]]

    @property
    def active_qubits(self) -> int:
        return len(self.wires)

    def width_statistics(self) -> Dict[str, int]:
        """``active_qubits`` and ``elided_wires`` for a result's statistics."""
        return {
            "active_qubits": self.active_qubits,
            "elided_wires": self.num_qubits - self.active_qubits,
        }

    def compact(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Relabel a full-register circuit onto the kept wires.

        ``circuit`` may only touch kept wires (e.g. a stimulus on wires
        passed as ``keep`` to :func:`logical_pair`).
        """
        if self.active_qubits == self.num_qubits:
            return circuit
        relabel = {wire: index for index, wire in enumerate(self.wires)}
        return circuit.remapped(relabel, self.active_qubits)


def logical_pair(
    circuit1: QuantumCircuit,
    circuit2: QuantumCircuit,
    configuration: Configuration,
    keep: Iterable[int] = (),
) -> LogicalPair:
    """Put both circuits into logical form and drop their idle wires.

    Both circuits are rewritten by :func:`to_logical_form` onto the wider
    circuit's register, then relabelled, in wire order, onto the wires
    either of them touches plus ``keep``.  A wire no gate of either
    circuit touches contributes only an identity factor ``⊗ I``, so
    every DD verdict is unchanged: ``|tr(U†V ⊗ I)| / 2^n`` equals
    ``|tr(U†V)| / 2^m``, identity tests and state fidelities likewise.
    When no wire is idle the logical circuits are returned as they are.
    """
    num_qubits = max(circuit1.num_qubits, circuit2.num_qubits)
    logical1, stats1 = to_logical_form(
        circuit1,
        num_qubits,
        configuration.elide_permutations,
        configuration.reconstruct_swaps,
    )
    logical2, stats2 = to_logical_form(
        circuit2,
        num_qubits,
        configuration.elide_permutations,
        configuration.reconstruct_swaps,
    )
    wires = tuple(
        sorted(
            set(keep)
            .union(logical1.used_qubits())
            .union(logical2.used_qubits())
        )
    )
    pair = LogicalPair(
        logical1,
        logical2,
        wires,
        num_qubits,
        {"circuit1": stats1, "circuit2": stats2},
    )
    return pair._replace(
        circuit1=pair.compact(logical1), circuit2=pair.compact(logical2)
    )
