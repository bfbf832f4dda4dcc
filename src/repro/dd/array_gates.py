"""Batched gate application over stimulus columns.

The simulation checker propagates all ``num_simulations`` random stimuli
as a matrix of column states and applies each gate to every column in one
pass, on top of the gate builders in :mod:`repro.dd.gates`.

Batching amortizes the per-gate fixed costs across the batch width — the
gate-DD cache fetch happens once per gate instead of once per (gate,
stimulus), and because all columns live in one package, compute-table
entries populated by the first column are hits for every later column
that shares sub-structure with it (classical stimuli share almost
everything below the flipped qubits).

Semantics note: a batched pass always simulates every stimulus to
completion before fidelities are compared, so there is no per-stimulus
early exit mid-circuit; the verdict is unchanged, and the simulation
checker reports the index of the first mismatching stimulus as
``first_mismatch``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuit.gate import Operation
from repro.dd.array_package import ArrayDDPackage
from repro.dd.gates import compact_operation_dd


def apply_operation_columns(
    pkg: ArrayDDPackage, columns: Sequence[int], op: Operation
) -> List[int]:
    """Apply one operation to every column state; returns the new columns.

    The gate diagram is built (or fetched from the per-package gate
    cache) exactly once for the whole batch.
    """
    gate = compact_operation_dd(pkg, op)
    apply = pkg.apply_gate_vector
    return [apply(gate, column) for column in columns]
