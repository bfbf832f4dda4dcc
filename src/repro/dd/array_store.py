"""Struct-of-arrays node storage for the array-native DD engine.

A node-object representation (one instance per node holding a tuple of
edge objects, unique tables keyed on ``id()``) pays an allocation, a
pointer chase and a refcount dance per edge touched at kernel throughput.
:class:`NodeStore` avoids it with a struct-of-arrays layout addressed by
dense integer *handles*:

* ``levels``   — one entry per node: the decided qubit level,
* ``children`` — ``arity`` child handles per node (flat, stride ``arity``),
* ``weights``  — ``arity`` interned complex-weight ids per node
  (:meth:`repro.dd.complex_table.ComplexTable.lookup_id`).

Handle ``0`` is the shared terminal (level ``-1``, all fields zero).
Canonicity is enforced by an **open-addressed, array-backed unique
table**: a power-of-two numpy ``int64`` slot/hash array pair probed
linearly.  A lookup hashes the packed ``(level, child/weight...)`` key,
walks the probe chain, and verifies candidates against the field arrays —
so a 64-bit hash collision can never alias two distinct nodes.  The slot
array doubles (and re-seeds from the per-node hash array) past a 2/3 load
factor; the field arrays grow by appending, and **nodes are never
evicted**.

The hot node fields live in flat Python integer lists rather than numpy
arrays: the kernels read a handful of *individual* elements per recursion
step, and CPython boxes every ``ndarray[i]`` access into a fresh numpy
scalar (~3-4x the cost of a list read).  numpy backs the structures that
are genuinely array-shaped — the unique table's slot/hash arrays and the
:meth:`NodeStore.as_arrays` export view used by rendering and
diagnostics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: Initial slot count of the open-addressed unique table (power of two).
INITIAL_SLOT_CAPACITY = 1 << 12

#: Python's tuple hash is a signed 64-bit value; fold it into the
#: non-negative int64 domain so numpy storage and masking stay trivial.
_HASH_MASK = (1 << 63) - 1


def _round_up_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


class NodeStore:
    """Canonical node storage for one node kind (vector or matrix).

    Args:
        arity: Successors per node — 2 for vector nodes, 4 for matrix
            nodes.
        slot_capacity: Initial open-addressed table size (rounded up to a
            power of two).  Tiny values are legal and exercised by the
            collision/growth stress tests; the table grows automatically.
    """

    __slots__ = (
        "arity", "levels", "children", "weights", "_node_hash",
        "_mask", "_slots", "_hashes", "_filled",
        "lookups", "hits", "collisions", "grows",
    )

    def __init__(
        self, arity: int, slot_capacity: int = INITIAL_SLOT_CAPACITY
    ) -> None:
        if arity < 2:
            raise ValueError("node arity must be at least 2")
        if slot_capacity < 1:
            raise ValueError("slot capacity must be positive")
        self.arity = arity
        # Handle 0 is the terminal: level -1, zeroed child/weight rows.
        self.levels: List[int] = [-1]
        self.children: List[int] = [0] * arity
        self.weights: List[int] = [0] * arity
        self._node_hash: List[int] = [0]
        capacity = _round_up_power_of_two(slot_capacity)
        self._mask = capacity - 1
        self._slots = np.full(capacity, -1, dtype=np.int64)
        self._hashes = np.zeros(capacity, dtype=np.int64)
        self._filled = 0
        self.lookups = 0
        self.hits = 0
        self.collisions = 0
        self.grows = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total nodes including the terminal."""
        return len(self.levels)

    @property
    def num_nodes(self) -> int:
        """Unique non-terminal nodes stored."""
        return len(self.levels) - 1

    @property
    def slot_capacity(self) -> int:
        """Current open-addressed table size."""
        return self._mask + 1

    def _matches(self, handle: int, level: int, fields: Tuple[int, ...]) -> bool:
        if self.levels[handle] != level:
            return False
        base = handle * self.arity
        children = self.children
        weights = self.weights
        for k in range(self.arity):
            index = 2 * k
            if (
                children[base + k] != fields[index]
                or weights[base + k] != fields[index + 1]
            ):
                return False
        return True

    def lookup_or_insert(
        self, level: int, fields: Tuple[int, ...]
    ) -> Tuple[int, bool]:
        """Return ``(handle, created)`` for the node with the given fields.

        ``fields`` interleaves child handles and weight ids:
        ``(c0, w0, c1, w1, ...)`` with exactly ``arity`` pairs.
        """
        key_hash = hash((level,) + fields) & _HASH_MASK
        self.lookups += 1
        mask = self._mask
        slots = self._slots
        hashes = self._hashes
        index = key_hash & mask
        while True:
            handle = int(slots[index])
            if handle < 0:
                break
            if int(hashes[index]) == key_hash and self._matches(
                handle, level, fields
            ):
                self.hits += 1
                return handle, False
            self.collisions += 1
            index = (index + 1) & mask
        handle = len(self.levels)
        self.levels.append(level)
        self.children.extend(fields[0::2])
        self.weights.extend(fields[1::2])
        self._node_hash.append(key_hash)
        slots[index] = handle
        hashes[index] = key_hash
        self._filled += 1
        if 3 * self._filled > 2 * (mask + 1):
            self._grow()
        return handle, True

    def _grow(self) -> None:
        """Double the slot array and re-seed it from the stored hashes."""
        capacity = (self._mask + 1) * 2
        mask = capacity - 1
        slots = np.full(capacity, -1, dtype=np.int64)
        hashes = np.zeros(capacity, dtype=np.int64)
        node_hash = self._node_hash
        for handle in range(1, len(self.levels)):
            key_hash = node_hash[handle]
            index = key_hash & mask
            while slots[index] >= 0:
                index = (index + 1) & mask
            slots[index] = handle
            hashes[index] = key_hash
        self._mask = mask
        self._slots = slots
        self._hashes = hashes
        self.grows += 1

    # ------------------------------------------------------------------
    def as_arrays(self) -> Dict[str, np.ndarray]:
        """numpy int32 struct-of-arrays view (levels, children, weights).

        ``children``/``weights`` come back shaped ``(num_nodes + 1,
        arity)`` with row 0 the terminal — the layout rendered by
        :mod:`repro.dd.export` and the architecture docs.
        """
        count = len(self.levels)
        return {
            "levels": np.asarray(self.levels, dtype=np.int32),
            "children": np.asarray(
                self.children, dtype=np.int32
            ).reshape(count, self.arity),
            "weights": np.asarray(
                self.weights, dtype=np.int32
            ).reshape(count, self.arity),
        }

    def stats(self) -> Dict[str, int]:
        """Growth and probe counters for the perf layer."""
        return {
            "nodes": self.num_nodes,
            "slot_capacity": self.slot_capacity,
            "lookups": self.lookups,
            "hits": self.hits,
            "collisions": self.collisions,
            "grows": self.grows,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeStore(arity={self.arity}, nodes={self.num_nodes}, "
            f"slots={self.slot_capacity})"
        )
