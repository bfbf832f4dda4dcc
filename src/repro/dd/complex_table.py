"""Tolerance-aware interning of complex edge weights.

Decision diagrams only stay compact if numerically close edge weights are
recognized as *the same* number — otherwise rounding errors during long
gate sequences make structurally identical sub-diagrams look different and
node sharing collapses (the effect Section 6.2 of the paper blames for the
DD blow-up on arbitrary-angle circuits).

The :class:`ComplexTable` therefore maps every complex number to a canonical
representative: values within ``tolerance`` of an already-stored value are
snapped to that value.  Lookup uses a uniform grid of buckets of edge length
``tolerance`` and probes the 3x3 neighborhood of the target bucket, so any
two values closer than ``tolerance`` are guaranteed to land on a probed
bucket pair.

Canonical values are plain Python ``complex`` objects, so edge comparisons
elsewhere in the package reduce to cheap ``==`` on interned values.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

#: Default merging tolerance, mirroring the magnitude used by QCEC's
#: underlying DD package.
DEFAULT_TOLERANCE = 1e-10

_NEIGHBORHOOD = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 0), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class ComplexTable:
    """Canonical storage of complex numbers with tolerance-based merging."""

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self._tolerance = tolerance
        # Bucket edge equals the tolerance: two values in the same bucket
        # are always within tolerance, so a bucket never holds two distinct
        # canonical values, and values within tolerance across a bucket
        # boundary are found by the 3x3 neighborhood probe.
        self._bucket = tolerance
        self._table: Dict[Tuple[int, int], complex] = {}
        # Every canonical value gets a small sequential integer id so that
        # compute-table keys can be pure integer tuples (cheap to hash and
        # compare) instead of hashing raw complex ratios.  ``_values`` is
        # the inverse map (id -> canonical value): the array-native DD
        # engine stores *only* weight ids in its node arrays and resolves
        # them through this list.
        self._ids: Dict[complex, int] = {}
        self._values: List[complex] = []
        self.hits = 0
        self.misses = 0
        # Seed the exact values every diagram relies on so that anything
        # within tolerance of them snaps to the crisp constant.
        for seed in (0j, 1 + 0j, -1 + 0j, 1j, -1j):
            self.lookup(seed)

    @property
    def tolerance(self) -> float:
        """The merging tolerance of this table."""
        return self._tolerance

    def __len__(self) -> int:
        return len(self._table)

    def _key(self, value: complex) -> Tuple[int, int]:
        return (
            int(math.floor(value.real / self._bucket)),
            int(math.floor(value.imag / self._bucket)),
        )

    def lookup(self, value: complex) -> complex:
        """Return the canonical representative of ``value``.

        If a stored value lies within ``tolerance`` (Chebyshev distance on
        the real/imaginary parts), that value is returned; otherwise
        ``value`` itself is stored and returned.
        """
        value = complex(value)
        key = self._key(value)
        tol = self._tolerance
        for dx, dy in _NEIGHBORHOOD:
            probe = (key[0] + dx, key[1] + dy)
            stored = self._table.get(probe)
            if stored is not None and (
                abs(stored.real - value.real) <= tol
                and abs(stored.imag - value.imag) <= tol
            ):
                self.hits += 1
                return stored
        self.misses += 1
        self._table[key] = value
        # Past ~1e6 the float quotient ``value / bucket`` is coarser than
        # one bucket, so two canonical values further apart than the
        # tolerance can share a key and evict each other from ``_table``.
        # A value coming back must keep its id: a second id would shift
        # every later id off its ``_values`` slot.
        if value not in self._ids:
            self._ids[value] = len(self._values)
            self._values.append(value)
        return value

    def id_of(self, canonical: complex) -> int:
        """The integer id of an already-interned canonical value.

        Callers must pass a value previously returned by :meth:`lookup`;
        use :meth:`lookup_id` to intern and resolve in one step.
        """
        return self._ids[canonical]

    def lookup_id(self, value: complex) -> int:
        """Intern ``value`` and return its canonical integer id."""
        return self._ids[self.lookup(value)]

    def value_of(self, weight_id: int) -> complex:
        """The canonical value behind an integer id (inverse of ``id_of``)."""
        return self._values[weight_id]

    def num_ids(self) -> int:
        """Number of canonical ids handed out so far."""
        return len(self._values)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the final table size."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._table)}

    def clear(self) -> None:
        """Drop all stored values (the exact seeds are re-inserted)."""
        self._table.clear()
        self._ids.clear()
        self._values.clear()
        self.hits = 0
        self.misses = 0
        for seed in (0j, 1 + 0j, -1 + 0j, 1j, -1j):
            self.lookup(seed)
