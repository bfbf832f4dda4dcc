"""Incremental worklist-driven ZX simplification engine.

The legacy drivers in :mod:`repro.zx.simplify` rescan *every* vertex/edge
after each rewrite, giving O(rounds × |G|) work even when a rewrite only
perturbs a small neighborhood.  This module replaces that architecture
with a dirty-vertex worklist (PyZX-style match-then-rewrite):

* A :class:`DirtyTracker` attaches to the :class:`~repro.zx.diagram.ZXDiagram`
  and receives a ``touch(v)`` notification for every mutation that can
  change a rewrite-rule match at ``v`` — phase, type, or incident-edge
  changes (vertex removal touches all former neighbors).  Each rule keeps
  its *own* dirty set, seeded with every vertex, so a vertex dirtied while
  one rule runs is still pending for all the others.

* Every rule match is *local*: whether a rule applies at a vertex (or
  edge) depends only on that vertex and its direct neighbors — plus, for
  the gadget guards, neighbor degrees, which are themselves invalidated
  only by edge mutations that touch the middle vertex.  Draining a rule's
  dirty set therefore returns the dirty vertices **plus their current
  neighbors** as the complete candidate set; everything else is provably
  still a non-match.

* The tracker additionally maintains *phase-indexed spider sets*
  (:attr:`DirtyTracker.pauli_spiders` / ``clifford_spiders``) so the
  pivot-family and local-complementation rules intersect their candidates
  down to the few phases they can fire on; interior-ness (a neighbor
  property) is validated at match time.

* A rule applies each match **as soon as** its predicates pass on the
  live diagram, then keeps scanning its drained candidates.  There is no
  claim set and no second validation pass: a match is only ever judged
  against the diagram it is applied to, so an earlier rewrite in the same
  round (including a spider-fusion cascade inside ``id_step``) cannot
  invalidate it — at worst it makes a later candidate fail its check, and
  the vertices that rewrite touched are re-queued for every rule anyway.
  The deadline is checked before every applied rewrite, since a single
  round can run thousands of them.

* Notifications are coalesced: ``touch``/``touch_edges`` add to one
  shared *fresh* set, which ``pending``/``drain`` flush into all six rule
  sets with one ``set.update`` each — instead of six set insertions per
  notification on the hottest path of the engine.

Rewrite *steps* and match *predicates* are shared with the legacy module —
both engines apply bit-identical rewrites; only the scheduling differs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.simplify import (
    _check_deadline,
    _gadget_shape,
    _id_applicable,
    _lcomp_applicable,
    _pivot_boundary_partner_applicable,
    _pivot_endpoint_applicable,
    _pivot_gadget_anchor_applicable,
    _pivot_gadget_partner_applicable,
    _ZERO,
    gadget_fuse_step,
    id_step,
    lcomp_step,
    pivot_boundary_step,
    pivot_gadget_step,
    pivot_step,
    to_graph_like,
)
from repro.zx.phase import Phase

#: Rule identifiers — one dirty set each.
RULES = (
    "id", "lcomp", "pivot", "pivot_gadget", "pivot_boundary", "gadget",
)


class DirtyTracker:
    """Per-rule dirty sets plus phase-indexed candidate sets.

    Invariants while attached (checked by ``tests/zx/test_incremental.py``):

    * every live vertex whose neighborhood changed since rule ``r`` last
      drained is in ``_fresh`` or ``_dirty[r]`` (removal instead touches
      the neighbors); ``pending``/``drain`` flush ``_fresh`` first, so
      they always see the union;
    * ``v in pauli_spiders`` iff ``v`` is a live Z spider with phase
      0 or pi, and ``v in clifford_spiders`` iff its phase is ±pi/2
      (interior-ness is *not* part of the invariant — it is a neighbor
      property, re-checked at match time);
    * ``gadget_supports`` is a cache, validated on every hit — a stale
      entry can cost a lookup, never a wrong fusion.
    """

    __slots__ = (
        "diagram", "_fresh", "_dirty", "pauli_spiders", "clifford_spiders",
        "gadget_supports", "_axis_key",
    )

    def __init__(self, diagram: ZXDiagram) -> None:
        self.diagram = diagram
        seed = tuple(diagram._types)
        #: touched since the last flush, not yet in any rule's dirty set
        self._fresh: Set[int] = set()
        self._dirty: Dict[str, Set[int]] = {
            rule: set(seed) for rule in RULES
        }
        self.pauli_spiders: Set[int] = set()
        self.clifford_spiders: Set[int] = set()
        #: support -> (axis, leaf) of a registered phase gadget
        self.gadget_supports: Dict[FrozenSet[int], Tuple[int, int]] = {}
        self._axis_key: Dict[int, FrozenSet[int]] = {}
        for vertex in seed:
            self._reindex(vertex)

    # -- notifications from the diagram ---------------------------------
    def touch(self, vertex: int) -> None:
        """The vertex's phase or type changed (re-examines + re-indexes)."""
        self._fresh.add(vertex)
        self._reindex(vertex)

    def touch_edges(self, vertex: int) -> None:
        """An incident edge changed — phase and type are intact, so the
        vertex only needs re-examination, not re-indexing."""
        self._fresh.add(vertex)

    def forget(self, vertex: int) -> None:
        """The vertex was removed."""
        self._fresh.discard(vertex)
        for dirty in self._dirty.values():
            dirty.discard(vertex)
        self.pauli_spiders.discard(vertex)
        self.clifford_spiders.discard(vertex)
        key = self._axis_key.pop(vertex, None)
        if key is not None:
            entry = self.gadget_supports.get(key)
            if entry is not None and entry[0] == vertex:
                del self.gadget_supports[key]

    # -- worklist access -------------------------------------------------
    def _flush(self) -> None:
        fresh = self._fresh
        if fresh:
            for dirty in self._dirty.values():
                dirty.update(fresh)
            fresh.clear()

    def pending(self, rule: str) -> bool:
        self._flush()
        return bool(self._dirty[rule])

    def drain(self, rule: str) -> List[int]:
        """Consume the rule's dirty set; return sorted live candidates.

        Candidates are the dirty vertices plus their *current* neighbors —
        the complete set of vertices at which a match may have appeared or
        disappeared (sorted for deterministic rewrite order).
        """
        self._flush()
        dirty = self._dirty[rule]
        if not dirty:
            return []
        self._dirty[rule] = set()
        alive = self.diagram._types
        adjacency = self.diagram._adjacency
        candidates: Set[int] = set()
        for vertex in dirty:
            if vertex in alive:
                candidates.add(vertex)
                candidates.update(adjacency[vertex])
        return sorted(candidates)

    # -- phase-indexed candidate sets ------------------------------------
    def _reindex(self, vertex: int) -> None:
        types = self.diagram._types
        if types.get(vertex) is VertexType.Z:
            phase: Phase = self.diagram._phases[vertex]
            # Stored phases are normalized to [0, 2): denominator 1 means
            # 0 or pi (Pauli), denominator 2 means ±pi/2 (proper Clifford)
            # — same integrality test as simplify._stored_pauli, inlined
            # because touch() is the hottest tracker path.
            if type(phase) is Fraction:
                denominator = phase.denominator
                if denominator == 1:
                    self.pauli_spiders.add(vertex)
                    self.clifford_spiders.discard(vertex)
                    return
                if denominator == 2:
                    self.clifford_spiders.add(vertex)
                    self.pauli_spiders.discard(vertex)
                    return
        self.pauli_spiders.discard(vertex)
        self.clifford_spiders.discard(vertex)


def _count(counters, name: str, amount: int) -> None:
    if counters is not None and amount:
        counters.count(name, amount)


# ---------------------------------------------------------------------------
# per-rule incremental drivers
# ---------------------------------------------------------------------------
def _id_round(
    diagram: ZXDiagram, tracker: DirtyTracker, candidates, deadline, counters
) -> int:
    alive = diagram._types
    applied = 0
    for vertex in candidates:
        if vertex in alive and _id_applicable(diagram, vertex):
            _check_deadline(deadline)
            id_step(diagram, vertex)
            applied += 1
    _count(counters, "zx.id.matches", applied)
    _count(counters, "zx.id.rewrites", applied)
    return applied


def _lcomp_round(
    diagram: ZXDiagram, tracker: DirtyTracker, candidates, deadline, counters
) -> int:
    index = tracker.clifford_spiders
    applied = 0
    for vertex in candidates:
        if vertex in index and _lcomp_applicable(diagram, vertex):
            _check_deadline(deadline)
            lcomp_step(diagram, vertex)
            applied += 1
    _count(counters, "zx.lcomp.matches", applied)
    _count(counters, "zx.lcomp.rewrites", applied)
    return applied


def _edge_round(
    diagram: ZXDiagram,
    rule: str,
    anchors: Iterable[int],
    anchor_ok,
    partner_ok,
    step,
    deadline,
    counters,
) -> int:
    """One round of an edge-anchored pivot-family rule.

    ``anchors`` are candidate first-endpoints; each Hadamard edge
    ``(a, b)`` whose predicates pass is rewritten on the spot.  Every
    pivot-family step deletes its anchor, so the scan moves on to the next
    anchor after a rewrite; a later anchor the rewrite removed or changed
    is judged on the live diagram when its turn comes.  The match
    predicate is split: ``anchor_ok(diagram, a)`` covers everything
    depending on the anchor alone and runs **once per anchor**,
    ``partner_ok(diagram, b)`` covers the other endpoint and runs per
    Hadamard edge — without the split, an anchor of degree *d* would
    re-scan its own neighborhood *d* times.  Partner results are memoized
    until the next applied rewrite (which can change any of them), so a
    partner of in-degree *k* is not re-scanned *k* times in between.
    """
    alive = diagram._types
    adjacency = diagram._adjacency
    applied = 0
    partner_cache: Dict[int, bool] = {}
    for a in anchors:
        if a not in alive or not anchor_ok(diagram, a):
            continue
        neighbors = adjacency[a]
        for b in sorted(neighbors):
            if neighbors[b] is not EdgeType.HADAMARD:
                continue
            ok = partner_cache.get(b)
            if ok is None:
                ok = partner_cache[b] = partner_ok(diagram, b)
            if ok:
                _check_deadline(deadline)
                step(diagram, a, b)
                applied += 1
                partner_cache.clear()
                break
    _count(counters, f"zx.{rule}.matches", applied)
    _count(counters, f"zx.{rule}.rewrites", applied)
    return applied


def _pivot_round(
    diagram: ZXDiagram, tracker: DirtyTracker, candidates, deadline, counters
) -> int:
    anchors = [v for v in candidates if v in tracker.pauli_spiders]
    return _edge_round(
        diagram, "pivot", anchors,
        _pivot_endpoint_applicable, _pivot_endpoint_applicable, pivot_step,
        deadline, counters,
    )


def _pivot_gadget_round(
    diagram: ZXDiagram, tracker: DirtyTracker, candidates, deadline, counters
) -> int:
    # The Pauli anchor is drained directly, or is a neighbor of the dirty
    # non-Pauli partner — drain() already added those neighbors.
    anchors = [v for v in candidates if v in tracker.pauli_spiders]
    return _edge_round(
        diagram, "pivot_gadget", anchors,
        _pivot_gadget_anchor_applicable, _pivot_gadget_partner_applicable,
        pivot_gadget_step, deadline, counters,
    )


def _pivot_boundary_round(
    diagram: ZXDiagram, tracker: DirtyTracker, candidates, deadline, counters
) -> int:
    anchors = [v for v in candidates if v in tracker.pauli_spiders]
    return _edge_round(
        diagram, "pivot_boundary", anchors,
        _pivot_endpoint_applicable, _pivot_boundary_partner_applicable,
        pivot_boundary_step, deadline, counters,
    )


def _gadget_round(
    diagram: ZXDiagram, tracker: DirtyTracker, candidates, deadline, counters
) -> int:
    supports = tracker.gadget_supports
    axis_key = tracker._axis_key
    # Invalidate cache entries whose axis neighborhood may have changed.
    for vertex in candidates:
        key = axis_key.pop(vertex, None)
        if key is not None:
            entry = supports.get(key)
            if entry is not None and entry[0] == vertex:
                del supports[key]
    alive = diagram._types
    applied = 0
    for leaf in candidates:
        if leaf not in alive:
            continue
        shape = _gadget_shape(diagram, leaf)
        if shape is None:
            continue
        axis, support = shape
        existing = supports.get(support)
        if existing is not None and existing[0] != axis:
            other_axis, other_leaf = existing
            # Validate the cached entry against the live diagram — it may
            # be stale (e.g. the axis grew a second leaf and was later
            # re-registered under a different key).
            stale = (
                other_axis not in alive
                or other_leaf not in alive
                or diagram.phase(other_axis) != _ZERO
                or _gadget_shape(diagram, other_leaf) != (other_axis, support)
            )
            if stale:
                del supports[support]
                axis_key.pop(other_axis, None)
                existing = None
        if existing is not None and existing[0] != axis:
            _check_deadline(deadline)
            gadget_fuse_step(diagram, existing[1], axis, leaf)
            applied += 1
        else:
            supports[support] = (axis, leaf)
            axis_key[axis] = support
    _count(counters, "zx.gadget.matches", applied)
    _count(counters, "zx.gadget.rewrites", applied)
    return applied


_ROUNDS = {
    "id": _id_round,
    "lcomp": _lcomp_round,
    "pivot": _pivot_round,
    "pivot_gadget": _pivot_gadget_round,
    "pivot_boundary": _pivot_boundary_round,
    "gadget": _gadget_round,
}


def _run_rule(
    diagram: ZXDiagram, tracker: DirtyTracker, rule: str, deadline, counters
) -> int:
    """Drive one rule to its local fixpoint over its own dirty set."""
    round_fn = _ROUNDS[rule]
    applied = 0
    while tracker.pending(rule):
        _check_deadline(deadline)
        candidates = tracker.drain(rule)
        _count(counters, f"zx.{rule}.candidates", len(candidates))
        applied += round_fn(diagram, tracker, candidates, deadline, counters)
    return applied


# ---------------------------------------------------------------------------
# pipelines (scheduling mirrors the legacy ones in repro.zx.simplify)
# ---------------------------------------------------------------------------
def _interior_clifford(diagram, tracker, deadline, counters) -> int:
    total = 0
    while True:
        applied = _run_rule(diagram, tracker, "id", deadline, counters)
        applied += _run_rule(diagram, tracker, "pivot", deadline, counters)
        applied += _run_rule(diagram, tracker, "lcomp", deadline, counters)
        total += applied
        if not applied:
            return total


def _clifford(diagram, tracker, deadline, counters) -> int:
    total = 0
    while True:
        applied = _interior_clifford(diagram, tracker, deadline, counters)
        applied += _run_rule(
            diagram, tracker, "pivot_boundary", deadline, counters
        )
        total += applied
        if not applied:
            return total


def _with_tracker(diagram: ZXDiagram, body) -> int:
    """Graph-like normalization, tracker attach/run/detach."""
    to_graph_like(diagram)
    tracker = DirtyTracker(diagram)
    diagram.attach_tracker(tracker)
    try:
        return body(tracker)
    finally:
        diagram.detach_tracker()


def interior_clifford_simp_incremental(
    diagram: ZXDiagram, deadline=None, counters=None
) -> int:
    """Worklist-driven :func:`repro.zx.simplify.interior_clifford_simp`."""
    return _with_tracker(
        diagram,
        lambda tracker: _interior_clifford(
            diagram, tracker, deadline, counters
        ),
    )


def clifford_simp_incremental(
    diagram: ZXDiagram, deadline=None, counters=None
) -> int:
    """Worklist-driven :func:`repro.zx.simplify.clifford_simp`."""
    return _with_tracker(
        diagram,
        lambda tracker: _clifford(diagram, tracker, deadline, counters),
    )


def full_reduce_incremental(
    diagram: ZXDiagram,
    max_rounds: int = 10_000,
    deadline=None,
    counters=None,
) -> int:
    """Worklist-driven :func:`repro.zx.simplify.full_reduce`.

    Same rule schedule as the legacy pipeline; after the initial sweep
    (every rule's dirty set starts full) each subsequent pass only touches
    vertices whose neighborhood a rewrite actually changed, so the
    quiescent passes that dominate the legacy engine degenerate to empty
    set checks.
    """

    def body(tracker: DirtyTracker) -> int:
        total = _interior_clifford(diagram, tracker, deadline, counters)
        total += _run_rule(
            diagram, tracker, "pivot_gadget", deadline, counters
        )
        rounds = 0
        for _ in range(max_rounds):
            rounds += 1
            applied = _clifford(diagram, tracker, deadline, counters)
            applied += _run_rule(
                diagram, tracker, "gadget", deadline, counters
            )
            applied += _interior_clifford(diagram, tracker, deadline, counters)
            applied += _run_rule(
                diagram, tracker, "pivot_gadget", deadline, counters
            )
            total += applied
            if not applied:
                break
        _count(counters, "zx.rounds", rounds)
        return total

    return _with_tracker(diagram, body)
