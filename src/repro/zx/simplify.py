"""Graph-like simplification of ZX-diagrams.

This module re-implements the simplification strategy of Duncan et al.
("Graph-theoretic simplification of quantum circuits with the ZX-calculus")
that PyZX's ``full_reduce`` uses and that the paper's case study relies on
(Section 5.1 / 6.1: "the ZX-diagrams of the circuits are combined [...],
transformed into a graph-like diagram and then simplified as much as
possible using the local complementation and pivoting rules").

A diagram is *graph-like* when every spider is a Z spider, spiders are only
connected by Hadamard edges, and there are no parallel edges or self-loops.
On graph-like diagrams the following rewrite rules apply (the names in
:data:`RULES`):

* ``id`` — remove phase-0 degree-2 spiders,
* ``lcomp`` — local complementation, eliminating interior spiders with
  phase ±pi/2,
* ``pivot`` — pivoting, eliminating pairs of adjacent interior Pauli
  spiders,
* ``pivot_gadget`` / ``pivot_boundary`` — pivot variants that first
  gadgetize a non-Pauli partner or detach a boundary-adjacent one,
* ``gadget`` — fusion of phase gadgets with identical support.

All rewrites hold up to a global scalar, which the equivalence-checking
use-case does not need (tensor tests compare up to proportionality).
The number of spiders never increases — the property the paper highlights
("because the number of spiders are non-increasing [...] the size of the
diagram does not blow up").

Each rule is a match *predicate* (the ``_*_applicable`` functions and
``_gadget_shape``) plus a rewrite *step* (the ``*_step`` functions); a
dirty-vertex worklist schedules them, so a pass re-examines only vertices
whose neighborhood changed instead of rescanning the whole diagram:

* A :class:`DirtyTracker` attaches to the :class:`~repro.zx.diagram.ZXDiagram`
  and receives a ``touch(v)`` notification for every mutation that can
  change a rule match at ``v`` — phase, type, or incident-edge changes
  (vertex removal touches all former neighbors).  Each rule keeps its
  *own* dirty set, seeded with every vertex, so a vertex dirtied while
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
  live diagram, then keeps scanning its drained candidates: a match is
  only ever judged against the diagram it is applied to, so an earlier
  rewrite in the same round (including a spider-fusion cascade inside
  ``id_step``) cannot invalidate it — at worst it makes a later candidate
  fail its check, and the vertices that rewrite touched are re-queued for
  every rule anyway.  The deadline is checked before every applied
  rewrite, since a single round can run thousands of them.

* Notifications are coalesced: ``touch``/``touch_edges`` add to one
  shared *fresh* set, which ``pending``/``drain`` flush into all six rule
  sets with one ``set.update`` each — instead of six set insertions per
  notification on the hottest path of the scheduler.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.phase import Phase, SymbolicPhase, negate_phase

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def _stored_pauli(phase) -> bool:
    """:func:`repro.zx.phase.is_pauli_phase` for already-stored phases.

    The diagram normalizes every phase to ``[0, 2)`` on mutation (floats
    near dyadic fractions are snapped to exact :class:`Fraction`), so the
    Pauli test reduces to an integrality check — no re-normalization in
    the match loops.
    """
    return type(phase) is Fraction and phase.denominator == 1


def _stored_proper_clifford(phase) -> bool:
    """:func:`repro.zx.phase.is_proper_clifford_phase` for stored phases."""
    return type(phase) is Fraction and phase.denominator == 2


class SimplificationTimeout(Exception):
    """Raised when a simplification exceeds its wall-clock deadline."""


def _check_deadline(deadline) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SimplificationTimeout()


# ---------------------------------------------------------------------------
# graph-like transformation
# ---------------------------------------------------------------------------
def _fuse(diagram: ZXDiagram, keep: int, merge: int) -> None:
    """Fuse spider ``merge`` into ``keep`` (both Z, simple-edge connected).

    Parallel-edge conflicts created by the fusion are resolved on the fly:
    a doubled simple edge between Z spiders is idempotent, a doubled
    Hadamard edge cancels (Hopf), and a simple/Hadamard pair is a simple
    edge plus a pi phase (the Hadamard edge becomes a self-loop once the
    simple edge is fused).
    """
    worklist = [merge]
    # repro: allow(deadline-prop): each pop discards or fuses a spider; bounded
    while worklist:
        merge = worklist.pop()
        if (
            merge not in diagram._types
            or not diagram.connected(keep, merge)
            or diagram.edge_type(keep, merge) is not EdgeType.SIMPLE
            or diagram.vertex_type(merge) is not VertexType.Z
        ):
            continue
        diagram.add_to_phase(keep, diagram.phase(merge))
        diagram.disconnect(keep, merge)
        for neighbor in list(diagram.neighbors(merge)):
            edge_type = diagram.edge_type(merge, neighbor)
            diagram.disconnect(merge, neighbor)
            if neighbor == keep:
                # Self-loop after fusion: simple loops vanish, H loops: pi.
                if edge_type is EdgeType.HADAMARD:
                    diagram.add_to_phase(keep, _ONE)
                continue
            if not diagram.connected(keep, neighbor):
                diagram.connect(keep, neighbor, edge_type)
            else:
                existing = diagram.edge_type(keep, neighbor)
                if existing is edge_type:
                    if edge_type is EdgeType.HADAMARD:
                        # Hopf: parallel H edges cancel.
                        diagram.disconnect(keep, neighbor)
                    # parallel simple edges between Z spiders: idempotent
                else:
                    # simple + Hadamard pair -> simple edge plus a pi phase
                    diagram.set_edge_type(keep, neighbor, EdgeType.SIMPLE)
                    diagram.add_to_phase(keep, _ONE)
            # Fusing may leave fresh simple Z-Z edges; queue them so the
            # graph-like invariant is restored before returning.
            if (
                diagram.connected(keep, neighbor)
                and diagram.edge_type(keep, neighbor) is EdgeType.SIMPLE
                and diagram.vertex_type(neighbor) is VertexType.Z
            ):
                worklist.append(neighbor)
        diagram.remove_vertex(merge)


def to_graph_like(diagram: ZXDiagram, deadline=None) -> ZXDiagram:
    """Transform in place to graph-like form; returns the diagram.

    X spiders are recolored to Z (toggling the type of every incident
    edge), then all simple edges between Z spiders are fused away.  The
    fusion sweep consults the cooperative ``deadline`` between passes.
    """
    # repro: allow(deadline-loop): single recolor pass over the vertex list
    for vertex in list(diagram.vertices()):
        if diagram.vertex_type(vertex) is VertexType.X:
            diagram.set_vertex_type(vertex, VertexType.Z)
            # set_edge_type only rewrites values, so the live view is safe
            # repro: allow(deadline-loop): bounded by the vertex degree
            for neighbor in diagram.neighbor_view(vertex):
                current = diagram.edge_type(vertex, neighbor)
                flipped = (
                    EdgeType.SIMPLE
                    if current is EdgeType.HADAMARD
                    else EdgeType.HADAMARD
                )
                diagram.set_edge_type(vertex, neighbor, flipped)
    changed = True
    while changed:
        changed = False
        _check_deadline(deadline)
        # repro: allow(deadline-loop): one sweep over a materialized edge list
        for u, v, edge_type in list(diagram.edges()):
            if edge_type is not EdgeType.SIMPLE:
                continue
            if u not in diagram._types or v not in diagram._types:
                continue  # removed by an earlier fusion this sweep
            if (
                diagram.connected(u, v)
                and diagram.edge_type(u, v) is EdgeType.SIMPLE
                and diagram.vertex_type(u) is VertexType.Z
                and diagram.vertex_type(v) is VertexType.Z
            ):
                _fuse(diagram, u, v)
                changed = True
    return diagram


# ---------------------------------------------------------------------------
# identity removal
# ---------------------------------------------------------------------------
def _id_applicable(diagram: ZXDiagram, vertex: int) -> bool:
    """Phase-0 Z spider of degree two (phases are stored normalized).

    The degree test goes first: on dense mid-simplification diagrams it
    rejects nearly every candidate with a single length check.
    """
    return (
        len(diagram._adjacency[vertex]) == 2
        and diagram._types[vertex] is VertexType.Z
        and diagram._phases[vertex] == 0
    )


def id_step(diagram: ZXDiagram, vertex: int) -> None:
    """Remove the phase-0 degree-2 spider ``vertex``, splicing its wires."""
    n1, n2 = diagram.neighbors(vertex)
    t1 = diagram.edge_type(vertex, n1)
    t2 = diagram.edge_type(vertex, n2)
    combined = EdgeType.SIMPLE if t1 is t2 else EdgeType.HADAMARD
    diagram.remove_vertex(vertex)
    if not diagram.connected(n1, n2):
        diagram.connect(n1, n2, combined)
    else:
        both_z = (
            diagram.vertex_type(n1) is VertexType.Z
            and diagram.vertex_type(n2) is VertexType.Z
        )
        if not both_z:
            raise ValueError(
                "parallel edge through a boundary — malformed diagram"
            )
        existing = diagram.edge_type(n1, n2)
        if existing is combined:
            if combined is EdgeType.HADAMARD:
                diagram.disconnect(n1, n2)  # Hopf
            # doubled simple edge between Z spiders: idempotent
        else:
            diagram.set_edge_type(n1, n2, EdgeType.SIMPLE)
            diagram.add_to_phase(n1, _ONE)
    # A surviving simple edge between two Z spiders must be fused to
    # keep the diagram graph-like.
    if (
        diagram.connected(n1, n2)
        and diagram.edge_type(n1, n2) is EdgeType.SIMPLE
        and diagram.vertex_type(n1) is VertexType.Z
        and diagram.vertex_type(n2) is VertexType.Z
    ):
        _fuse(diagram, n1, n2)


# ---------------------------------------------------------------------------
# local complementation
# ---------------------------------------------------------------------------
def _all_hadamard(diagram: ZXDiagram, vertex: int) -> bool:
    edges = diagram._adjacency[vertex]
    return all(t is EdgeType.HADAMARD for t in edges.values())


def _hh_z_neighborhood(diagram: ZXDiagram, vertex: int) -> bool:
    """Every incident edge Hadamard and every neighbor a Z spider.

    Implies interior-ness (boundary vertices are not Z spiders).  A single
    pass over the adjacency replaces the separate interior / all-Hadamard
    / all-Z-neighbor scans the match predicates used to chain — this
    predicate dominates the match loops on dense mid-simplification
    diagrams.
    """
    types = diagram._types
    for neighbor, edge_type in diagram._adjacency[vertex].items():
        if (
            edge_type is not EdgeType.HADAMARD
            or types[neighbor] is not VertexType.Z
        ):
            return False
    return True


def _ungadgeted_hh_z_neighborhood(diagram: ZXDiagram, vertex: int) -> bool:
    """:func:`_hh_z_neighborhood` plus the pivot-gadget gadget guards.

    Rejects gadget leaves (degree-1 spiders — any degree-1 vertex passing
    the Hadamard/Z checks *is* a leaf) and spiders adjacent to one:
    re-gadgetizing existing gadget structure would cycle forever.
    """
    adjacency = diagram._adjacency
    types = diagram._types
    edges = adjacency[vertex]
    if len(edges) == 1:
        return False
    for neighbor, edge_type in edges.items():
        if (
            edge_type is not EdgeType.HADAMARD
            or types[neighbor] is not VertexType.Z
            or len(adjacency[neighbor]) == 1
        ):
            return False
    return True


def lcomp_step(diagram: ZXDiagram, vertex: int) -> None:
    """Apply local complementation at ``vertex`` and delete it."""
    phase = diagram.phase(vertex)
    neighbors = list(diagram.neighbors(vertex))
    diagram.remove_vertex(vertex)
    for i in range(len(neighbors)):
        diagram.add_to_phase(neighbors[i], negate_phase(phase))
        for j in range(i + 1, len(neighbors)):
            diagram.toggle_hadamard_edge(neighbors[i], neighbors[j])


def _lcomp_applicable(diagram: ZXDiagram, vertex: int) -> bool:
    return (
        diagram._types[vertex] is VertexType.Z
        and _stored_proper_clifford(diagram._phases[vertex])
        and _hh_z_neighborhood(diagram, vertex)
    )


# ---------------------------------------------------------------------------
# pivoting
# ---------------------------------------------------------------------------
def pivot_step(diagram: ZXDiagram, u: int, v: int) -> None:
    """Pivot along the Hadamard edge ``(u, v)`` and delete both spiders."""
    phase_u = diagram.phase(u)
    phase_v = diagram.phase(v)
    neighbors_u = set(diagram.neighbor_view(u)) - {v}
    neighbors_v = set(diagram.neighbor_view(v)) - {u}
    common = neighbors_u & neighbors_v
    only_u = neighbors_u - common
    only_v = neighbors_v - common
    diagram.remove_vertex(u)
    diagram.remove_vertex(v)
    for a in only_u:
        for b in only_v:
            diagram.toggle_hadamard_edge(a, b)
    for a in only_u:
        for c in common:
            diagram.toggle_hadamard_edge(a, c)
    for b in only_v:
        for c in common:
            diagram.toggle_hadamard_edge(b, c)
    for a in only_u:
        diagram.add_to_phase(a, phase_v)
    for b in only_v:
        diagram.add_to_phase(b, phase_u)
    for c in common:
        diagram.add_to_phase(c, phase_u)
        diagram.add_to_phase(c, phase_v)
        diagram.add_to_phase(c, _ONE)


def _pivot_endpoint_applicable(diagram: ZXDiagram, vertex: int) -> bool:
    """Interior Pauli Z spider with an all-Hadamard, all-Z neighborhood."""
    return (
        diagram._types[vertex] is VertexType.Z
        and _stored_pauli(diagram._phases[vertex])
        and _hh_z_neighborhood(diagram, vertex)
    )


def _pivot_applicable(diagram: ZXDiagram, u: int, v: int) -> bool:
    return (
        diagram._adjacency[u].get(v) is EdgeType.HADAMARD
        and _pivot_endpoint_applicable(diagram, u)
        and _pivot_endpoint_applicable(diagram, v)
    )


# ---------------------------------------------------------------------------
# pivot variants: gadgetization and boundary handling
# ---------------------------------------------------------------------------
def _gadgetize(diagram: ZXDiagram, vertex: int) -> None:
    """Move the phase of ``vertex`` onto a fresh phase gadget."""
    phase = diagram.phase(vertex)
    diagram.set_phase(vertex, _ZERO)
    axis = diagram.add_vertex(VertexType.Z)
    leaf = diagram.add_vertex(VertexType.Z, phase)
    diagram.connect(vertex, axis, EdgeType.HADAMARD)
    diagram.connect(axis, leaf, EdgeType.HADAMARD)


def _is_gadget_leaf(diagram: ZXDiagram, vertex: int) -> bool:
    """True for degree-1 spiders hanging off a gadget axis."""
    if diagram.degree(vertex) != 1:
        return False
    (axis,) = diagram.neighbor_view(vertex)
    return (
        diagram.vertex_type(vertex) is VertexType.Z
        and diagram.vertex_type(axis) is VertexType.Z
        and diagram.edge_type(vertex, axis) is EdgeType.HADAMARD
    )


def _pivot_gadget_anchor_applicable(diagram: ZXDiagram, a: int) -> bool:
    """Anchor side of pivot-gadget: interior, ungadgeted Pauli spider."""
    return (
        diagram._types[a] is VertexType.Z
        and _stored_pauli(diagram._phases[a])
        and _ungadgeted_hh_z_neighborhood(diagram, a)
    )


def _pivot_gadget_partner_applicable(diagram: ZXDiagram, b: int) -> bool:
    """Partner side of pivot-gadget: interior, ungadgeted non-Pauli spider."""
    return (
        diagram._types[b] is VertexType.Z
        and not _stored_pauli(diagram._phases[b])
        and _ungadgeted_hh_z_neighborhood(diagram, b)
    )


def pivot_gadget_step(diagram: ZXDiagram, a: int, b: int) -> None:
    """Gadgetize the non-Pauli partner ``b``, then pivot along ``(a, b)``."""
    _gadgetize(diagram, b)
    pivot_step(diagram, a, b)


def _pivot_boundary_partner_applicable(diagram: ZXDiagram, b: int) -> bool:
    """Partner side of pivot-boundary: a boundary-adjacent Pauli spider
    whose remaining neighbors are all Z spiders."""
    if not (
        diagram._types[b] is VertexType.Z
        and _stored_pauli(diagram._phases[b])
    ):
        return False
    types = diagram._types
    boundary_adjacent = False
    for neighbor in diagram._adjacency[b]:
        neighbor_type = types[neighbor]
        if neighbor_type is VertexType.BOUNDARY:
            boundary_adjacent = True
        elif neighbor_type is not VertexType.Z:
            return False
    return boundary_adjacent


def pivot_boundary_step(diagram: ZXDiagram, a: int, b: int) -> None:
    """Buffer ``b``'s boundary wires with fresh spiders, then pivot.

    The buffering makes ``b`` interior with all-Hadamard edges, so the
    regular pivot applies.
    """
    for boundary in [
        n for n in diagram.neighbors(b) if diagram.is_boundary(n)
    ]:
        wire_type = diagram.edge_type(b, boundary)
        buffer = diagram.add_vertex(VertexType.Z)
        diagram.disconnect(b, boundary)
        diagram.connect(b, buffer, EdgeType.HADAMARD)
        diagram.connect(
            buffer,
            boundary,
            EdgeType.SIMPLE
            if wire_type is EdgeType.HADAMARD
            else EdgeType.HADAMARD,
        )
    pivot_step(diagram, a, b)


# ---------------------------------------------------------------------------
# phase-gadget fusion
# ---------------------------------------------------------------------------
def _gadget_shape(
    diagram: ZXDiagram, leaf: int
) -> Optional[Tuple[int, FrozenSet[int]]]:
    """``(axis, support)`` if ``leaf`` hangs off a fusable phase gadget.

    As a side effect, an axis phase of pi is normalized into the leaf
    (negating its phase) so that equal-support gadgets always fuse by
    adding leaf phases.
    """
    if not _is_gadget_leaf(diagram, leaf):
        return None
    (axis,) = diagram.neighbor_view(leaf)
    if not _all_hadamard(diagram, axis):
        return None
    if not _stored_pauli(diagram.phase(axis)):
        return None
    support = frozenset(diagram.neighbor_view(axis)) - {leaf}
    if any(diagram.is_boundary(s) for s in support):
        return None
    if diagram.phase(axis) == _ONE:
        diagram.set_phase(axis, _ZERO)
        diagram.set_phase(leaf, negate_phase(diagram.phase(leaf)))
    return axis, support


def gadget_fuse_step(
    diagram: ZXDiagram, keep_leaf: int, merge_axis: int, merge_leaf: int
) -> None:
    """Fuse gadget ``(merge_axis, merge_leaf)`` into the one at ``keep_leaf``."""
    diagram.add_to_phase(keep_leaf, diagram.phase(merge_leaf))
    diagram.remove_vertex(merge_leaf)
    diagram.remove_vertex(merge_axis)


# ---------------------------------------------------------------------------
# the worklist schedule
# ---------------------------------------------------------------------------
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
        self.drop_gadgets((vertex,))

    def drop_gadgets(self, axes: Iterable[int]) -> None:
        """Unregister the gadgets cached under any of ``axes``."""
        supports = self.gadget_supports
        for axis in axes:
            key = self._axis_key.pop(axis, None)
            if key is not None:
                entry = supports.get(key)
                if entry is not None and entry[0] == axis:
                    del supports[key]

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
            # — the _stored_pauli / _stored_proper_clifford tests, inlined
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
    tracker.drop_gadgets(candidates)
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


def _with_tracker(diagram: ZXDiagram, deadline, body) -> int:
    """Graph-like normalization, tracker attach/run/detach."""
    to_graph_like(diagram, deadline=deadline)
    tracker = DirtyTracker(diagram)
    diagram.attach_tracker(tracker)
    try:
        return body(tracker)
    finally:
        diagram.detach_tracker()


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------
def simplify_rule(
    diagram: ZXDiagram, rule: str, deadline=None, counters=None
) -> int:
    """Drive the single rule ``rule`` (one of :data:`RULES`) to fixpoint.

    Converts to graph-like form first, like every pipeline; returns the
    number of rewrites.  The pipelines below interleave the rules — this
    entry point isolates one of them (per-rule tests, pipeline ablations).
    """
    return _with_tracker(
        diagram,
        deadline,
        lambda tracker: _run_rule(diagram, tracker, rule, deadline, counters),
    )


def interior_clifford_simp(
    diagram: ZXDiagram, deadline=None, counters=None
) -> int:
    """Spider fusion + identity + pivoting + local complementation loop."""
    return _with_tracker(
        diagram,
        deadline,
        lambda tracker: _interior_clifford(
            diagram, tracker, deadline, counters
        ),
    )


def clifford_simp(diagram: ZXDiagram, deadline=None, counters=None) -> int:
    """Interior Clifford simplification plus boundary pivots."""
    return _with_tracker(
        diagram,
        deadline,
        lambda tracker: _clifford(diagram, tracker, deadline, counters),
    )


def full_reduce(
    diagram: ZXDiagram,
    max_rounds: int = 10_000,
    deadline=None,
    counters=None,
) -> int:
    """The full simplification strategy (PyZX's ``full_reduce``).

    Returns the total number of rewrite applications.  Termination is
    guaranteed because every constituent strictly reduces a well-founded
    measure; ``max_rounds`` is a safety backstop only.  After the initial
    sweep (every rule's dirty set starts full) each pass only examines
    vertices whose neighborhood a rewrite actually changed, so the
    quiescent passes degenerate to empty-set checks.

    ``counters``, when given, is a :class:`repro.perf.PerfCounters`-style
    object that receives per-rule ``zx.<rule>.candidates`` /
    ``zx.<rule>.rewrites`` counts plus ``zx.rounds``.
    """
    # An expired deadline must fire even when the diagram offers no
    # matches (the per-rule checks only run inside match loops).
    _check_deadline(deadline)

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

    return _with_tracker(diagram, deadline, body)


# ---------------------------------------------------------------------------
# numerical single-qubit chain contraction (reproduction extension)
# ---------------------------------------------------------------------------
def contract_unitary_chains(
    diagram: ZXDiagram, tolerance: float = 1e-9, deadline=None
) -> int:
    """Remove degree-2 spider chains that multiply out to a wire or an H.

    After ``full_reduce``, a pair of circuits whose single-qubit gates were
    *decomposed with different Euler conventions* can leave a chain of
    degree-2 Z spiders with float phases on one wire — algebraically the
    identity, but invisible to the symbolic graph rules (PyZX exhibits the
    same residue; the paper sidesteps it by compiling both circuits with
    the same toolchain).  This pass multiplies each maximal degree-2 chain
    out numerically: if the resulting 2x2 unitary is the identity (up to
    global phase and ``tolerance``) the chain is replaced by a bare wire;
    if it is the Hadamard, by a Hadamard wire.  Returns chains removed.
    """
    import cmath
    import math

    removed = 0
    changed = True
    while changed:
        changed = False
        for start in list(diagram.vertices()):
            _check_deadline(deadline)
            if start not in diagram._types:
                continue
            if diagram.vertex_type(start) is not VertexType.Z:
                continue
            if diagram.degree(start) != 2:
                continue
            # walk left and right to the anchors
            chain = [start]
            ends = []
            # repro: allow(deadline-loop): exactly two directions
            for direction in (0, 1):
                previous = start
                current = diagram.neighbors(start)[direction]
                # repro: allow(deadline-loop): bounded walk along a degree-2 chain
                while (
                    current not in ends
                    and diagram.vertex_type(current) is VertexType.Z
                    and diagram.degree(current) == 2
                    and current != start
                ):
                    chain.append(current)
                    nxt = [
                        n for n in diagram.neighbors(current) if n != previous
                    ][0]
                    previous, current = current, nxt
                ends.append((previous, current))
            (left_prev, left_anchor), (right_prev, right_anchor) = ends
            if left_anchor == right_anchor or left_anchor in chain or right_anchor in chain:
                continue  # loop or degenerate
            if any(
                isinstance(diagram.phase(v), SymbolicPhase) for v in chain
            ):
                continue  # symbolic phases cannot be multiplied out

            if diagram.connected(left_anchor, right_anchor):
                continue  # would need parallel-edge resolution; skip
            # multiply the chain out, walking from left anchor to right
            matrix = [[1 + 0j, 0j], [0j, 1 + 0j]]

            def apply_h(m):
                s = 1 / math.sqrt(2.0)
                return [
                    [s * (m[0][0] + m[1][0]), s * (m[0][1] + m[1][1])],
                    [s * (m[0][0] - m[1][0]), s * (m[0][1] - m[1][1])],
                ]

            def apply_phase(m, phase):
                factor = cmath.exp(1j * math.pi * float(phase))
                return [m[0], [factor * m[1][0], factor * m[1][1]]]

            # order the chain from left anchor inwards
            ordered = []
            previous, current = left_anchor, left_prev
            # left_prev is the chain vertex adjacent to left_anchor
            # repro: allow(deadline-loop): re-walks the chain found above
            while current != right_anchor:
                ordered.append((previous, current))
                nxt = [n for n in diagram.neighbors(current) if n != previous][0]
                previous, current = current, nxt
            ordered.append((previous, current))  # final edge into right anchor
            # repro: allow(deadline-loop): bounded by the chain just walked
            for edge_from, edge_to in ordered:
                if diagram.edge_type(edge_from, edge_to) is EdgeType.HADAMARD:
                    matrix = apply_h(matrix)
                if edge_to != right_anchor:
                    matrix = apply_phase(matrix, diagram.phase(edge_to))
            # classify: identity or Hadamard up to phase?
            def proportional(m, target):
                ref = None
                for r in (0, 1):
                    for c in (0, 1):
                        if abs(target[r][c]) > 0.5:
                            if ref is None:
                                ref = m[r][c] / target[r][c]
                            elif abs(m[r][c] / target[r][c] - ref) > tolerance:
                                return False
                        elif abs(m[r][c]) > tolerance:
                            return False
                # any non-zero proportionality constant qualifies: the ZX
                # engine does not track global scalars
                return ref is not None and abs(ref) > tolerance

            identity = [[1, 0], [0, 1]]
            hadamard = [[1, 1], [1, -1]]
            if proportional(matrix, identity):
                new_edge = EdgeType.SIMPLE
            elif proportional(matrix, hadamard):
                new_edge = EdgeType.HADAMARD
            else:
                continue
            # repro: allow(deadline-loop): bounded by the chain just walked
            for vertex in set(
                v for _, v in ordered if v != right_anchor
            ):
                diagram.remove_vertex(vertex)
            diagram.connect(left_anchor, right_anchor, new_edge)
            removed += 1
            changed = True
            break  # vertex list is stale; restart the scan
    return removed
