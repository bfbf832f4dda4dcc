"""Tests for the worklist schedule of `repro.zx.simplify`.

The :class:`DirtyTracker` candidate indexes must always mirror the live
diagram, a reduction must preserve the tensor semantics and detach its
tracker, a round applies every match that holds on the live diagram (no
claim-based deferral), every rule sees every notification, and a
deadline interrupts a round between rewrites.  The exact final diagrams
on the fuzz families and the Table-1 compiled block are pinned by
``tests/zx/test_golden_corpus.py``.
"""

import time
from fractions import Fraction

import pytest

from repro.bench import reversible
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.zx import (
    circuit_to_zx,
    diagram_to_matrix,
    diagrams_proportional,
    full_reduce,
    to_graph_like,
)
from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.simplify import (
    RULES,
    DirtyTracker,
    SimplificationTimeout,
    _pivot_round,
)
from tests.conftest import random_circuit


def _composed(circuit1, circuit2):
    return circuit_to_zx(circuit1).adjoint().compose(circuit_to_zx(circuit2))


def _variant(circuit, kind, seed):
    if kind == "equivalent":
        return circuit
    if kind == "gate_missing":
        return remove_random_gate(circuit, seed=seed)
    if kind == "flipped_cnot":
        return flip_random_cnot(circuit, seed=seed)
    raise ValueError(kind)


class TestReduction:
    @pytest.mark.parametrize("kind", [
        "equivalent", "gate_missing", "flipped_cnot",
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_tensor_proportional(self, kind, seed):
        """At 3 qubits the dense semantics are cheap enough to compare."""
        circuit = random_circuit(3, 18, seed=seed, gate_set="clifford_t")
        diagram = _composed(circuit, _variant(circuit, kind, seed))
        before = diagram_to_matrix(diagram)
        full_reduce(diagram)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)
        if kind == "equivalent":
            assert diagram.is_identity_diagram()

    def test_preserves_semantics_vs_input(self):
        circuit = random_circuit(3, 20, seed=11, gate_set="clifford_t")
        diagram = _composed(circuit, circuit)
        before = diagram_to_matrix(diagram)
        full_reduce(diagram)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_tracker_detached_after_reduce(self):
        """full_reduce must not leave its tracker attached (copy/re-reduce)."""
        circuit = random_circuit(3, 10, seed=0, gate_set="clifford_t")
        diagram = _composed(circuit, circuit)
        full_reduce(diagram)
        assert diagram._tracker is None
        # a second reduction attaches a fresh tracker without complaint
        assert full_reduce(diagram) == 0


def _recomputed_indexes(diagram):
    """Phase indexes rebuilt from scratch — the tracker's invariant."""
    pauli, clifford = set(), set()
    for vertex in diagram.vertices():
        if diagram.vertex_type(vertex) is not VertexType.Z:
            continue
        phase = diagram.phase(vertex)
        if phase == 0 or phase == 1:
            pauli.add(vertex)
        elif phase == Fraction(1, 2) or phase == Fraction(3, 2):
            clifford.add(vertex)
    return pauli, clifford


class TestDirtyTracker:
    def _tracked_diagram(self, seed=0):
        circuit = random_circuit(3, 15, seed=seed, gate_set="clifford_t")
        diagram = to_graph_like(_composed(circuit, circuit))
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        return diagram, tracker

    def test_phase_indexes_mirror_diagram(self):
        diagram, tracker = self._tracked_diagram()
        pauli, clifford = _recomputed_indexes(diagram)
        assert tracker.pauli_spiders == pauli
        assert tracker.clifford_spiders == clifford

    def test_phase_indexes_track_mutations(self):
        diagram, tracker = self._tracked_diagram()
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        diagram.set_phase(spiders[0], Fraction(1, 2))
        diagram.set_phase(spiders[1], Fraction(1, 4))
        diagram.set_phase(spiders[2], Fraction(1))
        diagram.remove_vertex(spiders[3])
        vertex = diagram.add_vertex(VertexType.Z, Fraction(3, 2))
        diagram.connect(vertex, spiders[0], EdgeType.HADAMARD)
        pauli, clifford = _recomputed_indexes(diagram)
        assert tracker.pauli_spiders == pauli
        assert tracker.clifford_spiders == clifford

    def test_mutations_dirty_every_rule(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
            assert not tracker.pending(rule)
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        diagram.add_to_phase(spiders[0], Fraction(1, 2))
        for rule in RULES:
            assert tracker.pending(rule)

    def test_drain_includes_neighbors_of_dirty(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        diagram.set_phase(spiders[0], Fraction(1, 4))
        candidates = tracker.drain("lcomp")
        assert spiders[0] in candidates
        assert set(diagram.neighbor_view(spiders[0])) <= set(candidates)

    def test_removed_vertex_dirties_former_neighbors(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        victim = next(
            v for v in diagram.vertices()
            if not diagram.is_boundary(v) and diagram.degree(v) > 0
        )
        former_neighbors = set(diagram.neighbor_view(victim))
        diagram.remove_vertex(victim)
        candidates = set(tracker.drain("id"))
        assert victim not in candidates
        assert former_neighbors <= candidates

    def test_touched_then_removed_vertex_is_never_drained(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        spiders = [
            v for v in diagram.vertices() if not diagram.is_boundary(v)
        ]
        # One vertex removed while its touch is still unflushed, one after
        # the flush into the per-rule sets.
        unflushed, flushed = spiders[0], spiders[-1]
        diagram.set_phase(unflushed, Fraction(1, 4))
        diagram.remove_vertex(unflushed)
        diagram.set_phase(flushed, Fraction(1, 4))
        assert tracker.pending("id")
        diagram.remove_vertex(flushed)
        for rule in RULES:
            candidates = tracker.drain(rule)
            assert unflushed not in candidates
            assert flushed not in candidates

    def test_edge_toggle_during_a_drain_reaches_every_rule(self):
        diagram, tracker = self._tracked_diagram()
        for rule in RULES:
            tracker.drain(rule)
        u, v = [
            w for w in diagram.vertices() if not diagram.is_boundary(w)
        ][:2]
        assert tracker.drain("pivot") == []
        diagram.toggle_hadamard_edge(u, v)
        for rule in RULES:
            assert tracker.pending(rule), rule
            assert {u, v} <= set(tracker.drain(rule)), rule

    def test_single_tracker_enforced(self):
        diagram, tracker = self._tracked_diagram()
        with pytest.raises(ValueError):
            diagram.attach_tracker(DirtyTracker(diagram))
        diagram.detach_tracker()
        diagram.attach_tracker(DirtyTracker(diagram))


def _overlapping_pivots():
    """Two interior Pauli pairs ``(u1, v1)``, ``(u2, v2)`` on two wires.

    ``u1`` and ``u2`` share the Hadamard neighbor ``w``, so the two pivot
    matches overlap; the first pivot leaves the second one intact.
    """
    diagram = ZXDiagram()
    quarter = Fraction(1, 4)
    pairs = []
    w = None
    for _ in range(2):
        b_in = diagram.add_vertex(VertexType.BOUNDARY)
        b_out = diagram.add_vertex(VertexType.BOUNDARY)
        diagram.inputs.append(b_in)
        diagram.outputs.append(b_out)
        x = diagram.add_vertex(VertexType.Z, quarter)
        y = diagram.add_vertex(VertexType.Z, quarter)
        u = diagram.add_vertex(VertexType.Z)
        v = diagram.add_vertex(VertexType.Z)
        if w is None:
            w = diagram.add_vertex(VertexType.Z, quarter)
        diagram.connect(b_in, x, EdgeType.SIMPLE)
        diagram.connect(x, u, EdgeType.HADAMARD)
        diagram.connect(u, v, EdgeType.HADAMARD)
        diagram.connect(v, y, EdgeType.HADAMARD)
        diagram.connect(y, b_out, EdgeType.SIMPLE)
        diagram.connect(u, w, EdgeType.HADAMARD)
        pairs.append((u, v))
    return diagram, pairs


class TestImmediateApplication:
    def test_overlapping_pivots_apply_in_one_round(self):
        diagram, pairs = _overlapping_pivots()
        before = diagram_to_matrix(diagram)
        tracker = DirtyTracker(diagram)
        diagram.attach_tracker(tracker)
        try:
            applied = _pivot_round(
                diagram, tracker, tracker.drain("pivot"), None, None
            )
        finally:
            diagram.detach_tracker()
        assert applied == 2
        for u, v in pairs:
            assert u not in diagram._types and v not in diagram._types
        assert diagrams_proportional(diagram_to_matrix(diagram), before)


def _hwb5_miter():
    """The composed ``G' G†`` diagram of the Table-1 ``hwb5_5`` cell."""
    original = reversible.synthesize(reversible.hidden_weighted_bit(5))
    optimized = optimize_circuit(decompose_to_basis(original), level=2)
    return _composed(original, optimized)


class TestDeadline:
    def test_deadline_interrupts_a_long_round(self):
        """hwb5's pivot-gadget round alone runs for about a second, so
        the deadline must be consulted between rewrites, not per round."""
        diagram = _hwb5_miter()
        deadline = time.monotonic() + 0.2
        with pytest.raises(SimplificationTimeout):
            full_reduce(diagram, deadline=deadline)
        assert time.monotonic() - deadline < 0.3
