"""Unit tests for the ZX-diagram graph structure (`repro.zx.diagram`)."""

from fractions import Fraction

import pytest

from repro.zx.diagram import EdgeType, VertexType, ZXDiagram


def bare_wire() -> ZXDiagram:
    d = ZXDiagram()
    i = d.add_vertex(VertexType.BOUNDARY)
    o = d.add_vertex(VertexType.BOUNDARY)
    d.connect(i, o)
    d.inputs, d.outputs = [i], [o]
    return d


class TestVerticesAndEdges:
    def test_add_remove_vertex(self):
        d = ZXDiagram()
        v = d.add_vertex(VertexType.Z, Fraction(1, 2))
        assert d.num_vertices == 1
        assert d.phase(v) == Fraction(1, 2)
        d.remove_vertex(v)
        assert d.num_vertices == 0

    def test_remove_vertex_clears_edges(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        b = d.add_vertex(VertexType.Z)
        d.connect(a, b)
        d.remove_vertex(a)
        assert d.degree(b) == 0

    def test_duplicate_edge_rejected(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        b = d.add_vertex(VertexType.Z)
        d.connect(a, b)
        with pytest.raises(ValueError):
            d.connect(a, b)

    def test_self_loop_rejected(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        with pytest.raises(ValueError):
            d.connect(a, a)

    def test_edges_iteration(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        b = d.add_vertex(VertexType.X)
        d.connect(a, b, EdgeType.HADAMARD)
        assert list(d.edges()) == [(a, b, EdgeType.HADAMARD)]
        assert d.num_edges == 1

    def test_phase_arithmetic(self):
        d = ZXDiagram()
        v = d.add_vertex(VertexType.Z, Fraction(1, 4))
        d.add_to_phase(v, Fraction(1, 4))
        assert d.phase(v) == Fraction(1, 2)

    def test_num_spiders_excludes_boundaries(self):
        d = bare_wire()
        assert d.num_spiders == 0
        d2 = ZXDiagram()
        d2.add_vertex(VertexType.Z)
        assert d2.num_spiders == 1

    def test_interior(self):
        d = ZXDiagram()
        b = d.add_vertex(VertexType.BOUNDARY)
        v = d.add_vertex(VertexType.Z)
        w = d.add_vertex(VertexType.Z)
        d.connect(b, v)
        d.connect(v, w)
        assert not d.is_interior(v)
        assert d.is_interior(w)


class TestToggleHadamard:
    def test_toggle_creates_and_cancels(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        b = d.add_vertex(VertexType.Z)
        d.toggle_hadamard_edge(a, b)
        assert d.edge_type(a, b) is EdgeType.HADAMARD
        d.toggle_hadamard_edge(a, b)
        assert not d.connected(a, b)

    def test_self_toggle_adds_pi(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        d.toggle_hadamard_edge(a, a)
        assert d.phase(a) == Fraction(1)

    def test_toggle_on_simple_edge_rejected(self):
        d = ZXDiagram()
        a = d.add_vertex(VertexType.Z)
        b = d.add_vertex(VertexType.Z)
        d.connect(a, b, EdgeType.SIMPLE)
        with pytest.raises(ValueError):
            d.toggle_hadamard_edge(a, b)


class TestStructuralOps:
    def test_copy_independent(self):
        d = bare_wire()
        clone = d.copy()
        clone.add_vertex(VertexType.Z)
        assert clone.num_vertices == d.num_vertices + 1

    def test_adjoint_negates_phases_and_swaps_io(self):
        d = ZXDiagram()
        i = d.add_vertex(VertexType.BOUNDARY)
        v = d.add_vertex(VertexType.Z, Fraction(1, 4))
        o = d.add_vertex(VertexType.BOUNDARY)
        d.connect(i, v)
        d.connect(v, o)
        d.inputs, d.outputs = [i], [o]
        adj = d.adjoint()
        assert adj.phase(v) == Fraction(7, 4)
        assert adj.inputs == [o]
        assert adj.outputs == [i]

    def test_compose_arity_mismatch_rejected(self):
        d = bare_wire()
        two = ZXDiagram()
        for _ in range(2):
            i = two.add_vertex(VertexType.BOUNDARY)
            o = two.add_vertex(VertexType.BOUNDARY)
            two.connect(i, o)
            two.inputs.append(i)
            two.outputs.append(o)
        with pytest.raises(ValueError):
            d.compose(two)

    def test_compose_bare_wires(self):
        composed = bare_wire().compose(bare_wire())
        # junction spiders are phase-0 Z spiders, removable by the id rule
        from repro.zx.simplify import simplify_rule

        simplify_rule(composed, "id")
        assert composed.wire_permutation() == {0: 0}


class TestWirePermutation:
    def test_bare_wire_is_identity(self):
        assert bare_wire().is_identity_diagram()

    def test_crossed_wires(self):
        d = ZXDiagram()
        i0 = d.add_vertex(VertexType.BOUNDARY)
        i1 = d.add_vertex(VertexType.BOUNDARY)
        o0 = d.add_vertex(VertexType.BOUNDARY)
        o1 = d.add_vertex(VertexType.BOUNDARY)
        d.connect(i0, o1)
        d.connect(i1, o0)
        d.inputs, d.outputs = [i0, i1], [o0, o1]
        assert d.wire_permutation() == {0: 1, 1: 0}
        assert not d.is_identity_diagram()

    def test_hadamard_wire_is_not_permutation(self):
        d = ZXDiagram()
        i = d.add_vertex(VertexType.BOUNDARY)
        o = d.add_vertex(VertexType.BOUNDARY)
        d.connect(i, o, EdgeType.HADAMARD)
        d.inputs, d.outputs = [i], [o]
        assert d.wire_permutation() is None

    def test_leftover_spider_is_not_permutation(self):
        d = ZXDiagram()
        i = d.add_vertex(VertexType.BOUNDARY)
        v = d.add_vertex(VertexType.Z, Fraction(1, 4))
        o = d.add_vertex(VertexType.BOUNDARY)
        d.connect(i, v)
        d.connect(v, o)
        d.inputs, d.outputs = [i], [o]
        assert d.wire_permutation() is None
