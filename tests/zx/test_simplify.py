"""Tests for the graph-like simplification pipeline (`repro.zx.simplify`)."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import QuantumCircuit, circuit_unitary
from repro.zx import (
    circuit_to_zx,
    diagram_to_matrix,
    diagrams_proportional,
    full_reduce,
    to_graph_like,
)
from repro.perf import PerfCounters
from repro.zx.diagram import EdgeType, VertexType
import repro.zx.simplify as simplify
from repro.zx.simplify import (
    RULES,
    DirtyTracker,
    SimplificationTimeout,
    _run_rule,
    clifford_simp,
    interior_clifford_simp,
    simplify_rule,
)
from tests.conftest import random_circuit


def _assert_graph_like(diagram):
    for u, v, edge_type in diagram.edges():
        u_boundary = diagram.is_boundary(u)
        v_boundary = diagram.is_boundary(v)
        if not u_boundary and not v_boundary:
            assert edge_type is EdgeType.HADAMARD, (u, v)
    for vertex in diagram.vertices():
        assert diagram.vertex_type(vertex) is not VertexType.X


class TestToGraphLike:
    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_and_semantics(self, seed):
        circuit = random_circuit(3, 15, seed=seed)
        diagram = circuit_to_zx(circuit)
        before = diagram_to_matrix(diagram)
        to_graph_like(diagram)
        _assert_graph_like(diagram)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_x_spiders_recolored(self):
        diagram = circuit_to_zx(QuantumCircuit(2).cx(0, 1))
        to_graph_like(diagram)
        for vertex in diagram.vertices():
            assert diagram.vertex_type(vertex) is not VertexType.X


class TestIndividualPasses:
    @pytest.mark.parametrize(
        "rule", ["id", "pivot", "lcomp", "pivot_gadget"]
    )
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_pass_preserves_semantics(self, rule, seed):
        circuit = random_circuit(3, 15, seed=seed)
        diagram = circuit_to_zx(circuit)
        to_graph_like(diagram)
        before = diagram_to_matrix(diagram)
        simplify_rule(diagram, rule)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_gadget_rule_merges_equal_support(self):
        # two rzz phase gadgets on the same pair of qubits
        circuit = QuantumCircuit(2).rzz(0.4, 0, 1).h(0).h(0).rzz(0.3, 0, 1)
        diagram = circuit_to_zx(circuit)
        before = diagram_to_matrix(diagram)
        to_graph_like(diagram)
        simplify_rule(diagram, "gadget")
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_counters_add_up_to_the_rewrites(self):
        circuit = random_circuit(3, 20, seed=2, gate_set="mixed")
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
        )
        counters = PerfCounters()
        applied = full_reduce(diagram, counters=counters)
        rewrites = {
            rule: counters.counters.get(f"zx.{rule}.rewrites", 0)
            for rule in RULES
        }
        assert applied > 0
        assert sum(rewrites.values()) == applied
        assert counters.counters["zx.id.candidates"] > 0
        assert counters.counters["zx.rounds"] >= 1
        assert set(counters.counters) <= {"zx.rounds"} | {
            f"zx.{rule}.{kind}"
            for rule in RULES
            for kind in ("candidates", "rewrites")
        }


class TestFullReduce:
    @pytest.mark.parametrize("gate_set", ["clifford_t", "rotations", "mixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_preserves_semantics(self, gate_set, seed):
        circuit = random_circuit(3, 15, seed=seed, gate_set=gate_set)
        diagram = circuit_to_zx(circuit)
        before = diagram_to_matrix(diagram)
        full_reduce(diagram)
        _assert_graph_like(diagram)
        assert diagrams_proportional(diagram_to_matrix(diagram), before)

    def test_clifford_circuit_reduces_fully(self):
        """Clifford ruleset completeness: G†G becomes bare wires."""
        circuit = random_circuit(4, 30, seed=9, gate_set="clifford_t")
        # strip T gates to stay Clifford
        clifford = QuantumCircuit(4)
        for op in circuit:
            if op.name not in ("t", "tdg"):
                clifford.append(op)
        diagram = (
            circuit_to_zx(clifford).adjoint().compose(circuit_to_zx(clifford))
        )
        full_reduce(diagram)
        assert diagram.is_identity_diagram()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_self_inverse_reduces_to_identity(self, seed):
        circuit = random_circuit(3, 20, seed=seed, gate_set="mixed")
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
        )
        full_reduce(diagram)
        assert diagram.is_identity_diagram()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_spider_count_non_increasing(self, seed):
        """The paper's key robustness claim for the ZX paradigm."""
        circuit = random_circuit(3, 20, seed=seed, gate_set="rotations")
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
        )
        initial = diagram.num_spiders
        full_reduce(diagram)
        assert diagram.num_spiders <= initial

    def test_deadline_raises(self):
        circuit = random_circuit(5, 200, seed=1, gate_set="mixed")
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
        )
        with pytest.raises(SimplificationTimeout):
            full_reduce(diagram, deadline=time.monotonic() - 1.0)

    def test_gadget_rule_deadline_raises(self):
        """The gadget rule's worklist loop honours the deadline even with
        no fusable gadget (called past the graph-like conversion, which
        checks the deadline on its own)."""
        circuit = QuantumCircuit(2).rzz(0.4, 0, 1).h(0).h(0).rzz(0.3, 0, 1)
        diagram = to_graph_like(circuit_to_zx(circuit))
        tracker = DirtyTracker(diagram)
        with pytest.raises(SimplificationTimeout):
            _run_rule(diagram, tracker, "gadget", time.monotonic() - 1.0, None)

    def test_graph_like_conversion_receives_the_deadline(self, monkeypatch):
        """The graph-like sweep inside full_reduce is interruptible too."""
        seen = []
        convert = simplify.to_graph_like

        def spy(diagram, deadline=None):
            seen.append(deadline)
            return convert(diagram, deadline=deadline)

        monkeypatch.setattr(simplify, "to_graph_like", spy)
        circuit = random_circuit(3, 15, seed=0)
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
        )
        deadline = time.monotonic() + 60.0
        full_reduce(diagram, deadline=deadline)
        assert seen == [deadline]

    def test_error_injected_does_not_reduce_to_identity(self):
        circuit = random_circuit(4, 30, seed=5, gate_set="mixed")
        broken_ops = list(circuit.operations)
        del broken_ops[len(broken_ops) // 2]
        broken = QuantumCircuit(4, operations=broken_ops)
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(broken))
        )
        full_reduce(diagram)
        assert not diagram.is_identity_diagram()


class TestCliffordSimp:
    def test_reports_rewrite_counts(self):
        circuit = random_circuit(3, 20, seed=2, gate_set="clifford_t")
        diagram = (
            circuit_to_zx(circuit).adjoint().compose(circuit_to_zx(circuit))
        )
        applied = interior_clifford_simp(diagram)
        assert applied > 0
        # running again finds nothing new
        assert clifford_simp(diagram) >= 0
