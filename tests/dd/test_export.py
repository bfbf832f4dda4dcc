"""Tests for DD export utilities (`repro.dd.export`)."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.circuit import ghz_example
from repro.dd import ArrayDDPackage, edge_to_matrix, edge_to_vector
from repro.dd.export import matrix_dd_to_dot
from repro.dd.gates import circuit_dd, simulate_circuit_dd


@pytest.fixture
def pkg():
    return ArrayDDPackage()


class TestDenseExport:
    def test_zero_edges(self, pkg):
        np.testing.assert_allclose(
            edge_to_matrix(pkg.zero_matrix_edge(), 2, pkg), np.zeros((4, 4))
        )
        np.testing.assert_allclose(
            edge_to_vector(pkg.zero_vector_edge(), 2, pkg), np.zeros(4)
        )

    def test_terminal_scalar(self, pkg):
        matrix = edge_to_matrix(pkg.terminal_matrix_edge(2.5 + 0j), 0, pkg)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(2.5)

    def test_sizes_of_zero(self, pkg):
        assert pkg.matrix_dd_size(pkg.zero_matrix_edge()) == 0


class TestDotExport:
    def test_ghz_dot_structure(self, pkg):
        dot = matrix_dd_to_dot(circuit_dd(pkg, ghz_example()), pkg, name="ghz")
        assert dot.startswith("digraph ghz {")
        assert dot.rstrip().endswith("}")
        assert "terminal" in dot
        assert 'label="q2"' in dot  # root level for a 3-qubit diagram

    def test_node_count_matches_size(self, pkg):
        edge = circuit_dd(pkg, ghz_example())
        dot = matrix_dd_to_dot(edge, pkg)
        declared_nodes = dot.count("shape=circle")
        assert declared_nodes == pkg.matrix_dd_size(edge)

    def test_zero_edge_dot(self, pkg):
        dot = matrix_dd_to_dot(pkg.zero_matrix_edge(), pkg)
        assert "root ->" not in dot

    def test_weights_in_labels(self, pkg):
        circuit = QuantumCircuit(1).h(0)
        dot = matrix_dd_to_dot(circuit_dd(pkg, circuit), pkg)
        assert "0.7071" in dot


class TestZXDotExport:
    def test_zx_dot_structure(self):
        from repro.zx import circuit_to_zx
        from repro.zx.diagram import diagram_to_dot

        diagram = circuit_to_zx(ghz_example())
        dot = diagram_to_dot(diagram, name="ghz")
        assert dot.startswith("graph ghz {")
        assert dot.count("fillcolor=green") == 2  # CX control spiders
        assert dot.count("fillcolor=red") == 2  # CX target spiders
        assert 'label="in"' in dot and 'label="out"' in dot

    def test_hadamard_edges_dashed(self):
        from repro.zx import circuit_to_zx
        from repro.zx.diagram import diagram_to_dot

        diagram = circuit_to_zx(QuantumCircuit(2).cz(0, 1))
        dot = diagram_to_dot(diagram)
        assert "style=dashed" in dot

    def test_phase_labels(self):
        from repro.zx import circuit_to_zx
        from repro.zx.diagram import diagram_to_dot

        diagram = circuit_to_zx(QuantumCircuit(1).t(0))
        assert "1/4π" in diagram_to_dot(diagram)
