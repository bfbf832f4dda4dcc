"""Quantum multiple-valued decision diagrams (QMDDs).

A pure-Python re-implementation of the decision-diagram package underlying
QCEC (Section 4 of the paper): edge-weighted, normalized, canonical decision
diagrams for quantum state vectors and unitary matrices, with

* a tolerance-aware *complex table* that merges numerically close edge
  weights (the mechanism whose failure under rounding errors causes the DD
  blow-up discussed in Section 6.2),
* *unique tables* that guarantee canonicity — two equal (sub-)functions are
  represented by the very same node handle, and
* *compute tables* memoizing addition, multiplication, conjugation, traces
  and inner products.

:class:`~repro.dd.array_package.ArrayDDPackage` is the engine: a
struct-of-arrays node store, packed integer edges and open-addressed
unique tables.  It operates on the shared circuit IR of
:mod:`repro.circuit`; :mod:`repro.dd.gates` builds gate and circuit
diagrams on it and :mod:`repro.dd.array_gates` adds batched column
simulation.
"""

from repro.dd.array_package import ArrayDDPackage
from repro.dd.array_store import NodeStore
from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE
from repro.dd.compute_table import ComputeTable, DEFAULT_COMPUTE_TABLE_SIZE
from repro.dd.export import (
    edge_to_matrix,
    edge_to_vector,
    matrix_digest,
    vector_digest,
)

__all__ = [
    "ArrayDDPackage",
    "ComplexTable",
    "ComputeTable",
    "DEFAULT_COMPUTE_TABLE_SIZE",
    "DEFAULT_TOLERANCE",
    "NodeStore",
    "edge_to_matrix",
    "edge_to_vector",
    "matrix_digest",
    "vector_digest",
]
