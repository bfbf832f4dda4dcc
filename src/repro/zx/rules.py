"""Primitive ZX rewrite rules (the paper's Fig. 5 axioms, operationalized).

The simplification pipeline in :mod:`repro.zx.simplify` applies these rules
wholesale, scheduled by its dirty-vertex worklist; this module exposes them
one application at a time, which is what Example 6/7-style manual
derivations and the axiom-soundness tests (against the tensor semantics)
need.

Mapping to the paper's axiom names:

* ``(f)``  spider fusion                      -> :func:`fuse`
* ``(id)`` identity removal                   -> :func:`remove_identity`
* ``(h)/(hh)`` color change / H-cancellation  -> :func:`color_change`
* Hopf law (derived rule (1) in the paper)    -> :func:`hopf`
* local complementation (graph-like)          -> :func:`local_complement`
* pivot (graph-like)                          -> :func:`pivot`
"""

from __future__ import annotations

from repro.zx.diagram import EdgeType, VertexType, ZXDiagram
from repro.zx.simplify import (
    _fuse,
    lcomp_step,
    pivot_step,
)

__all__ = [
    "fuse",
    "remove_identity",
    "color_change",
    "hopf",
    "local_complement",
    "pivot",
]


def fuse(diagram: ZXDiagram, keep: int, merge: int) -> None:
    """Spider fusion — rule (f): merge two same-color spiders joined by a
    simple edge, adding their phases.

    Both vertices must be Z spiders (run in graph-like form, or recolor
    first with :func:`color_change`).
    """
    if diagram.vertex_type(keep) is not VertexType.Z or diagram.vertex_type(
        merge
    ) is not VertexType.Z:
        raise ValueError("fusion requires two Z spiders")
    if diagram.edge_type(keep, merge) is not EdgeType.SIMPLE:
        raise ValueError("fusion requires a simple connecting edge")
    _fuse(diagram, keep, merge)


def remove_identity(diagram: ZXDiagram, vertex: int) -> None:
    """Identity removal — rule (id): drop a phase-0, degree-2 spider."""
    if diagram.phase(vertex) != 0 or diagram.degree(vertex) != 2:
        raise ValueError("identity removal needs a phase-0 degree-2 spider")
    n1, n2 = diagram.neighbors(vertex)
    t1 = diagram.edge_type(vertex, n1)
    t2 = diagram.edge_type(vertex, n2)
    combined = EdgeType.SIMPLE if t1 is t2 else EdgeType.HADAMARD
    diagram.remove_vertex(vertex)
    if diagram.connected(n1, n2):
        raise ValueError("identity removal would create a parallel edge")
    diagram.connect(n1, n2, combined)


def color_change(diagram: ZXDiagram, vertex: int) -> None:
    """Color change — rules (h)/(hh): flip a spider's color and toggle the
    Hadamard-ness of every incident edge."""
    current = diagram.vertex_type(vertex)
    if current is VertexType.BOUNDARY:
        raise ValueError("cannot recolor a boundary vertex")
    diagram.set_vertex_type(
        vertex, VertexType.X if current is VertexType.Z else VertexType.Z
    )
    for neighbor in diagram.neighbors(vertex):
        edge = diagram.edge_type(vertex, neighbor)
        diagram.set_edge_type(
            vertex,
            neighbor,
            EdgeType.SIMPLE if edge is EdgeType.HADAMARD else EdgeType.HADAMARD,
        )


def hopf(diagram: ZXDiagram, u: int, v: int) -> None:
    """Hopf law: a *doubled* Hadamard edge between Z spiders cancels.

    The adjacency structure stores parallel edges implicitly (adding a
    Hadamard edge where one exists is exactly the doubled situation), so
    applying the Hopf law means removing the stored edge.  Use
    :meth:`ZXDiagram.toggle_hadamard_edge` when building rewrites; this
    explicit spelling exists for the axiom tests.
    """
    if diagram.edge_type(u, v) is not EdgeType.HADAMARD:
        raise ValueError("Hopf cancellation needs a Hadamard edge")
    diagram.disconnect(u, v)


def local_complement(diagram: ZXDiagram, vertex: int) -> None:
    """One local-complementation application (the applicability
    conditions of the ``lcomp`` rule in :mod:`repro.zx.simplify` are *not*
    re-checked here)."""
    lcomp_step(diagram, vertex)


def pivot(diagram: ZXDiagram, u: int, v: int) -> None:
    """One pivot application along the Hadamard edge ``(u, v)`` (the
    conditions of the ``pivot`` rule in :mod:`repro.zx.simplify` are not
    re-checked here)."""
    pivot_step(diagram, u, v)
