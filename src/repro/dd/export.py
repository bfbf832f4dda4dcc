"""Exporting decision diagrams to dense arrays, digests and Graphviz.

Dense export is exponential and exists for testing and for the small
illustrative figures (paper Fig. 1b / Fig. 3); node counts for the
DD-growth experiments of Section 6.2 are package methods
(:meth:`~repro.dd.array_package.ArrayDDPackage.matrix_dd_size`).

Packed integer edges carry no back-pointer to their node store, so every
exporter takes the owning :class:`~repro.dd.array_package.ArrayDDPackage`
as ``pkg``.  :func:`vector_digest` / :func:`matrix_digest` hash a
diagram's structure and canonical weights into a sha256 hex string that
depends on nothing but the diagram, so digests compare across packages
and processes and can be stored in golden files.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from repro.dd.array_package import (
    ArrayDDPackage,
    EDGE_SHIFT,
    WEIGHT_MASK,
)
from repro.dd.array_store import NodeStore


def edge_to_vector(
    edge: int, num_qubits: int, pkg: ArrayDDPackage
) -> np.ndarray:
    """Expand a vector diagram into a dense ``2^n`` numpy array."""
    out = np.zeros(2**num_qubits, dtype=complex)
    _fill_vector(pkg, edge, 0, 1 + 0j, out)
    return out


def _fill_vector(
    pkg: ArrayDDPackage, edge: int, offset: int, factor: complex, out: np.ndarray
) -> None:
    wid = edge & WEIGHT_MASK
    if wid == 0:
        return
    factor = factor * pkg.weight_value(wid)
    handle = edge >> EDGE_SHIFT
    if handle == 0:
        out[offset] += factor
        return
    store = pkg.vec
    half = 1 << store.levels[handle]
    base = handle * 2
    _fill_vector(
        pkg,
        (store.children[base] << EDGE_SHIFT) | store.weights[base],
        offset, factor, out,
    )
    _fill_vector(
        pkg,
        (store.children[base + 1] << EDGE_SHIFT) | store.weights[base + 1],
        offset + half, factor, out,
    )


def edge_to_matrix(
    edge: int, num_qubits: int, pkg: ArrayDDPackage
) -> np.ndarray:
    """Expand a matrix diagram into a dense ``2^n x 2^n`` numpy array."""
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    _fill_matrix(pkg, edge, 0, 0, 1 + 0j, out)
    return out


def _fill_matrix(
    pkg: ArrayDDPackage,
    edge: int,
    row: int,
    col: int,
    factor: complex,
    out: np.ndarray,
) -> None:
    wid = edge & WEIGHT_MASK
    if wid == 0:
        return
    factor = factor * pkg.weight_value(wid)
    handle = edge >> EDGE_SHIFT
    if handle == 0:
        out[row, col] += factor
        return
    store = pkg.mat
    half = 1 << store.levels[handle]
    base = handle * 4
    for k, (dr, dc) in enumerate(((0, 0), (0, half), (half, 0), (half, half))):
        _fill_matrix(
            pkg,
            (store.children[base + k] << EDGE_SHIFT) | store.weights[base + k],
            row + dr, col + dc, factor, out,
        )


# ----------------------------------------------------------------------
# process-independent root digests
# ----------------------------------------------------------------------
def vector_digest(edge: int, pkg: ArrayDDPackage) -> str:
    """sha256 hex digest of a vector diagram's structure and weights.

    A depth-first walk hashes each node from its level and, in child
    order, each child edge's ``repr`` of the canonical weight plus the
    child's own digest (memoized per call, so shared sub-diagrams are
    hashed once).  Two diagrams have equal digests iff they have the same
    structure and bit-identical canonical weights — in any package, in
    any process.
    """
    return _digest(pkg, pkg.vec, edge)


def matrix_digest(edge: int, pkg: ArrayDDPackage) -> str:
    """sha256 hex digest of a matrix diagram (see :func:`vector_digest`)."""
    return _digest(pkg, pkg.mat, edge)


def _digest(pkg: ArrayDDPackage, store: NodeStore, edge: int) -> str:
    memo: Dict[int, str] = {0: "T"}
    arity = store.arity

    def edge_token(edge: int) -> str:
        wid = edge & WEIGHT_MASK
        if wid == 0:
            return "0"
        return f"{pkg.weight_value(wid)!r}:{node_digest(edge >> EDGE_SHIFT)}"

    def node_digest(handle: int) -> str:
        digest = memo.get(handle)
        if digest is None:
            base = handle * arity
            h = hashlib.sha256(str(store.levels[handle]).encode())
            for k in range(arity):
                child = store.children[base + k] << EDGE_SHIFT
                token = edge_token(child | store.weights[base + k])
                h.update(b"|" + token.encode())
            digest = memo[handle] = h.hexdigest()
        return digest

    return hashlib.sha256(edge_token(edge).encode()).hexdigest()


# ----------------------------------------------------------------------
# Graphviz rendering
# ----------------------------------------------------------------------
def matrix_dd_to_dot(edge: int, pkg: ArrayDDPackage, name: str = "dd") -> str:
    """Graphviz DOT rendering of a matrix decision diagram.

    Follows the visualization style of Wille et al., "Visualizing decision
    diagrams for quantum computing" (reference [37] of the paper): edge
    labels carry the complex weights, node labels the decided qubit level,
    and the four outgoing edges are ordered ``(00, 01, 10, 11)``.
    """
    store = pkg.mat
    lines = [f"digraph {name} {{", "  rankdir=TB;", '  root [shape=point];']
    ids: Dict[int, str] = {}

    def node_id(handle: int) -> str:
        if handle == 0:
            return "terminal"
        if handle not in ids:
            ids[handle] = f"n{len(ids)}"
        return ids[handle]

    def weight_label(weight: complex) -> str:
        return f"{weight.real:.4g}{weight.imag:+.4g}i"

    visited = set()

    def walk(handle: int) -> None:
        if handle == 0 or handle in visited:
            return
        visited.add(handle)
        lines.append(
            f'  {node_id(handle)} [label="q{store.levels[handle]}", '
            "shape=circle];"
        )
        base = handle * 4
        for k in range(4):
            wid = store.weights[base + k]
            if wid == 0:
                continue
            child = store.children[base + k]
            lines.append(
                f"  {node_id(handle)} -> {node_id(child)} "
                f'[label="{k >> 1}{k & 1}: '
                f'{weight_label(pkg.weight_value(wid))}"];'
            )
            walk(child)

    lines.append('  terminal [label="1", shape=box];')
    if edge & WEIGHT_MASK != 0:
        root = edge >> EDGE_SHIFT
        lines.append(
            f"  root -> {node_id(root)} "
            f'[label="{weight_label(pkg.weight_value(edge & WEIGHT_MASK))}"];'
        )
        walk(root)
    lines.append("}")
    return "\n".join(lines)
