"""Array-native DD package: integer handles, packed edges, id arithmetic.

This is the QMDD package (normalization, recursion structure and
memoization points of QCEC's package) over a struct-of-arrays substrate
(:mod:`repro.dd.array_store`) instead of linked node objects:

* **Nodes** are dense ``int`` handles into a :class:`NodeStore` (handle
  0 = terminal).  No node or edge objects are allocated on the hot path.
* **Edges** are single Python integers packing the target handle and the
  interned weight id of the :class:`~repro.dd.complex_table.ComplexTable`:
  ``edge = (handle << 32) | weight_id``.  The canonical zero edge is the
  literal ``0`` (terminal handle, weight id of ``0j``) and the terminal
  one-edge is the literal ``1`` — but zero *tests* always mask the weight
  id, because arithmetic can snap a weight to zero under a non-terminal
  handle (a zero edge is a pure weight test).
* **Weight arithmetic** happens on integer ids through small memo dicts
  (``mul``/``mul3``/``div``/``add``/``conj-mul``): each distinct id pair
  is computed once via the complex table and then replayed as a dict hit,
  so the recursions never re-hash complex numbers.
* **Compute tables** are slot-indexed
  :class:`~repro.dd.compute_table.ComputeTable` instances keyed on
  ``(handle, handle, ...)`` integer tuples — stable, dense, and cheap to
  hash.

Weights are interned through a :class:`ComplexTable`, so ulp-level
differences in intermediate float products are absorbed by the table's
canonical snapping; ``tests/dd/golden_dd_corpus.json`` pins the root
digests (:func:`repro.dd.export.matrix_digest`) this produces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dd.array_store import INITIAL_SLOT_CAPACITY, NodeStore
from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE
from repro.dd.compute_table import ComputeTable, DEFAULT_COMPUTE_TABLE_SIZE

#: Bits reserved for the weight id in a packed edge.
EDGE_SHIFT = 32
#: Mask extracting the weight id from a packed edge.
WEIGHT_MASK = (1 << EDGE_SHIFT) - 1

#: Weight ids of the exact constants seeded by :class:`ComplexTable`.
ZERO_ID = 0
ONE_ID = 1

#: The canonical zero edge (terminal handle, weight ``0j``).
ZERO_EDGE = 0
#: The terminal edge of weight exactly ``1`` (identity scalar).
ONE_EDGE = ONE_ID


class ArrayDDPackage:
    """Canonical vector / matrix DDs over struct-of-arrays node storage.

    Edges are packed integers (see module docstring) and node identity
    is handle equality.  The checker layer only touches edges through the
    accessors ``edge_node`` / ``edge_weight`` / ``matrix_dd_size`` /
    ``vector_dd_size``.

    Args:
        tolerance: Merging tolerance of the complex table.
        compute_table_size: Slots per compute table (``None`` = unbounded).
        complex_table: Existing table to share between packages.
        unique_table_slots: Initial open-addressed unique-table size; tiny
            values exercise the growth path in stress tests.
    """

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        compute_table_size: Optional[int] = DEFAULT_COMPUTE_TABLE_SIZE,
        complex_table: Optional[ComplexTable] = None,
        unique_table_slots: int = INITIAL_SLOT_CAPACITY,
    ) -> None:
        self.complex_table = (
            complex_table if complex_table is not None
            else ComplexTable(tolerance)
        )
        # The id->value list is hot (every weight operation resolves ids);
        # bind the live list once — ComplexTable.clear() keeps its identity.
        self._values: List[complex] = self.complex_table._values
        if (
            self.complex_table.id_of(0j) != ZERO_ID
            or self.complex_table.id_of(1 + 0j) != ONE_ID
        ):
            raise ValueError(
                "complex table must be seeded with 0j at id 0 and 1 at id 1"
            )
        self.vec = NodeStore(2, unique_table_slots)
        self.mat = NodeStore(4, unique_table_slots)
        # Id-pair memo dicts for weight arithmetic (module docstring).
        self._mul_w: Dict[Tuple[int, int], int] = {}
        self._mul3_w: Dict[Tuple[int, int, int], int] = {}
        self._div_w: Dict[Tuple[int, int], int] = {}
        self._add_w: Dict[Tuple[int, int], int] = {}
        self._conjmul_w: Dict[Tuple[int, int], int] = {}
        # |value| per weight id, extended lazily alongside the value list.
        self._abs_w: List[float] = []
        self._tables: Dict[str, ComputeTable] = {}

        def table(name: str) -> ComputeTable:
            t = ComputeTable(name, compute_table_size)
            self._tables[name] = t
            return t

        self._add_cache = table("add")
        self._add_vec_cache = table("add_vec")
        self._mul_cache = table("mul")
        self._mul_vec_cache = table("mul_vec")
        self._conj_cache = table("conj")
        self._trace_cache = table("trace")
        self._inner_cache = table("inner")
        self._apply_left_cache = table("apply_left")
        self._apply_right_cache = table("apply_right")
        self._apply_vec_cache = table("apply_vec")
        self._identity_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def tolerance(self) -> float:
        return self.complex_table.tolerance

    @property
    def matrix_nodes_created(self) -> int:
        return self.mat.num_nodes

    @property
    def vector_nodes_created(self) -> int:
        return self.vec.num_nodes

    def num_unique_matrix_nodes(self) -> int:
        """Total matrix nodes ever created by this package."""
        return self.mat.num_nodes

    def num_unique_vector_nodes(self) -> int:
        """Total vector nodes ever created by this package."""
        return self.vec.num_nodes

    def clear_compute_tables(self) -> None:
        """Drop all memoized operation results (node stores survive)."""
        for cache in self._tables.values():
            cache.clear()

    def compute_table_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/eviction counters for every compute table."""
        return {name: t.stats() for name, t in sorted(self._tables.items())}

    def store_statistics(self) -> Dict[str, Dict[str, int]]:
        """Node-store growth and unique-table probe counters."""
        return {
            "matrix_store": self.mat.stats(),
            "vector_store": self.vec.stats(),
        }

    # Edge accessors: checkers never unpack edges themselves.
    @staticmethod
    def edge_node(edge: int) -> int:
        """The node token of an edge — compare with ``==``."""
        return edge >> EDGE_SHIFT

    def edge_weight(self, edge: int) -> complex:
        """The canonical complex weight carried by an edge."""
        return self._values[edge & WEIGHT_MASK]

    def matrix_dd_size(self, edge: int) -> int:
        """Distinct non-terminal nodes reachable from a matrix edge."""
        return self._dd_size(edge, self.mat)

    def vector_dd_size(self, edge: int) -> int:
        """Distinct non-terminal nodes reachable from a vector edge."""
        return self._dd_size(edge, self.vec)

    def _dd_size(self, edge: int, store: NodeStore) -> int:
        if edge & WEIGHT_MASK == 0:
            return 0
        arity = store.arity
        children = store.children
        weights = store.weights
        seen = set()
        stack = [edge >> EDGE_SHIFT]
        while stack:
            handle = stack.pop()
            if handle == 0 or handle in seen:
                continue
            seen.add(handle)
            base = handle * arity
            for k in range(arity):
                if weights[base + k] != 0:
                    stack.append(children[base + k])
        return len(seen)

    # ------------------------------------------------------------------
    # weight-id arithmetic
    # ------------------------------------------------------------------
    def lookup(self, value: complex) -> complex:
        """Intern a complex number in the package's complex table."""
        return self.complex_table.lookup(value)

    def lookup_id(self, value: complex) -> int:
        """Intern a complex number and return its weight id."""
        return self.complex_table.lookup_id(value)

    def weight_value(self, weight_id: int) -> complex:
        """The canonical value behind a weight id."""
        return self._values[weight_id]

    def _wabs(self, wid: int) -> float:
        abs_w = self._abs_w
        if wid >= len(abs_w):
            values = self._values
            for k in range(len(abs_w), len(values)):
                abs_w.append(abs(values[k]))
        return abs_w[wid]

    def _wmul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == ONE_ID:
            return b
        if b == ONE_ID:
            return a
        key = (a, b)
        cached = self._mul_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] * values[b])
        self._mul_w[key] = result
        return result

    def _wmul3(self, a: int, b: int, c: int) -> int:
        # Single-lookup triple product ``lookup(va * vb * vc)``
        # (left-to-right).
        if a == 0 or b == 0 or c == 0:
            return 0
        if a == ONE_ID:
            return self._wmul(b, c)
        if b == ONE_ID:
            return self._wmul(a, c)
        if c == ONE_ID:
            return self._wmul(a, b)
        key = (a, b, c)
        cached = self._mul3_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] * values[b] * values[c])
        self._mul3_w[key] = result
        return result

    def _wdiv(self, a: int, b: int) -> int:
        if a == 0:
            return 0
        if b == ONE_ID:
            return a
        key = (a, b)
        cached = self._div_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] / values[b])
        self._div_w[key] = result
        return result

    def _wadd(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        key = (a, b)
        cached = self._add_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(values[a] + values[b])
        self._add_w[key] = result
        return result

    def _wconjmul(self, a: int, b: int) -> int:
        # ``lookup(va * conj(vb))`` — conjugation is exact, so only the
        # product needs interning.
        if a == 0 or b == 0:
            return 0
        if b == ONE_ID:
            return a
        key = (a, b)
        cached = self._conjmul_w.get(key)
        if cached is not None:
            return cached
        values = self._values
        result = self.complex_table.lookup_id(
            values[a] * values[b].conjugate()
        )
        self._conjmul_w[key] = result
        return result

    # ------------------------------------------------------------------
    # construction with normalization
    # ------------------------------------------------------------------
    def make_vector_node(self, level: int, edges: Sequence[int]) -> int:
        """Create (or reuse) a normalized vector node; returns its edge."""
        w0 = edges[0] & WEIGHT_MASK
        w1 = edges[1] & WEIGHT_MASK
        # Max-magnitude weight, lowest index on exact ties (the
        # normalization rule — strictly-greater comparison).
        if self._wabs(w1) > self._wabs(w0):
            max_index = 1
            norm = w1
        else:
            max_index = 0
            norm = w0
        if norm == 0:
            return ZERO_EDGE
        fields = []
        for index, (edge, wid) in enumerate(((edges[0], w0), (edges[1], w1))):
            if index == max_index:
                fields.append(edge >> EDGE_SHIFT)
                fields.append(ONE_ID)
                continue
            nw = 0 if wid == 0 else self._wdiv(wid, norm)
            if nw == 0:
                fields.append(0)
                fields.append(0)
            else:
                fields.append(edge >> EDGE_SHIFT)
                fields.append(nw)
        handle, _ = self.vec.lookup_or_insert(level, tuple(fields))
        return (handle << EDGE_SHIFT) | norm

    def make_matrix_node(self, level: int, edges: Sequence[int]) -> int:
        """Create (or reuse) a normalized matrix node; returns its edge."""
        max_index = 0
        max_mag = -1.0
        wids = []
        for index, edge in enumerate(edges):
            wid = edge & WEIGHT_MASK
            wids.append(wid)
            mag = self._wabs(wid)
            if mag > max_mag:
                max_mag = mag
                max_index = index
        norm = wids[max_index]
        if norm == 0:
            return ZERO_EDGE
        fields = []
        for index, edge in enumerate(edges):
            if index == max_index:
                fields.append(edge >> EDGE_SHIFT)
                fields.append(ONE_ID)
                continue
            wid = wids[index]
            nw = 0 if wid == 0 else self._wdiv(wid, norm)
            if nw == 0:
                fields.append(0)
                fields.append(0)
            else:
                fields.append(edge >> EDGE_SHIFT)
                fields.append(nw)
        handle, _ = self.mat.lookup_or_insert(level, tuple(fields))
        return (handle << EDGE_SHIFT) | norm

    # ------------------------------------------------------------------
    # elementary diagrams
    # ------------------------------------------------------------------
    @staticmethod
    def zero_vector_edge() -> int:
        """The zero vector (an edge of weight 0)."""
        return ZERO_EDGE

    @staticmethod
    def zero_matrix_edge() -> int:
        """The zero matrix (an edge of weight 0)."""
        return ZERO_EDGE

    def terminal_vector_edge(self, weight: complex = 1 + 0j) -> int:
        return self.complex_table.lookup_id(weight)

    def terminal_matrix_edge(self, weight: complex = 1 + 0j) -> int:
        return self.complex_table.lookup_id(weight)

    def basis_state(self, num_qubits: int, bits: int = 0) -> int:
        """The computational basis state ``|bits>`` on ``num_qubits``."""
        edge = ONE_EDGE
        for level in range(num_qubits):
            if (bits >> level) & 1:
                edge = self.make_vector_node(level, (ZERO_EDGE, edge))
            else:
                edge = self.make_vector_node(level, (edge, ZERO_EDGE))
        return edge

    def identity(self, num_qubits: int) -> int:
        """The identity matrix DD — linear in ``num_qubits``."""
        cached = self._identity_cache.get(num_qubits)
        if cached is not None:
            return cached
        edge = ONE_EDGE
        for level in range(num_qubits):
            edge = self.make_matrix_node(
                level, (edge, ZERO_EDGE, ZERO_EDGE, edge)
            )
        self._identity_cache[num_qubits] = edge
        return edge

    def layered_kron(self, num_qubits: int, factors) -> int:
        """Build ``F_{n-1} ⊗ ... ⊗ F_1 ⊗ F_0`` with identity defaults.

        ``factors`` maps qubit index to a 2x2 complex matrix; unspecified
        qubits contribute the identity.
        """
        lookup_id = self.complex_table.lookup_id
        values = self._values
        edge = ONE_EDGE
        for level in range(num_qubits):
            factor = factors.get(level)
            if factor is None:
                edge = self.make_matrix_node(
                    level, (edge, ZERO_EDGE, ZERO_EDGE, edge)
                )
                continue
            ew = edge & WEIGHT_MASK
            node_bits = (edge >> EDGE_SHIFT) << EDGE_SHIFT
            children = []
            for i in (0, 1):
                for j in (0, 1):
                    value = complex(factor[i][j])
                    if value == 0 or ew == 0:
                        children.append(ZERO_EDGE)
                    else:
                        children.append(
                            node_bits | lookup_id(value * values[ew])
                        )
            edge = self.make_matrix_node(level, children)
        return edge

    # ------------------------------------------------------------------
    # addition
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Matrix addition ``A + B``."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return b
        wb = b & WEIGHT_MASK
        if wb == 0:
            return a
        na = a >> EDGE_SHIFT
        nb = b >> EDGE_SHIFT
        if na == 0 and nb == 0:
            return self._wadd(wa, wb)
        # Canonical operand order for the cache.
        if na > nb:
            na, nb = nb, na
            wa, wb = wb, wa
        ratio = self._wdiv(wb, wa)
        key = (na, nb, ratio)
        cached = self._add_cache.get(key)
        if cached is not None:
            return ((cached >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
                cached & WEIGHT_MASK, wa
            )
        levels = self.mat.levels
        if levels[na] != levels[nb]:
            raise ValueError("cannot add diagrams of different height")
        children_arr = self.mat.children
        weights_arr = self.mat.weights
        base_a = na * 4
        base_b = nb * 4
        children = []
        for k in range(4):
            children.append(
                self.add(
                    (children_arr[base_a + k] << EDGE_SHIFT)
                    | weights_arr[base_a + k],
                    (children_arr[base_b + k] << EDGE_SHIFT)
                    | self._wmul(weights_arr[base_b + k], ratio),
                )
            )
        result = self.make_matrix_node(levels[na], children)
        self._add_cache.put(key, result)
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
            result & WEIGHT_MASK, wa
        )

    def add_vectors(self, a: int, b: int) -> int:
        """Vector addition ``|a> + |b>``."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return b
        wb = b & WEIGHT_MASK
        if wb == 0:
            return a
        na = a >> EDGE_SHIFT
        nb = b >> EDGE_SHIFT
        if na == 0 and nb == 0:
            return self._wadd(wa, wb)
        if na > nb:
            na, nb = nb, na
            wa, wb = wb, wa
        ratio = self._wdiv(wb, wa)
        key = (na, nb, ratio)
        cached = self._add_vec_cache.get(key)
        if cached is not None:
            return ((cached >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
                cached & WEIGHT_MASK, wa
            )
        levels = self.vec.levels
        if levels[na] != levels[nb]:
            raise ValueError("cannot add diagrams of different height")
        children_arr = self.vec.children
        weights_arr = self.vec.weights
        base_a = na * 2
        base_b = nb * 2
        children = []
        for k in range(2):
            children.append(
                self.add_vectors(
                    (children_arr[base_a + k] << EDGE_SHIFT)
                    | weights_arr[base_a + k],
                    (children_arr[base_b + k] << EDGE_SHIFT)
                    | self._wmul(weights_arr[base_b + k], ratio),
                )
            )
        result = self.make_vector_node(levels[na], children)
        self._add_vec_cache.put(key, result)
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(
            result & WEIGHT_MASK, wa
        )

    # ------------------------------------------------------------------
    # multiplication
    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int) -> int:
        """Matrix product ``A @ B``."""
        wa = a & WEIGHT_MASK
        wb = b & WEIGHT_MASK
        if wa == 0 or wb == 0:
            return ZERO_EDGE
        weight = self._wmul(wa, wb)
        result = self._multiply_nodes(a >> EDGE_SHIFT, b >> EDGE_SHIFT)
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _multiply_nodes(self, node_a: int, node_b: int) -> int:
        if node_a == 0 and node_b == 0:
            return ONE_EDGE
        key = (node_a, node_b)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        levels = self.mat.levels
        if levels[node_a] != levels[node_b]:
            raise ValueError("cannot multiply diagrams of different height")
        children_arr = self.mat.children
        weights_arr = self.mat.weights
        base_a = node_a * 4
        base_b = node_b * 4
        children = []
        for i in (0, 1):
            row = base_a + 2 * i
            for j in (0, 1):
                term0 = self._scaled_multiply(
                    children_arr[row], weights_arr[row],
                    children_arr[base_b + j], weights_arr[base_b + j],
                )
                term1 = self._scaled_multiply(
                    children_arr[row + 1], weights_arr[row + 1],
                    children_arr[base_b + 2 + j], weights_arr[base_b + 2 + j],
                )
                children.append(self.add(term0, term1))
        result = self.make_matrix_node(levels[node_a], children)
        self._mul_cache.put(key, result)
        return result

    def _scaled_multiply(self, an: int, aw: int, bn: int, bw: int) -> int:
        if aw == 0 or bw == 0:
            return ZERO_EDGE
        sub = self._multiply_nodes(an, bn)
        sw = sub & WEIGHT_MASK
        if sw == 0:
            return sub
        return ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul3(sw, aw, bw)

    def multiply_matrix_vector(self, a: int, v: int) -> int:
        """Matrix-vector product ``A |v>`` (DD-based simulation step)."""
        wa = a & WEIGHT_MASK
        wv = v & WEIGHT_MASK
        if wa == 0 or wv == 0:
            return ZERO_EDGE
        weight = self._wmul(wa, wv)
        result = self._multiply_mv_nodes(a >> EDGE_SHIFT, v >> EDGE_SHIFT)
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _multiply_mv_nodes(self, node_a: int, node_v: int) -> int:
        if node_a == 0 and node_v == 0:
            return ONE_EDGE
        key = (node_a, node_v)
        cached = self._mul_vec_cache.get(key)
        if cached is not None:
            return cached
        if self.mat.levels[node_a] != self.vec.levels[node_v]:
            raise ValueError("cannot multiply diagrams of different height")
        m_children = self.mat.children
        m_weights = self.mat.weights
        v_children = self.vec.children
        v_weights = self.vec.weights
        base_a = node_a * 4
        base_v = node_v * 2
        children = []
        for i in (0, 1):
            row = base_a + 2 * i
            term0 = self._scaled_multiply_mv(
                m_children[row], m_weights[row],
                v_children[base_v], v_weights[base_v],
            )
            term1 = self._scaled_multiply_mv(
                m_children[row + 1], m_weights[row + 1],
                v_children[base_v + 1], v_weights[base_v + 1],
            )
            children.append(self.add_vectors(term0, term1))
        result = self.make_vector_node(self.mat.levels[node_a], children)
        self._mul_vec_cache.put(key, result)
        return result

    def _scaled_multiply_mv(self, an: int, aw: int, vn: int, vw: int) -> int:
        if aw == 0 or vw == 0:
            return ZERO_EDGE
        sub = self._multiply_mv_nodes(an, vn)
        sw = sub & WEIGHT_MASK
        if sw == 0:
            return sub
        return ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul3(sw, aw, vw)

    # ------------------------------------------------------------------
    # direct gate application (fast-path kernels)
    # ------------------------------------------------------------------
    def apply_gate_left(self, gate: int, target: int) -> int:
        """``(I ⊗ gate) @ target`` for a compact gate diagram."""
        wg = gate & WEIGHT_MASK
        wt = target & WEIGHT_MASK
        if wg == 0 or wt == 0:
            return ZERO_EDGE
        weight = self._wmul(wg, wt)
        result = self._apply_left_nodes(
            gate >> EDGE_SHIFT, target >> EDGE_SHIFT
        )
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _apply_left_nodes(self, gate_node: int, target_node: int) -> int:
        levels = self.mat.levels
        if levels[target_node] <= levels[gate_node]:
            return self._multiply_nodes(gate_node, target_node)
        key = (gate_node, target_node)
        cached = self._apply_left_cache.get(key)
        if cached is not None:
            return cached
        children_arr = self.mat.children
        weights_arr = self.mat.weights
        base = target_node * 4
        children = []
        for k in range(4):
            ew = weights_arr[base + k]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._apply_left_nodes(gate_node, children_arr[base + k])
            sw = sub & WEIGHT_MASK
            if sw == 0:
                children.append(ZERO_EDGE)
            else:
                children.append(
                    ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(sw, ew)
                )
        result = self.make_matrix_node(levels[target_node], children)
        self._apply_left_cache.put(key, result)
        return result

    def apply_gate_right(self, target: int, gate: int) -> int:
        """``target @ (I ⊗ gate)`` for a compact gate diagram."""
        wt = target & WEIGHT_MASK
        wg = gate & WEIGHT_MASK
        if wg == 0 or wt == 0:
            return ZERO_EDGE
        weight = self._wmul(wt, wg)
        result = self._apply_right_nodes(
            target >> EDGE_SHIFT, gate >> EDGE_SHIFT
        )
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _apply_right_nodes(self, target_node: int, gate_node: int) -> int:
        levels = self.mat.levels
        if levels[target_node] <= levels[gate_node]:
            return self._multiply_nodes(target_node, gate_node)
        key = (target_node, gate_node)
        cached = self._apply_right_cache.get(key)
        if cached is not None:
            return cached
        children_arr = self.mat.children
        weights_arr = self.mat.weights
        base = target_node * 4
        children = []
        for k in range(4):
            ew = weights_arr[base + k]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._apply_right_nodes(children_arr[base + k], gate_node)
            sw = sub & WEIGHT_MASK
            if sw == 0:
                children.append(ZERO_EDGE)
            else:
                children.append(
                    ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(sw, ew)
                )
        result = self.make_matrix_node(levels[target_node], children)
        self._apply_right_cache.put(key, result)
        return result

    def apply_gate_vector(self, gate: int, state: int) -> int:
        """``(I ⊗ gate) |state>`` for a compact gate diagram."""
        wg = gate & WEIGHT_MASK
        ws = state & WEIGHT_MASK
        if wg == 0 or ws == 0:
            return ZERO_EDGE
        weight = self._wmul(wg, ws)
        result = self._apply_vec_nodes(gate >> EDGE_SHIFT, state >> EDGE_SHIFT)
        rw = result & WEIGHT_MASK
        if rw == 0:
            return result
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(rw, weight)

    def _apply_vec_nodes(self, gate_node: int, state_node: int) -> int:
        if self.vec.levels[state_node] <= self.mat.levels[gate_node]:
            return self._multiply_mv_nodes(gate_node, state_node)
        key = (gate_node, state_node)
        cached = self._apply_vec_cache.get(key)
        if cached is not None:
            return cached
        children_arr = self.vec.children
        weights_arr = self.vec.weights
        base = state_node * 2
        children = []
        for k in range(2):
            ew = weights_arr[base + k]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._apply_vec_nodes(gate_node, children_arr[base + k])
            sw = sub & WEIGHT_MASK
            if sw == 0:
                children.append(ZERO_EDGE)
            else:
                children.append(
                    ((sub >> EDGE_SHIFT) << EDGE_SHIFT) | self._wmul(sw, ew)
                )
        result = self.make_vector_node(self.vec.levels[state_node], children)
        self._apply_vec_cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    # conjugation, traces, inner products
    # ------------------------------------------------------------------
    def conjugate_transpose(self, a: int) -> int:
        """The adjoint ``A†`` of a matrix diagram."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return a
        result = self._conjugate_node(a >> EDGE_SHIFT)
        return ((result >> EDGE_SHIFT) << EDGE_SHIFT) | self._wconjmul(
            result & WEIGHT_MASK, wa
        )

    def _conjugate_node(self, node: int) -> int:
        if node == 0:
            return ONE_EDGE
        cached = self._conj_cache.get(node)
        if cached is not None:
            return cached
        children_arr = self.mat.children
        weights_arr = self.mat.weights
        base = node * 4
        children = []
        # adjoint: transpose block positions (swap 01 and 10), conjugate weights
        for k in (0, 2, 1, 3):
            ew = weights_arr[base + k]
            if ew == 0:
                children.append(ZERO_EDGE)
                continue
            sub = self._conjugate_node(children_arr[base + k])
            children.append(
                ((sub >> EDGE_SHIFT) << EDGE_SHIFT)
                | self._wconjmul(sub & WEIGHT_MASK, ew)
            )
        result = self.make_matrix_node(self.mat.levels[node], children)
        self._conj_cache.put(node, result)
        return result

    def trace(self, a: int) -> complex:
        """The trace of a matrix diagram."""
        wa = a & WEIGHT_MASK
        if wa == 0:
            return 0j
        return self._values[wa] * self._trace_node(a >> EDGE_SHIFT)

    def _trace_node(self, node: int) -> complex:
        if node == 0:
            return 1 + 0j
        cached = self._trace_cache.get(node)
        if cached is not None:
            return cached
        children_arr = self.mat.children
        weights_arr = self.mat.weights
        values = self._values
        base = node * 4
        value = 0j
        w0 = weights_arr[base]
        if w0 != 0:
            value += values[w0] * self._trace_node(children_arr[base])
        w3 = weights_arr[base + 3]
        if w3 != 0:
            value += values[w3] * self._trace_node(children_arr[base + 3])
        self._trace_cache.put(node, value)
        return value

    def inner_product(self, a: int, b: int) -> complex:
        """The inner product ``<a|b>`` of two vector diagrams."""
        wa = a & WEIGHT_MASK
        wb = b & WEIGHT_MASK
        if wa == 0 or wb == 0:
            return 0j
        values = self._values
        return (
            values[wa].conjugate()
            * values[wb]
            * self._inner_nodes(a >> EDGE_SHIFT, b >> EDGE_SHIFT)
        )

    def _inner_nodes(self, node_a: int, node_b: int) -> complex:
        if node_a == 0 and node_b == 0:
            return 1 + 0j
        key = (node_a, node_b)
        cached = self._inner_cache.get(key)
        if cached is not None:
            return cached
        children_arr = self.vec.children
        weights_arr = self.vec.weights
        values = self._values
        base_a = node_a * 2
        base_b = node_b * 2
        value = 0j
        for k in (0, 1):
            aw = weights_arr[base_a + k]
            bw = weights_arr[base_b + k]
            if aw != 0 and bw != 0:
                value += (
                    values[aw].conjugate()
                    * values[bw]
                    * self._inner_nodes(
                        children_arr[base_a + k], children_arr[base_b + k]
                    )
                )
        self._inner_cache.put(key, value)
        return value

    def fidelity(self, a: int, b: int) -> float:
        """``|<a|b>|^2`` between two (normalized) state diagrams."""
        overlap = self.inner_product(a, b)
        return abs(overlap) ** 2

    # ------------------------------------------------------------------
    # equivalence predicates
    # ------------------------------------------------------------------
    def is_identity(
        self, a: int, num_qubits: int, up_to_global_phase: bool = True
    ) -> bool:
        """Structural identity test against the canonical identity DD."""
        identity = self.identity(num_qubits)
        if a >> EDGE_SHIFT != identity >> EDGE_SHIFT:
            return False
        weight = self._values[a & WEIGHT_MASK]
        if up_to_global_phase:
            return abs(abs(weight) - 1.0) <= 16 * self.tolerance
        return abs(weight - 1.0) <= 16 * self.tolerance

    def hilbert_schmidt_fidelity(self, a: int, num_qubits: int) -> float:
        """``|tr(A)| / 2^n`` — 1.0 iff ``A`` is a global-phase identity."""
        return abs(self.trace(a)) / float(2**num_qubits)
