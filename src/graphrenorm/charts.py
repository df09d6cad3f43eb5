"""Adapted bases, markings, local blow-up maps, pulled-back kernels.

A chart is a nested set together with a marking of an adapted basis: for
every member g one tree-edge coordinate x_g (the marked slot) carries the
local scale of g.  The blow-down multiplies every coordinate by the marked
scales of all members containing it; the kernel f is the pulled-back
propagator product with those common scales divided out, so it stays
finite as marked coordinates go to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphError, KernelDomainError
from .graphs import (Graph, SpanningTree, Subgraph, a_dim,
                     adapted_spanning_tree, edges_below, tree_path)
from .lattice import BuildingSet, NestedSet, enumerate_nested_sets


@dataclass(frozen=True)
class AdaptedBasis:
    """Coordinates (tree edge, component) in lexicographic order, plus the
    signed tree-path expansion of every non-tree edge."""

    tree: SpanningTree
    dim: int
    coordinates: tuple[tuple[int, int], ...]
    expansions: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def expansion(self, edge: int) -> tuple[tuple[int, int], ...]:
        for e, path in self.expansions:
            if e == edge:
                return path
        raise GraphError(f"edge {edge} is a tree edge")


def adapted_basis(tree: SpanningTree, dim: Optional[int] = None,
                  ) -> AdaptedBasis:
    """Build the coordinate system attached to a spanning tree."""
    graph = tree.parent
    d = graph.dim if dim is None else dim
    tree_edges = tuple(sorted(tree.edge_set))
    coords = tuple((e, i) for e in tree_edges for i in range(d))
    expansions = []
    for e in range(graph.n_edges):
        if e in tree.edge_set:
            continue
        path = tuple(tree_path(graph, tree.edge_set, e))
        expansions.append((e, path))
    return AdaptedBasis(tree, d, coords, tuple(expansions))


@dataclass(frozen=True)
class AffineExponent:
    """Exponent constant + s_coefficient * s of a marked coordinate."""

    constant: int
    s_coefficient: int

    def value(self, s: float) -> float:
        return self.constant + self.s_coefficient * s


@dataclass(frozen=True)
class Chart:
    """Nested set + adapted basis + marking.

    ``marks`` is aligned with ``nested``; each entry is a (tree edge,
    component) pair lying in that member but in none of its lower members.
    """

    nested: tuple[Subgraph, ...]
    basis: AdaptedBasis
    marks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_marking(self.nested, self.basis, [[m] for m in self.marks])

    @classmethod
    def _checked_already(cls, nested: tuple[Subgraph, ...],
                         basis: AdaptedBasis,
                         marks: tuple[tuple[int, int], ...]) -> "Chart":
        """A chart whose marking has passed ``_check_marking``."""
        chart = object.__new__(cls)
        object.__setattr__(chart, "nested", nested)
        object.__setattr__(chart, "basis", basis)
        object.__setattr__(chart, "marks", marks)
        return chart

    @property
    def graph(self) -> Graph:
        return self.basis.tree.parent

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def n_coords(self) -> int:
        return len(self.basis.coordinates)

    def coord_index(self, edge: int, comp: int) -> int:
        return self.basis.coordinates.index((edge, comp))

    def marked_index(self, g: Subgraph) -> int:
        e, i = self.marks[self.nested.index(g)]
        return self.coord_index(e, i)

    def chart_id(self, labels: Optional[Sequence[str]] = None) -> str:
        """Member labels with their marked coordinates; ``labels`` are the
        members' labels when the caller already has them."""
        if labels is None:
            labels = [g.label() for g in self.nested]
        return ";".join(f"{label}:e{e}.{i}"
                        for label, (e, i) in zip(labels, self.marks))


def _check_marking(nested: Sequence[Subgraph], basis: AdaptedBasis,
                   options: Sequence[Sequence[tuple[int, int]]]) -> None:
    """Raise GraphError unless every marking that picks one (tree edge,
    component) pair from ``options[k]`` for ``nested[k]`` is admissible.

    Each pair must be a tree edge of its member lying in none of the
    member's lower members, with its component in range, and the option
    lists must be pairwise disjoint, so that marked coordinates are
    distinct.  A chart's own marking is the case of one option per member.
    """
    tset = basis.tree.edge_set
    used: set[tuple[int, int]] = set()
    for g, opts in zip(nested, options):
        below = edges_below(g, nested)
        for e, i in opts:
            if e not in tset or e not in g.edge_set:
                raise GraphError(f"marked edge {e} not a tree edge of "
                                 f"{g.label()}")
            if e in below:
                raise GraphError(f"marked edge {e} lies in a lower member")
            if not 0 <= i < basis.dim:
                raise GraphError("marked component out of range")
        if not used.isdisjoint(opts):
            raise GraphError("marked coordinates must be distinct")
        used.update(opts)


def enumerate_charts(building: BuildingSet) -> list[Chart]:
    """All (nested set, marking) pairs for the building set, using one
    spanning tree adapted to every building-set member."""
    return charts_of(building, enumerate_nested_sets(building))


def charts_of(building: BuildingSet,
              nested_sets: Sequence[NestedSet]) -> list[Chart]:
    """``enumerate_charts`` over nested sets already enumerated.

    The marking options of each nested set are checked once; every
    marking in their product is then admissible."""
    graph = building.base.parent
    tree = adapted_spanning_tree(graph, list(building.members))
    basis = adapted_basis(tree)
    make = Chart._checked_already
    charts = []
    for ns in nested_sets:
        members = ns.members
        options = []
        for g in members:
            allowed = sorted((tree.edge_set & g.edge_set)
                             - edges_below(g, members))
            if not allowed:
                raise GraphError(f"no admissible marked edge for "
                                 f"{g.label()}")
            options.append([(e, i) for e in allowed
                            for i in range(basis.dim)])
        _check_marking(members, basis, options)
        charts.extend(make(members, basis, marks)
                      for marks in itertools.product(*options))
    return charts


def chart_for(building: BuildingSet, nested_members: Sequence[Subgraph],
              marks: Optional[Sequence[tuple[int, int]]] = None) -> Chart:
    """Chart for one nested set; defaults to the lowest admissible marking."""
    graph = building.base.parent
    tree = adapted_spanning_tree(graph, list(building.members))
    basis = adapted_basis(tree)
    members = tuple(sorted(nested_members,
                           key=lambda s: (len(s.edge_set), s.sorted_edges)))
    if marks is None:
        chosen = []
        for g in members:
            allowed = sorted((tree.edge_set & g.edge_set)
                             - edges_below(g, members))
            chosen.append((allowed[0], 0))
        marks = chosen
    return Chart(members, basis, tuple(marks))


# ---------------------------------------------------------------------------
# compiled numeric kernels
# ---------------------------------------------------------------------------

class ChartKernel:
    """Vectorized evaluation of the blow-down and the pulled-back kernel.

    Points are arrays of shape (n, n_coords) ordered like
    ``basis.coordinates``.

    ``f`` and ``v_edges`` share one evaluation plan: every component of
    every edge argument is a signed sum of coordinate columns, each
    multiplied by the marked scales of the members containing its tree
    edge but not the edge itself.  The kernel works column by column and
    is bit-identical to assembling each argument as an (n, d) array and
    taking ``np.sum(arg * arg, axis=1)``: for d < 8 numpy adds a row's
    components left to right, which the kernel does on columns, and for
    d >= 8 the kernel calls ``np.sum`` itself.
    """

    def __init__(self, chart: Chart):
        self.chart = chart
        graph = chart.graph
        basis = chart.basis
        d = basis.dim
        self.d = d
        tree_edges = sorted(basis.tree.edge_set)
        self.block = {e: tree_edges.index(e) * d for e in tree_edges}
        self.n_coords = len(basis.coordinates)
        self.n_edges = graph.n_edges
        self.marked = [chart.marked_index(g) for g in chart.nested]
        self.members = list(chart.nested)
        # members containing each edge (always a chain inside a nested set)
        self.scaling: dict[int, list[int]] = {}
        for e in range(graph.n_edges):
            self.scaling[e] = [k for k, g in enumerate(self.members)
                               if e in g.edge_set]
        # plan[e][i]: terms (column, sign, extra members) of component i
        # of edge e's argument; extra members are those containing the
        # term's tree edge but not e.
        plan = []
        for e in range(graph.n_edges):
            path = ((e, 1),) if e in basis.tree.edge_set \
                else basis.expansion(e)
            outer = set(self.scaling[e])
            plan.append(tuple(
                tuple((self.block[te] + i, sign,
                       tuple(k for k in self.scaling[te] if k not in outer))
                      for te, sign in path)
                for i in range(d)))
        self.plan = tuple(plan)
        self._marked_columns = frozenset(self.marked)

    # -- helpers ---------------------------------------------------------

    def _as_batch(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[-1] != self.n_coords:
            raise GraphError(f"point needs {self.n_coords} coordinates")
        return arr

    def _marked_scales(self, x: np.ndarray,
                       zero_members: Sequence[int] = ()) -> list:
        """Marked scale of every member: its marked column of x, or 0.0
        for the members in ``zero_members``."""
        cols = x.T
        zeroed = {self.marked[k] for k in zero_members}
        return [0.0 if m in zeroed else cols[m] for m in self.marked]

    def _squared_norms(self, x: np.ndarray, edges, scales=None):
        """Yield the squared norm of the argument of every edge in
        ``edges``, in order.

        With ``scales`` (see ``_marked_scales``) this is the chart
        argument: a marked column reads as the constant 1 and every term
        is multiplied by its extra marked scales.  Without, it is the
        plain argument in tree coordinates."""
        cols = x.T
        n = x.shape[0]
        marked = self._marked_columns if scales is not None else ()
        for e in edges:
            squares = []
            for terms in self.plan[e]:
                comp = None
                for c, sign, extra in terms:
                    piece = None if c in marked else cols[c]
                    if scales is not None:
                        for k in extra:
                            piece = scales[k] if piece is None \
                                else piece * scales[k]
                    if piece is None:
                        piece = 1.0
                    if comp is None:
                        comp = piece if sign > 0 else -piece
                    else:
                        comp = comp + piece if sign > 0 else comp - piece
                squares.append(comp * comp)
            yield _row_sum(squares, n)

    # -- blow-down -------------------------------------------------------

    def rho(self, x) -> np.ndarray:
        """Multiply every coordinate by the marked scales of all members
        containing its tree edge; marked slots carry the scales alone."""
        x = self._as_batch(x)
        xhat = x.copy()
        xhat[:, self.marked] = 1.0
        y = np.empty_like(xhat)
        d = self.d
        for e, start in self.block.items():
            scale = np.ones(x.shape[0])
            for k in self.scaling[e]:
                scale = scale * x[:, self.marked[k]]
            y[:, start:start + d] = xhat[:, start:start + d] * scale[:, None]
        return y

    def f(self, x, s: float = 1.0,
          zero_members: Sequence[int] = ()) -> np.ndarray:
        """Pulled-back kernel with the common marked scales divided out;
        the marked scales of ``zero_members`` are set to zero."""
        x = self._as_batch(x)
        scales = self._marked_scales(x, zero_members)
        expo = s * (2.0 - self.d) / 2.0
        total = np.ones(x.shape[0])
        for r in self._squared_norms(x, range(self.n_edges), scales):
            total = total * r ** expo
        return total

    def v(self, y, s: float = 1.0) -> np.ndarray:
        """Plain kernel in tree coordinates (no blow-up, no marking)."""
        return self.v_edges(y, range(self.n_edges), s)

    def v_edges(self, y, edges, s: float = 1.0) -> np.ndarray:
        """Plain kernel restricted to a subset of edges."""
        y = self._as_batch(y)
        expo = s * (2.0 - self.d) / 2.0
        total = np.ones(y.shape[0])
        for r in self._squared_norms(y, edges):
            total = total * r ** expo
        return total

    def measure_factor(self, x) -> np.ndarray:
        """Jacobian factor of the blow-down: prod |x_g|^(d_g - 1)."""
        x = self._as_batch(x)
        out = np.ones(x.shape[0])
        for k, g in enumerate(self.members):
            out = out * np.abs(x[:, self.marked[k]]) ** (a_dim(g) - 1)
        return out

    def u(self, x, s: float = 1.0) -> np.ndarray:
        """Product of the marked-coordinate powers |x_g|^(-1+d_g(1-s))."""
        x = self._as_batch(x)
        out = np.ones(x.shape[0])
        for k, g in enumerate(self.members):
            expo = -1.0 + a_dim(g) * (1.0 - s)
            out = out * np.abs(x[:, self.marked[k]]) ** expo
        return out


def rho_eval(chart: Chart, x) -> np.ndarray:
    """Blow-down of a single point."""
    return ChartKernel(chart).rho(np.asarray(x, dtype=float))[0]


def pullback_exponents(chart: Chart) -> dict[Subgraph, AffineExponent]:
    """Exponent of |x_g| in the pulled-back density: -1 + d_g + s(2-d)|E(g)|.

    On the divergent lattice this equals -1 + d_g(1-s)."""
    d = chart.dim
    out = {}
    for g in chart.nested:
        out[g] = AffineExponent(constant=-1 + a_dim(g),
                                s_coefficient=(2 - d) * len(g.edge_set))
    return out


def f_kernel_eval(chart: Chart, x, s: float = 1.0) -> float:
    """Kernel value at one point; raises if a propagator argument vanishes."""
    kern = ChartKernel(chart)
    x = kern._as_batch(x)
    norms = kern._squared_norms(x, range(kern.n_edges),
                                kern._marked_scales(x))
    for e, r in enumerate(norms):
        if r[0] == 0.0:
            raise KernelDomainError(
                f"propagator argument of edge {e} vanishes", edge=e)
    return float(kern.f(x, s)[0])


def _row_sum(squares: list, n: int) -> np.ndarray:
    """Row sums of the (n, k) array with columns ``squares`` (arrays of
    length n or scalars), in ``np.sum(..., axis=1)``'s order: left to
    right for k < 8, by ``np.sum`` itself otherwise."""
    if len(squares) < 8:
        total = squares[0]
        for q in squares[1:]:
            total = total + q
        return total if isinstance(total, np.ndarray) else np.full(n, total)
    return np.sum(np.column_stack(
        [np.broadcast_to(q, (n,)) for q in squares]), axis=1)
