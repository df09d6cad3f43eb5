"""Adapted bases, markings, local blow-up maps, pulled-back kernels.

A chart is a nested set together with a marking of an adapted basis: for
every member g one tree-edge coordinate x_g (the marked slot) carries the
local scale of g.  The blow-down multiplies every coordinate by the marked
scales of all members containing it; the kernel f is the pulled-back
propagator product with those common scales divided out, so it stays
finite as marked coordinates go to zero.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GraphError
from .graphs import (Graph, SpanningTree, Subgraph, a_dim,
                     adapted_spanning_tree, edges_below, tree_path)
from .lattice import BuildingSet, NestedSet, enumerate_nested_sets, is_nested


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


def adapted_basis(tree: SpanningTree) -> AdaptedBasis:
    """Build the coordinate system attached to a spanning tree."""
    graph = tree.parent
    d = graph.dim
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

    def chart_id(self) -> str:
        """Member labels with their marked coordinates."""
        return ";".join(mark_label(g, mark)
                        for g, mark in zip(self.nested, self.marks))


def mark_label(g: Subgraph, mark: tuple[int, int]) -> str:
    """Piece of a chart id: member g marked at (tree edge, component)."""
    e, i = mark
    return f"{g.label()}:e{e}.{i}"


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


def enumerate_charts(building: BuildingSet) -> ChartSequence:
    """All (nested set, marking) pairs for the building set, using one
    spanning tree adapted to every building-set member.

    The charts are counted from the sizes of the marking options and each
    is built only when it is indexed or iterated (see ``ChartSequence``).
    A missing adapted tree is raised before refused nested sets."""
    basis = building_basis(building)
    return ChartSequence(basis, tuple(marking_options(
        basis, enumerate_nested_sets(building))))


def charts_of(building: BuildingSet,
              nested_sets: Sequence[NestedSet]) -> ChartSequence:
    """``enumerate_charts`` over nested sets already enumerated: the
    product of the marking options of each nested set, counted from the
    product sizes and built on access.

    The basis and every marking option are computed and checked here, so
    ``AdaptedTreeNotFound`` and ``GraphError`` are raised by this call,
    before any chart is read."""
    basis = building_basis(building)
    return ChartSequence(basis, tuple(marking_options(basis, nested_sets)))


class ChartSequence(Sequence):
    """Read-only sequence of the charts of some nested sets on one basis.

    ``groups`` holds each nested set's members with the marking options
    of every member; its charts are the ``itertools.product`` of the
    options, in that order.  The length is the sum of the product sizes;
    a chart is built when it is iterated or indexed, by decoding the
    index in the running sums and then in mixed radix over the options.
    A slice returns a list of charts."""

    def __init__(self, basis: AdaptedBasis,
                 groups: tuple[tuple[tuple[Subgraph, ...],
                                     list[list[tuple[int, int]]]], ...]):
        self.basis = basis
        self.groups = groups
        self._starts = list(itertools.accumulate(
            (math.prod(map(len, options)) for _, options in groups),
            initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self) -> Iterator[Chart]:
        make, basis = Chart._checked_already, self.basis
        for members, options in self.groups:
            for marks in itertools.product(*options):
                yield make(members, basis, marks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("chart index out of range")
        k = bisect.bisect_right(self._starts, i) - 1
        members, options = self.groups[k]
        rest = i - self._starts[k]
        marks = []
        for opts in reversed(options):
            rest, j = divmod(rest, len(opts))
            marks.append(opts[j])
        return Chart._checked_already(members, self.basis,
                                      tuple(reversed(marks)))


def building_basis(building: BuildingSet) -> AdaptedBasis:
    """The one adapted basis of the building set's charts: a spanning tree
    adapted to every building-set member."""
    graph = building.base.parent
    return adapted_basis(adapted_spanning_tree(graph, list(building.members)))


def marking_options(basis: AdaptedBasis, nested_sets: Sequence[NestedSet],
                    ) -> Iterator[tuple[tuple[Subgraph, ...],
                                        list[list[tuple[int, int]]]]]:
    """Yield the members of each nested set with the marking options of
    every member, in chart order.

    The options of a member are its (tree edge, component) pairs outside
    its lower members; they are checked once per nested set, so every
    marking in their product is admissible."""
    for ns in nested_sets:
        members = ns.members
        options = []
        for g in members:
            allowed = _allowed_edges(basis, g, members)
            if not allowed:
                raise GraphError(f"no admissible marked edge for "
                                 f"{g.label()}")
            options.append([(e, i) for e in allowed
                            for i in range(basis.dim)])
        _check_marking(members, basis, options)
        yield members, options


def _allowed_edges(basis: AdaptedBasis, g: Subgraph,
                   members: Sequence[Subgraph]) -> list[int]:
    """Tree edges of g in none of its lower members, ascending."""
    return sorted((basis.tree.edge_set & g.edge_set)
                  - edges_below(g, members))


def chart_for(building: BuildingSet, nested_members: Sequence[Subgraph],
              marks: Optional[Sequence[tuple[int, int]]] = None) -> Chart:
    """Chart of one nested set (else GraphError), lowest marking by default."""
    if not is_nested(building, nested_members):
        raise GraphError("chart members must form a nested set")
    basis = building_basis(building)
    members = tuple(sorted(nested_members,
                           key=lambda s: (len(s.edge_set), s.sorted_edges)))
    if marks is None:
        marks = [(_allowed_edges(basis, g, members)[0], 0) for g in members]
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

    def _marked_scales(self, x: np.ndarray) -> list:
        """Marked scale of every member: its marked column of x."""
        cols = x.T
        return [cols[m] for m in self.marked]

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

    def f(self, x, s: float = 1.0) -> np.ndarray:
        """Pulled-back kernel with the common marked scales divided out."""
        x = self._as_batch(x)
        scales = self._marked_scales(x)
        expo = s * (2.0 - self.d) / 2.0
        total = np.ones(x.shape[0])
        for r in self._squared_norms(x, range(self.n_edges), scales):
            total = total * r ** expo
        return total

    def v_edges(self, y, edges, s: float = 1.0) -> np.ndarray:
        """Plain kernel in tree coordinates (no blow-up, no marking),
        restricted to a subset of edges."""
        y = self._as_batch(y)
        expo = s * (2.0 - self.d) / 2.0
        total = np.ones(y.shape[0])
        for r in self._squared_norms(y, edges):
            total = total * r ** expo
        return total

    def u(self, x, s: float = 1.0) -> np.ndarray:
        """Product of the marked-coordinate powers |x_g|^(-1+d_g(1-s)); at
        s = 0 it is the Jacobian of the blow-down, prod |x_g|^(d_g - 1)."""
        x = self._as_batch(x)
        out = np.ones(x.shape[0])
        for k, g in enumerate(self.members):
            expo = -1.0 + a_dim(g) * (1.0 - s)
            out = out * np.abs(x[:, self.marked[k]]) ** expo
        return out


def pullback_exponents(chart: Chart) -> dict[Subgraph, AffineExponent]:
    """Exponent of |x_g| in the pulled-back density: -1 + d_g + s(2-d)|E(g)|.

    On the divergent lattice this equals -1 + d_g(1-s)."""
    return {g: member_exponent(g, chart.dim) for g in chart.nested}


def member_exponent(g: Subgraph, dim: int) -> AffineExponent:
    """``pullback_exponents`` of member g of a chart in dimension dim."""
    return AffineExponent(constant=-1 + a_dim(g),
                          s_coefficient=(2 - dim) * len(g.edge_set))


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
