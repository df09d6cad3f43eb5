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
from .lattice import BuildingSet, enumerate_nested_sets


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
        tset = self.basis.tree.edge_set
        used = set()
        for g, (e, i) in zip(self.nested, self.marks):
            if e not in tset or e not in g.edge_set:
                raise GraphError(f"marked edge {e} not a tree edge of "
                                 f"{g.label()}")
            if e in edges_below(g, self.nested):
                raise GraphError(f"marked edge {e} lies in a lower member")
            if not 0 <= i < self.basis.dim:
                raise GraphError("marked component out of range")
            if (e, i) in used:
                raise GraphError("marked coordinates must be distinct")
            used.add((e, i))

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
        parts = []
        for g, (e, i) in zip(self.nested, self.marks):
            parts.append(f"{g.label()}:e{e}.{i}")
        return ";".join(parts)


def enumerate_charts(building: BuildingSet) -> list[Chart]:
    """All (nested set, marking) pairs for the building set, using one
    spanning tree adapted to every building-set member."""
    graph = building.base.parent
    tree = adapted_spanning_tree(graph, list(building.members))
    basis = adapted_basis(tree)
    charts = []
    for ns in enumerate_nested_sets(building):
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
        for marks in itertools.product(*options):
            charts.append(Chart(members, basis, tuple(marks)))
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
        self.marked = [chart.marked_index(g) for g in chart.nested]
        self.members = list(chart.nested)
        # members containing each edge (always a chain inside a nested set)
        self.scaling: dict[int, list[int]] = {}
        for e in range(graph.n_edges):
            self.scaling[e] = [k for k, g in enumerate(self.members)
                               if e in g.edge_set]
        # per-edge assembly terms: (tree edge, sign, extra marked indices)
        self.terms: dict[int, list[tuple[int, int, list[int]]]] = {}
        for e in range(graph.n_edges):
            if e in basis.tree.edge_set:
                self.terms[e] = [(e, 1, [])]
            else:
                outer = set(self.scaling[e])
                terms = []
                for te, sign in basis.expansion(e):
                    extra = [k for k in self.scaling[te] if k not in outer]
                    terms.append((te, sign, extra))
                self.terms[e] = terms

    # -- helpers ---------------------------------------------------------

    def _as_batch(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.shape[-1] != self.n_coords:
            raise GraphError(f"point needs {self.n_coords} coordinates")
        return arr

    def _hat(self, x: np.ndarray) -> np.ndarray:
        xhat = x.copy()
        xhat[:, self.marked] = 1.0
        return xhat

    # -- blow-down -------------------------------------------------------

    def rho(self, x) -> np.ndarray:
        """Multiply every coordinate by the marked scales of all members
        containing its tree edge; marked slots carry the scales alone."""
        x = self._as_batch(x)
        xhat = self._hat(x)
        y = np.empty_like(xhat)
        d = self.d
        for e, start in self.block.items():
            scale = np.ones(x.shape[0])
            for k in self.scaling[e]:
                scale = scale * x[:, self.marked[k]]
            y[:, start:start + d] = xhat[:, start:start + d] * scale[:, None]
        return y

    def edge_arguments(self, x, zero_members: Sequence[int] = ()) -> list:
        """Assembled argument vector of every edge propagator, with the
        marked coordinates of ``zero_members`` set to zero first."""
        x = self._as_batch(x)
        if zero_members:
            x = x.copy()
            for k in zero_members:
                x[:, self.marked[k]] = 0.0
        xhat = self._hat(x)
        d = self.d
        out = []
        for e in range(self.chart.graph.n_edges):
            acc = np.zeros((x.shape[0], d))
            for te, sign, extra in self.terms[e]:
                start = self.block[te]
                piece = sign * xhat[:, start:start + d]
                for k in extra:
                    piece = piece * x[:, self.marked[k]][:, None]
                acc += piece
            out.append(acc)
        return out

    def f(self, x, s: float = 1.0,
          zero_members: Sequence[int] = ()) -> np.ndarray:
        """Pulled-back kernel with the common marked scales divided out."""
        args = self.edge_arguments(x, zero_members)
        d = self.d
        expo = s * (2.0 - d) / 2.0
        total = np.ones(args[0].shape[0])
        for arg in args:
            total = total * np.sum(arg * arg, axis=1) ** expo
        return total

    def v(self, y, s: float = 1.0) -> np.ndarray:
        """Plain kernel in tree coordinates (no blow-up, no marking)."""
        return self.v_edges(y, range(self.chart.graph.n_edges), s)

    def v_edges(self, y, edges, s: float = 1.0) -> np.ndarray:
        """Plain kernel restricted to a subset of edges."""
        y = self._as_batch(y)
        d = self.d
        expo = s * (2.0 - d) / 2.0
        total = np.ones(y.shape[0])
        for e in edges:
            acc = np.zeros((y.shape[0], d))
            for te, sign, _extra in self.terms[e]:
                start = self.block[te]
                acc += sign * y[:, start:start + d]
            total = total * np.sum(acc * acc, axis=1) ** expo
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
    args = kern.edge_arguments(np.asarray(x, dtype=float))
    for e, arg in enumerate(args):
        if float(np.sum(arg[0] * arg[0])) == 0.0:
            raise KernelDomainError(
                f"propagator argument of edge {e} vanishes", edge=e)
    return float(kern.f(np.asarray(x, dtype=float), s)[0])
