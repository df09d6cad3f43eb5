"""Independent oracles: deterministic quadratures for the renormalization
tests and the per-subset scans the exact layers replaced."""

import itertools
import math

import numpy as np
from scipy.integrate import quad

from graphrenorm.bump import beta_cutoff, radial_bump
from graphrenorm.charts import Chart, adapted_basis
from graphrenorm.graphs import (Subgraph, adapted_spanning_tree,
                                edges_below, is_saturated, omega)
from graphrenorm.lattice import enumerate_nested_sets


def fish_kernel_integral() -> float:
    """Radial reduction of the fish divisor integral: 4 pi int r^2/(1+r^2)^2."""
    val, _ = quad(lambda r: r * r * (1.0 + r * r) ** -2.0, 0.0, np.inf)
    return 4.0 * math.pi * val


def fish_period_oracle() -> float:
    """-(2/d) times the divisor integral with d = 4."""
    return -0.5 * fish_kernel_integral()


def fish_fixed_oracle(psi_radius: float, nu_radius: float) -> float:
    """Radial form of the fixed-conditions pairing on the fish.

    With a radial test function the pairing reduces to
    2 pi^2 int (Psi(r) - beta(r/nu_radius) Psi(0)) dr / r.
    """
    psi0 = math.exp(-1.0)

    def integrand(r):
        big = float(radial_bump(np.array([r / psi_radius]))[0])
        cut = float(beta_cutoff(np.array([r / nu_radius]))[0])
        return (big - cut * psi0) / r

    hi = max(psi_radius, nu_radius)
    val, _ = quad(integrand, 1e-12, hi, limit=400,
                  points=[nu_radius / 2, nu_radius, psi_radius / 2])
    return 2.0 * math.pi ** 2 * val


def fish_ms_oracle(psi_radius: float, cutoff: float) -> float:
    """Nested quadrature for minimal subtraction on the fish.

    F(m) integrates the kernel against the test function on the slice with
    marked coordinate m; the outer integral subtracts theta(cutoff-m) F(0).
    """
    def F(m):
        if abs(m) >= psi_radius:
            return 0.0
        if m == 0.0:
            return math.pi ** 2 * math.exp(-1.0)
        hi = math.sqrt((psi_radius / abs(m)) ** 2 - 1.0)

        def inner(r):
            s = math.sqrt(1.0 + r * r)
            return r * r * (1.0 + r * r) ** -2.0 \
                * float(radial_bump(np.array([abs(m) * s / psi_radius]))[0])

        val, _ = quad(inner, 0.0, hi, limit=400)
        return 4.0 * math.pi * val

    F0 = F(0.0)

    def outer(m):
        return (F(m) - (1.0 if m <= cutoff else 0.0) * F0) / m

    hi = max(psi_radius, cutoff)
    val, _ = quad(outer, 1e-10, hi, limit=400,
                  points=[cutoff, psi_radius / 2])
    return 2.0 * val


def fish_ms_shift_oracle(psi0: float, c_small: float,
                         c_large: float) -> float:
    """Cutoff-change formula on the fish: -psi(0) * 2 log(c'/c) * int f."""
    return -psi0 * 2.0 * math.log(c_large / c_small) * fish_kernel_integral()


# ---------------------------------------------------------------------------
# exact-layer oracles: one Subgraph (and its memo entries) per edge subset
# ---------------------------------------------------------------------------

def _canonical(subsets, graph):
    return tuple(sorted((Subgraph(graph, s) for s in subsets),
                        key=lambda s: (len(s.edge_set), s.sorted_edges)))


def _edge_subsets(edges):
    m = len(edges)
    for mask in range(1 << m):
        yield frozenset(edges[i] for i in range(m) if mask >> i & 1)


def divergent_elements_scan(graph, edges):
    """o plus every subset of ``edges`` whose Subgraph has omega >= 0."""
    members = {frozenset()}
    for sub in _edge_subsets(edges):
        if sub and omega(Subgraph(graph, sub)) >= 0:
            members.add(sub)
    return _canonical(members, graph)


def saturated_elements_scan(graph):
    """o plus every edge subset that ``is_saturated`` accepts."""
    members = {frozenset()}
    for sub in _edge_subsets(range(graph.n_edges)):
        if is_saturated(Subgraph(graph, sub)):
            members.add(sub)
    return _canonical(members, graph)


def join_scan(poset, x, y):
    """The unique minimal upper bound among all elements, else None."""
    ubs = [z for z in poset.elements
           if poset.leq(x, z) and poset.leq(y, z)]
    mins = [z for z in ubs
            if not any(poset.leq(w, z) and w != z for w in ubs)]
    return mins[0] if len(mins) == 1 else None


def meet_scan(poset, x, y):
    """The unique maximal lower bound among all elements, else None."""
    lbs = [z for z in poset.elements
           if poset.leq(z, x) and poset.leq(z, y)]
    maxs = [z for z in lbs
            if not any(poset.leq(z, w) and w != z for w in lbs)]
    return maxs[0] if len(maxs) == 1 else None


def charts_by_constructor(building):
    """Every (nested set, marking) chart, each built and checked by
    ``Chart(...)`` itself."""
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
            options.append([(e, i) for e in allowed
                            for i in range(basis.dim)])
        for marks in itertools.product(*options):
            charts.append(Chart(members, basis, tuple(marks)))
    return charts


# ---------------------------------------------------------------------------
# chart-kernel oracles: the (n, d) assembly that the column-wise plan of
# ``ChartKernel`` replaced, kept to check that plan bit for bit
# ---------------------------------------------------------------------------

def _assembly_terms(kern):
    """Per-edge terms (tree edge, sign, extra member indices)."""
    basis = kern.chart.basis
    terms = {}
    for e in range(kern.chart.graph.n_edges):
        if e in basis.tree.edge_set:
            terms[e] = [(e, 1, [])]
        else:
            outer = set(kern.scaling[e])
            terms[e] = [(te, sign, [k for k in kern.scaling[te]
                                    if k not in outer])
                        for te, sign in basis.expansion(e)]
    return terms


def edge_arguments_oracle(kern, x, zero_members=()):
    """Assembled (n, d) argument of every edge propagator, with the marked
    coordinates of ``zero_members`` set to zero first."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if zero_members:
        x = x.copy()
        for k in zero_members:
            x[:, kern.marked[k]] = 0.0
    xhat = x.copy()
    xhat[:, kern.marked] = 1.0
    d = kern.d
    out = []
    for e, terms in _assembly_terms(kern).items():
        acc = np.zeros((x.shape[0], d))
        for te, sign, extra in terms:
            start = kern.block[te]
            piece = sign * xhat[:, start:start + d]
            for k in extra:
                piece = piece * x[:, kern.marked[k]][:, None]
            acc += piece
        out.append(acc)
    return out


def f_oracle(kern, x, s=1.0, zero_members=()):
    """``ChartKernel.f`` through the (n, d) edge arguments."""
    args = edge_arguments_oracle(kern, x, zero_members)
    expo = s * (2.0 - kern.d) / 2.0
    total = np.ones(args[0].shape[0])
    for arg in args:
        total = total * np.sum(arg * arg, axis=1) ** expo
    return total


def v_edges_oracle(kern, y, edges, s=1.0):
    """``ChartKernel.v_edges`` through (n, d) accumulators."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    d = kern.d
    terms = _assembly_terms(kern)
    expo = s * (2.0 - d) / 2.0
    total = np.ones(y.shape[0])
    for e in edges:
        acc = np.zeros((y.shape[0], d))
        for te, sign, _extra in terms[e]:
            start = kern.block[te]
            acc += sign * y[:, start:start + d]
        total = total * np.sum(acc * acc, axis=1) ** expo
    return total
