import itertools
import time

import numpy as np
import pytest

from graphrenorm import fixtures as fx
from graphrenorm.bump import BumpSpec, ShellSpec
from graphrenorm.charts import ChartKernel, chart_for
from graphrenorm.errors import GraphError
from graphrenorm.graphs import Graph
from graphrenorm.lattice import divergent_lattice, irreducibles
from graphrenorm.mc import (MCParams, _batch_generator, mc_integrate,
                            sample_coordinates, substream_seed)
from graphrenorm.renorm import _restrict_chart, locality_check, nu_callables


def test_two_sided_one_one_splits():
    graph = fx.two_sided_bubbles(1, 1)
    rep = locality_check(graph, graph.subgraph({0, 1}),
                         graph.subgraph({2, 3}))
    assert rep.irreducibles_split
    assert rep.nested_sets_split
    assert rep.combinatorial_ok


def test_two_sided_two_one_splits():
    graph = fx.two_sided_bubbles(2, 1)
    rep = locality_check(graph, graph.subgraph({0, 1}),
                         graph.subgraph({4, 5}))
    assert rep.combinatorial_ok


def test_two_sided_two_one_chain_factor():
    # the whole left chain against the right bubble
    graph = fx.two_sided_bubbles(2, 1)
    rep = locality_check(graph, graph.subgraph({0, 1, 2, 3}),
                         graph.subgraph({4, 5}))
    assert rep.combinatorial_ok


def test_equal_subgraphs_rejected():
    graph = fx.two_sided_bubbles(1, 1)
    g = graph.subgraph({0, 1})
    with pytest.raises(GraphError):
        locality_check(graph, g, g)


def test_overlapping_subgraphs_rejected():
    graph = fx.two_sided_bubbles(2, 1)
    with pytest.raises(GraphError):
        # share vertex 1
        locality_check(graph, graph.subgraph({0, 1}),
                       graph.subgraph({2, 3}))


def test_non_divergent_rejected():
    graph = fx.two_sided_bubbles(1, 1)
    with pytest.raises(GraphError):
        locality_check(graph, graph.subgraph({4}), graph.subgraph({2, 3}))


@pytest.mark.slow
def test_numeric_factorization_smoke():
    graph = fx.two_sided_bubbles(1, 1)
    rep = locality_check(graph, graph.subgraph({0, 1}),
                         graph.subgraph({2, 3}), numerical=True,
                         mc=MCParams(samples=600_000, batches=30, seed=1,
                                     stretch=1),
                         inner_samples=32)
    n = rep.numeric
    assert n is not None
    assert n.lhs.value != 0.0 and n.rhs.value != 0.0
    assert n.passed


def test_union_beyond_scan_limit_rejected_at_once():
    # disjoint union of a 14-edge and a 10-edge chain: 2^24 edge subsets
    left, right = fx.bubble_chain(4), fx.bubble_chain(3)
    shift = left.n_vertices
    graph = Graph(left.vertices + tuple(f"r{v}" for v in right.vertices),
                  left.edges + tuple((a + shift, b + shift)
                                     for a, b in right.edges), 0, 4)
    assert graph.n_edges == 24
    start = time.monotonic()
    with pytest.raises(GraphError, match="too large"):
        locality_check(graph, graph.subgraph(range(left.n_edges)),
                       graph.subgraph(range(left.n_edges, 24)))
    assert time.monotonic() - start < 5.0


def _factorized_rhs_reference(graph, g, h, psi, nu, mc_rhs, inner_samples):
    """The right side as one chart per factor and a hand-written loop over
    the four counterterms, each evaluated on every row."""
    chart = chart_for(irreducibles(divergent_lattice(graph)), [g, h])
    kern = ChartKernel(chart)
    chart_g, emap_g = _restrict_chart(chart, g, set(),
                                      [chart.nested.index(g)])
    chart_h, emap_h = _restrict_chart(chart, h, set(),
                                      [chart.nested.index(h)])
    kern_g, kern_h = ChartKernel(chart_g), ChartKernel(chart_h)
    d = kern.d
    parent_edges = sorted(chart.basis.tree.edge_set)
    cross_edges = [e for e in range(graph.n_edges)
                   if e not in g.edge_set and e not in h.edge_set]
    inner_edges = [e for e in parent_edges
                   if e not in g.edge_set and e not in h.edge_set]
    n_inner = len(inner_edges) * d
    child_g_edges = sorted(chart_g.basis.tree.edge_set)
    child_h_edges = sorted(chart_h.basis.tree.edge_set)
    plan = []
    for e in parent_edges:
        if e in g.edge_set:
            plan.append(("g", parent_edges.index(e) * d,
                         child_g_edges.index(emap_g[e]) * d))
        elif e in h.edge_set:
            plan.append(("h", parent_edges.index(e) * d,
                         child_h_edges.index(emap_h[e]) * d))
        else:
            plan.append(("inner", parent_edges.index(e) * d,
                         inner_edges.index(e) * d))
    ng = kern_g.n_coords
    nu_g_fn = nu_callables(kern_g, [nu[g]])[0]
    nu_h_fn = nu_callables(kern_h, [nu[h]])[0]
    inner_seed = substream_seed(mc_rhs.seed, "locality-inner")
    state = {"batch": 0}

    def rhs_integrand(z):
        n = len(z)
        xg, xh = z[:, :ng], z[:, ng:]
        rng = _batch_generator(inner_seed, state["batch"])
        state["batch"] += 1
        xin, win = sample_coordinates(rng, inner_samples,
                                      [mc_rhs.stretch] * n_inner)
        total = np.zeros(n)
        for kg, kh in itertools.product((0, 1), repeat=2):
            xgz, xhz = xg.copy(), xh.copy()
            if kg:
                xgz[:, kern_g.marked[0]] = 0.0
            if kh:
                xhz[:, kern_h.marked[0]] = 0.0
            yg, yh = kern_g.rho(xgz), kern_h.rho(xhz)
            fg, fh = kern_g.f(xgz, 1.0), kern_h.f(xhz, 1.0)
            y_full = np.zeros((n, inner_samples, kern.n_coords))
            for source, ppos, cpos in plan:
                block = {"g": yg[:, None, cpos:cpos + d],
                         "h": yh[:, None, cpos:cpos + d],
                         "inner": xin[None, :, cpos:cpos + d]}[source]
                y_full[:, :, ppos:ppos + d] = block
            flat = y_full.reshape(n * inner_samples, kern.n_coords)
            vals = kern.v_edges(flat, cross_edges, 1.0) \
                * psi.test_values(flat)
            phi_hat = (vals.reshape(n, inner_samples) * win).mean(axis=1)
            term = fg * fh * phi_hat
            if kg:
                term = term * nu_g_fn(xg)
            if kh:
                term = term * nu_h_fn(xh)
            total += (-1.0) ** (kg + kh) * term
        u = np.abs(xg[:, kern_g.marked[0]]) ** -1.0 \
            * np.abs(xh[:, kern_h.marked[0]]) ** -1.0
        return total * u

    powers = [mc_rhs.stretch] * (2 * ng)
    powers[kern_g.marked[0]] = 1
    powers[ng + kern_h.marked[0]] = 1
    return mc_integrate(
        rhs_integrand, 2 * ng,
        mc_rhs.with_seed(substream_seed(mc_rhs.seed, "locality-rhs")),
        powers=powers)


@pytest.mark.parametrize("seed", [7, 11, 41])
def test_two_member_chart_matches_factorized_reference(seed):
    graph = fx.two_sided_bubbles(1, 1)
    g, h = graph.subgraph({0, 1}), graph.subgraph({2, 3})
    mc = MCParams(samples=20_000, batches=10, seed=seed, stretch=1)
    rhs = locality_check(graph, g, h, numerical=True, mc=mc).numeric.rhs
    nu = {g: BumpSpec(1.0, kind="subtraction_nu"),
          h: BumpSpec(1.0, kind="subtraction_nu")}
    ref = _factorized_rhs_reference(graph, g, h, ShellSpec(3.0, 2.0), nu,
                                    mc, 16)
    assert rhs.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
    assert rhs.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0.0)
    assert (rhs.samples, rhs.seed, rhs.batches) == \
        (ref.samples, ref.seed, ref.batches)


def _theta_and_doubled_triangle():
    """d = 3: a theta graph on {0, 1} (edges 0-2, a 3-coordinate chart)
    and a doubled triangle on {2, 3, 4} (edges 3-8, 6 coordinates), joined
    by the cross edges (1, 2), (0, 3) and (0, 4)."""
    edges = ((0, 1),) * 3 \
        + ((2, 3), (2, 3), (3, 4), (3, 4), (2, 4), (2, 4)) \
        + ((1, 2), (0, 3), (0, 4))
    return Graph(tuple(str(v) for v in range(5)), edges, 0, 3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_numeric_factors_of_unequal_chart_size(seed):
    graph = _theta_and_doubled_triangle()
    rep = locality_check(graph, graph.subgraph(range(3)),
                         graph.subgraph(range(3, 9)), numerical=True,
                         mc=MCParams(samples=200_000, seed=seed, stretch=1))
    assert rep.combinatorial_ok
    assert rep.numeric.passed
