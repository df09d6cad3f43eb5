"""Periods by tropical (Hepp-sector) sampling: the Hepp bound against its
definition and across decompletions, the sampler's draws bit for bit
against the sampler that scanned every edge, estimates against closed forms
(wheels and zigzags) and against the chart-coordinate estimator,
calibration of the error bars across seeds, and the edge cap."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from graphrenorm import fixtures as fx
from graphrenorm import renorm, tropical
from graphrenorm.cli import main
from graphrenorm.errors import GraphError
from graphrenorm.graphs import Graph, omega
from graphrenorm.mc import MCParams, _batch_generator
from graphrenorm.renorm import period
from graphrenorm.tropical import (MAX_PERIOD_EDGES, hepp_tables,
                                  kirchhoff_power, require_period_size,
                                  tropical_sampler)
from oracle_utils import chart_period_oracle, tropical_sampler_oracle

ZETA3 = 1.2020569031595942
ZETA5 = 1.0369277551433699
ZETA7 = 1.0083492773819228
ZETA9 = 1.0020083928260822
ZETA11 = 1.0004941886041195


def three_parallel_edges_d3():
    return Graph(("a", "b"), ((0, 1),) * 3, 0, 3)


def doubled_triangle_d3():
    return Graph(("a", "b", "c"),
                 ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)), 0, 3)


def hepp_bound_by_orders(graph):
    """Sum over all edge orders of prod_j 1/omega(gamma_j), gamma_j the
    edges after the j largest, with omega = -graphs.omega / 2."""
    total = 0.0
    for order in itertools.permutations(range(graph.n_edges)):
        term = 1.0
        for j in range(1, graph.n_edges):
            term /= -omega(graph.subgraph(order[j:])) / 2
        total += term
    return total


@pytest.mark.parametrize("graph", [fx.fish(), fx.k_complete(4), fx.wheel(4),
                                   three_parallel_edges_d3()],
                         ids=["fish", "k4", "w4", "parallel3_d3"])
def test_hepp_bound_matches_sum_over_orders(graph):
    assert hepp_tables(graph).hepp == pytest.approx(
        hepp_bound_by_orders(graph), rel=1e-12)


def test_sampler_points_have_unit_tropical_monomial():
    """Every draw is shifted so that its largest spanning-tree cotree
    monomial is 1, so Psi^(-d/2) lies in [N_T^(-d/2), 1]."""
    tables = hepp_tables(fx.k_complete(4))
    x, w = tropical_sampler(tables)(_batch_generator(5, 0), 2000)
    log_mono = x[:, tables.cotrees].sum(axis=2)
    assert np.allclose(log_mono.max(axis=1), 0.0, atol=1e-9)
    vals = kirchhoff_power(tables)(x)
    n_trees = len(tables.cotrees)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.all(vals >= n_trees ** -2.0 * (1 - 1e-12))
    assert np.all(w == tables.hepp)


@pytest.mark.parametrize("graph", [
    fx.fish(), fx.k_complete(4), fx.wheel(4), fx.wheel(5), fx.wheel(6),
    fx.wheel(8), three_parallel_edges_d3(), doubled_triangle_d3(),
], ids=["fish", "k4", "w4", "w5", "w6", "w8", "parallel3_d3",
        "doubled_triangle_d3"])
def test_sampler_draws_match_oracle_bit_for_bit(graph):
    """The member tables change the work per step, not the floats."""
    sampler = tropical_sampler(hepp_tables(graph))
    oracle = tropical_sampler_oracle(graph)
    for seed in (1, 5, 77):
        for n in (1, 7, 10_000):
            x, w = sampler(_batch_generator(seed, 0), n)
            x_ref, w_ref = oracle(_batch_generator(seed, 0), n)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(w, w_ref)


@pytest.mark.parametrize("graph", [fx.fish(), fx.k_complete(4), fx.wheel(5),
                                   fx.wheel(8)],
                         ids=["fish", "k4", "w5", "w8"])
def test_member_edges_are_set_bits_in_order(graph):
    tables = hepp_tables(graph)
    m = graph.n_edges
    assert tables.member_edges.shape == (m, 1 << m)
    assert tables.member_cdf.shape == (m - 1, 1 << m)
    for mask, ranked in enumerate(tables.member_edges.T.tolist()):
        edges = [e for e in range(m) if mask >> e & 1]
        assert ranked[:len(edges)] == edges


def test_k4_period_closed_form():
    est = period(fx.k_complete(4), MCParams(samples=500_000, batches=50,
                                            seed=1))
    assert est.agrees_with(-math.pi ** 6 * ZETA3)
    assert est.stderr / abs(est.value) < 0.005


@pytest.mark.parametrize("k, exact", [
    (4, -2.5 * math.pi ** 8 * ZETA5),
    (5, -7 * math.pi ** 10 * ZETA7),
], ids=["w4", "w5"])
def test_wheel_period_closed_form(k, exact):
    """P(W_k) = binomial(2k - 2, k - 1) zeta(2k - 3)."""
    est = period(fx.wheel(k), MCParams(samples=500_000, batches=50, seed=1))
    assert est.agrees_with(exact)
    assert est.stderr / abs(est.value) < 0.005


def zigzag(n):
    """Z_n, the decompletion of C^(n+2)_{1,2}: n + 1 vertices, 2n edges."""
    return fx.decompletion(fx.circulant(n + 2, (1, 2)), 0)


def zigzag_period(n, zeta):
    """-(2/d_G) pi^(d_G/2) P(Z_n) with d_G = 4n and, by Brown and Schnetz,
    P(Z_n) = 4 (2n-2)! / (n! (n-1)!) (1 - (1 - (-1)^n) / 2^(2n-3))
    zeta(2n-3)."""
    p = (4 * math.factorial(2 * n - 2)
         / (math.factorial(n) * math.factorial(n - 1))
         * (1 - (1 - (-1) ** n) / 2 ** (2 * n - 3)) * zeta)
    return -math.pi ** (2 * n) / (2 * n) * p


def test_zigzag_formula_gives_k4_and_w4():
    assert zigzag_period(3, ZETA3) == pytest.approx(-math.pi ** 6 * ZETA3,
                                                    rel=1e-14)
    assert zigzag_period(4, ZETA5) == pytest.approx(
        -2.5 * math.pi ** 8 * ZETA5, rel=1e-14)


@pytest.mark.parametrize("n, zeta", [(5, ZETA7), (6, ZETA9), (7, ZETA11)],
                         ids=["z5", "z6", "z7"])
def test_zigzag_period_closed_form(n, zeta):
    graph = zigzag(n)
    assert (graph.n_vertices, graph.n_edges) == (n + 1, 2 * n)
    est = period(graph, MCParams(samples=200_000, batches=20, seed=1))
    assert est.agrees_with(zigzag_period(n, zeta))


@pytest.mark.parametrize("n, decompleted", [
    (5, fx.k_complete(4)), (6, fx.wheel(4))], ids=["c5_k4", "c6_w4"])
def test_hepp_bound_is_the_same_on_every_decompletion(n, decompleted):
    """C^5_{1,2} is K5 and C^6_{1,2} the octahedron: every decompletion is
    K4, or W4, and has its Hepp bound."""
    completed = fx.circulant(n, (1, 2))
    want = hepp_tables(decompleted).hepp
    for v in range(n):
        assert hepp_tables(fx.decompletion(completed, v)).hepp == \
            pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("graph", [fx.fish(), three_parallel_edges_d3()],
                         ids=["fish", "parallel3_d3"])
def test_tropical_agrees_with_chart_estimator(graph):
    """d = 3 pins the factor Gamma(d/2 - 1)^(-|E|)."""
    trop = period(graph, MCParams(samples=100_000, batches=50, seed=3))
    chart = chart_period_oracle(graph, MCParams(samples=400_000, batches=50,
                                                seed=3))
    assert trop.agrees_with(chart.value, extra_stderr=chart.stderr)


@pytest.mark.parametrize("graph, exact", [
    (three_parallel_edges_d3(), -4 * math.pi / 3),
    (doubled_triangle_d3(), -2 * math.pi ** 4 / 3),
], ids=["parallel3_d3", "doubled_triangle_d3"])
def test_d3_periods_closed_form(graph, exact):
    """-(2/d_G) J with J the half sphere 2 pi of the overall scale times,
    for the doubled triangle, int d^3y / (|y|^2 |e - y|^2) = pi^3 over the
    third vertex (two parallel edges are one propagator 1/|x|^2)."""
    est = period(graph, MCParams(samples=500_000, batches=50, seed=3))
    assert est.agrees_with(exact)
    assert est.stderr / abs(est.value) < 0.002


@pytest.mark.parametrize("graph, exact", [
    (fx.fish(), -math.pi ** 2 / 2),
    (fx.k_complete(4), -math.pi ** 6 * ZETA3),
], ids=["fish", "k4"])
def test_error_bars_calibrated_across_seeds(graph, exact):
    z = np.array([(est.value - exact) / est.stderr for est in (
        period(graph, MCParams(samples=20_000, batches=20, seed=seed))
        for seed in range(1, 201))])
    assert np.mean(np.abs(z) < 3) >= 0.97
    assert 0.55 <= np.mean(np.abs(z) < 1) <= 0.80


def test_edge_cap_refuses_before_any_scan(monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("scanned a graph above the edge cap")
    monkeypatch.setattr(renorm, "classify", fail)
    monkeypatch.setattr(tropical, "_scan_edge_subsets", fail)
    big = fx.wheel(MAX_PERIOD_EDGES // 2 + 1)
    with pytest.raises(GraphError, match="too large"):
        period(big)
    with pytest.raises(GraphError, match="too large"):
        hepp_tables(big)
    require_period_size(fx.wheel(MAX_PERIOD_EDGES // 2))


def test_edge_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "w9.g"
    path.write_text(fx.graph_file_text(fx.wheel(9)))
    assert main(["period", str(path)]) == 2
    assert "too large" in capsys.readouterr().err


def test_wheel_fixture():
    w = fx.wheel(5)
    assert (w.n_vertices, w.n_edges) == (6, 10)
    assert all(len({a, b}) == 2 for a, b in w.edges)
    assert renorm.classify(w.full()).primitive
    with pytest.raises(ValueError):
        fx.wheel(2)


def test_circulant_and_decompletion_fixtures():
    c = fx.circulant(7, (1, 2))
    assert (c.n_vertices, c.n_edges) == (7, 14)
    assert len({frozenset(e) for e in c.edges}) == 14
    assert set(Counter(v for e in c.edges for v in e).values()) == {4}
    z = fx.decompletion(c, 3)
    assert (z.n_vertices, z.n_edges) == (6, 10)
    assert "3" not in z.vertices
    assert sorted(Counter(v for e in z.edges for v in e).values()) == \
        [3, 3, 3, 3, 4, 4]
    assert renorm.classify(z.full()).primitive
    for steps in [(), (1, 1), (0,), (4,)]:
        with pytest.raises(ValueError):
            fx.circulant(7, steps)
    with pytest.raises(ValueError):
        fx.decompletion(c, 7)
