import numpy as np
import pytest

from graphrenorm import fixtures as fx
from graphrenorm.charts import (ChartKernel, adapted_basis, chart_for,
                                enumerate_charts, f_kernel_eval,
                                pullback_exponents, rho_eval)
from graphrenorm.errors import KernelDomainError
from graphrenorm.graphs import adapted_spanning_tree
from graphrenorm.lattice import divergent_lattice, irreducibles


def minimal_charts(graph):
    return enumerate_charts(irreducibles(divergent_lattice(graph)))


@pytest.fixture(scope="module")
def dunce_charts():
    return minimal_charts(fx.dunce_cap())


@pytest.fixture(scope="module")
def fish_charts():
    return minimal_charts(fx.fish())


# ---------------------------------------------------------------------------
# adapted bases
# ---------------------------------------------------------------------------

def test_adapted_basis_dunce_path_expansion():
    graph = fx.dunce_cap()
    tree = adapted_spanning_tree(graph, [graph.subgraph({2, 3}),
                                         graph.full()])
    basis = adapted_basis(tree)
    assert len(basis.coordinates) == 8
    # e1 = x_e0 + x_e2, e3 = x_e2 in this orientation
    assert basis.expansion(1) == ((0, 1), (2, 1))
    assert basis.expansion(3) == ((2, 1),)


def test_adapted_basis_fish():
    graph = fx.fish()
    tree = adapted_spanning_tree(graph, [graph.full()])
    basis = adapted_basis(tree)
    assert basis.expansion(1) == ((0, 1),)


def test_adapted_basis_star_has_no_expansions():
    graph = fx.star(3)
    tree = adapted_spanning_tree(graph, [])
    basis = adapted_basis(tree)
    assert basis.expansions == ()


# ---------------------------------------------------------------------------
# chart enumeration
# ---------------------------------------------------------------------------

def test_chart_counts_dunce(dunce_charts):
    by_size = {}
    for c in dunce_charts:
        by_size.setdefault(len(c.nested), []).append(c)
    assert len(by_size[1]) == 12   # {g}: 4 markings, {G}: 8 markings
    assert len(by_size[2]) == 16
    assert len(dunce_charts) == 28


def test_chart_counts_fish(fish_charts):
    assert len(fish_charts) == 4


def test_dunce_full_chart_marking_constraints(dunce_charts):
    for chart in dunce_charts:
        if len(chart.nested) != 2:
            continue
        (e_inner, _), (e_outer, _) = chart.marks
        assert e_inner == 2      # forced inside the divergent subgraph
        assert e_outer == 0      # forced outside it


def test_dunce_singleton_whole_graph_charts(dunce_charts):
    # charts for N = {G} may mark either tree edge: 8 markings
    singles = [c for c in dunce_charts
               if len(c.nested) == 1 and len(c.nested[0].edge_set) == 4]
    assert len(singles) == 8
    assert sorted({c.marks[0][0] for c in singles}) == [0, 2]


# ---------------------------------------------------------------------------
# blow-down map
# ---------------------------------------------------------------------------

def test_rho_fish_example(fish_charts):
    chart = fish_charts[0]  # marked (e0, 0)
    out = rho_eval(chart, [2.0, 3.0, 0.0, 0.0])
    assert np.allclose(out, [2.0, 6.0, 0.0, 0.0])


def test_rho_dunce_two_level(dunce_charts):
    chart = [c for c in dunce_charts
             if len(c.nested) == 2 and c.marks == ((2, 0), (0, 0))][0]
    x = np.zeros(8)
    x[0] = 0.5            # marked x_G at (e0, component 0)
    x[1] = 1.0            # unmarked e0 component
    x[4] = 0.25           # marked x_g at (e2, component 0)
    x[5] = 2.0            # unmarked e2 component
    y = rho_eval(chart, x)
    assert y[0] == pytest.approx(0.5)            # x_G alone
    assert y[1] == pytest.approx(0.5)            # 1.0 * x_G
    assert y[4] == pytest.approx(0.125)          # x_g * x_G
    assert y[5] == pytest.approx(0.25)           # 2.0 * x_g * x_G


def test_rho_identity_on_torus_slice(fish_charts):
    chart = fish_charts[0]
    x = np.array([1.0, 0.7, -0.3, 2.0])
    y = rho_eval(chart, x)
    assert np.allclose(y, x)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_pullback_exponents_dunce(dunce_charts):
    chart = [c for c in dunce_charts if len(c.nested) == 2][0]
    expo = pullback_exponents(chart)
    g = [m for m in chart.nested if len(m.edge_set) == 2][0]
    G = [m for m in chart.nested if len(m.edge_set) == 4][0]
    assert (expo[g].constant, expo[g].s_coefficient) == (3, -4)
    assert (expo[G].constant, expo[G].s_coefficient) == (7, -8)
    assert expo[g].value(1.0) == -1 and expo[G].value(1.0) == -1


def test_pullback_exponents_fish(fish_charts):
    expo = pullback_exponents(fish_charts[0])
    (ae,) = expo.values()
    assert (ae.constant, ae.s_coefficient) == (3, -4)


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------

def test_f_kernel_fish_values(fish_charts):
    chart = fish_charts[0]
    assert f_kernel_eval(chart, [0.3, 0, 0, 0], 1.0) == pytest.approx(1.0)
    assert f_kernel_eval(chart, [0.3, 1, 0, 0], 1.0) == pytest.approx(0.25)


def test_f_kernel_domain_error():
    graph = fx.k_complete(4)
    chart = chart_for(irreducibles(divergent_lattice(graph)),
                      [graph.full()])
    kern = ChartKernel(chart)
    # construct a point where a non-tree edge expansion vanishes
    x = np.zeros(kern.n_coords)
    with pytest.raises(KernelDomainError) as err:
        f_kernel_eval(chart, x, 1.0)
    assert err.value.edge is not None


@pytest.mark.parametrize("build,n_points", [
    (fx.fish, 1000), (fx.dunce_cap, 1000),
    (lambda: fx.bubble_chain(2), 1000),
    (lambda: fx.two_sided_bubbles(1, 1), 1000),
    (lambda: fx.k_complete(4), 1000),
])
def test_pullback_consistency(build, n_points):
    """f times the pulled-out marked factors equals the plain kernel at the
    blown-down point, to 1e-12 relative."""
    graph = build()
    rng = np.random.default_rng(42)
    for chart in minimal_charts(graph):
        kern = ChartKernel(chart)
        x = rng.normal(size=(n_points, kern.n_coords))
        s = 1.0
        lhs = kern.f(x, s)
        for idx, g in enumerate(chart.nested):
            marked = x[:, kern.marked[idx]]
            lhs = lhs * np.abs(marked) ** (s * (2 - chart.dim)
                                           * len(g.edge_set))
        rhs = kern.v(kern.rho(x), s)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12


@pytest.mark.parametrize("build", [fx.fish, fx.dunce_cap,
                                   lambda: fx.bubble_chain(2)])
def test_jacobian_matches_measure_factor(build):
    graph = build()
    rng = np.random.default_rng(7)
    for chart in minimal_charts(graph)[:3]:
        kern = ChartKernel(chart)
        n = kern.n_coords
        for _ in range(3):
            x0 = rng.normal(size=n) * 1.5
            h = 1e-5
            jac = np.zeros((n, n))
            for j in range(n):
                xp, xm = x0.copy(), x0.copy()
                xp[j] += h
                xm[j] -= h
                jac[:, j] = (kern.rho(xp)[0] - kern.rho(xm)[0]) / (2 * h)
            fd = abs(np.linalg.det(jac))
            an = float(kern.measure_factor(x0[None, :])[0])
            assert abs(fd - an) / an < 1e-6


@pytest.mark.parametrize("build", [fx.fish, fx.dunce_cap,
                                   lambda: fx.bubble_chain(2),
                                   lambda: fx.insertion_chain(3),
                                   lambda: fx.two_sided_bubbles(1, 1),
                                   lambda: fx.k_complete(4)])
def test_marked_smoothness(build):
    """f at s=1 stays finite and converges as any marked coordinate -> 0,
    in every chart of every fixture."""
    for chart in minimal_charts(build()):
        kern = ChartKernel(chart)
        rng = np.random.default_rng(3)
        base = rng.normal(size=kern.n_coords)
        for idx in range(len(chart.nested)):
            vals = []
            for expo in range(1, 9):
                x = base.copy()
                x[kern.marked[idx]] = 10.0 ** -expo
                vals.append(float(kern.f(x[None, :], 1.0)[0]))
            assert np.isfinite(vals).all()
            assert abs(vals[-1] - vals[-2]) < 1e-5 * (1 + abs(vals[-1]))


def test_maximal_building_set_charts_with_disconnected_member():
    """Nested members may be disconnected (spanning forests); consistency
    must still hold."""
    from graphrenorm.lattice import maximal_building_set
    graph = fx.bubble_chain(2)
    charts = enumerate_charts(
        maximal_building_set(divergent_lattice(graph)))
    with_union = [c for c in charts
                  if any(m.sorted_edges == (0, 1, 4, 5) for m in c.nested)]
    assert with_union
    rng = np.random.default_rng(5)
    for chart in with_union[:4]:
        kern = ChartKernel(chart)
        x = rng.normal(size=(200, kern.n_coords))
        lhs = kern.f(x, 1.0)
        for idx, g in enumerate(chart.nested):
            marked = x[:, kern.marked[idx]]
            lhs = lhs * np.abs(marked) ** ((2 - chart.dim)
                                           * len(g.edge_set))
        rhs = kern.v(kern.rho(x), 1.0)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12


def test_enumerate_charts_propagates_tree_failure():
    from graphrenorm.errors import AdaptedTreeNotFound
    from graphrenorm.lattice import saturated_poset
    k4 = fx.k_complete(4)
    building = irreducibles(saturated_poset(k4))
    with pytest.raises(AdaptedTreeNotFound):
        enumerate_charts(building)


def test_chart_for_refuses_members_that_are_not_nested():
    """{e0..e5} and {e4..e9} share the bubble {e4,e5}, so their union is a
    block: no nested set holds both, and edges 4 and 5 would lie in two
    members that are not a chain."""
    from graphrenorm.errors import GraphError
    graph = fx.bubble_chain(3)
    building = irreducibles(divergent_lattice(graph))
    left, right = graph.subgraph(range(6)), graph.subgraph(range(4, 10))
    for members in ([left, right], [graph.subgraph({4, 5}), left, right]):
        with pytest.raises(GraphError, match="nested"):
            chart_for(building, members)


def test_charts_of_raises_before_iteration():
    """A nested set with no admissible marking fails in ``charts_of``
    itself, even after nested sets that have charts."""
    from graphrenorm.charts import building_basis, charts_of
    from graphrenorm.errors import GraphError
    from graphrenorm.lattice import NestedSet, enumerate_nested_sets
    graph = fx.dunce_cap()
    building = irreducibles(divergent_lattice(graph))
    tree_part = graph.subgraph(building_basis(building).tree.edge_set)
    no_marking = NestedSet(building, (tree_part, graph.full()))
    with pytest.raises(GraphError, match="no admissible marked edge"):
        charts_of(building, enumerate_nested_sets(building) + [no_marking])


@pytest.mark.parametrize("build,args,count", [
    (fx.bubble_chain, (4,), 684_584),
    (fx.two_sided_bubbles, (4, 3), 828_124),
    (fx.bubble_chain, (5,), 54_901_004),
], ids=["bubble_chain4", "two_sided43", "bubble_chain5"])
def test_chart_counts_build_no_chart(build, args, count, monkeypatch):
    """Charts are counted from the marking-option sizes alone."""
    from graphrenorm.charts import Chart

    def refuse(*_args, **_kwargs):
        raise AssertionError("a chart was built")
    monkeypatch.setattr(Chart, "_checked_already", refuse)
    monkeypatch.setattr(Chart, "__post_init__", refuse)
    charts = enumerate_charts(irreducibles(divergent_lattice(build(*args))))
    assert len(charts) == count


def test_chart_invariant_validation():
    from graphrenorm.charts import Chart
    from graphrenorm.errors import GraphError
    graph = fx.dunce_cap()
    tree = adapted_spanning_tree(graph, [graph.subgraph({2, 3}),
                                         graph.full()])
    basis = adapted_basis(tree)
    g, G = graph.subgraph({2, 3}), graph.full()
    # marked edge of the outer member may not lie in the inner one
    with pytest.raises(GraphError):
        Chart((g, G), basis, ((2, 0), (2, 1)))
    # marked edge must belong to the tree
    with pytest.raises(GraphError):
        Chart((g, G), basis, ((3, 0), (0, 0)))
    # marked coordinates must be distinct
    with pytest.raises(GraphError):
        Chart((g, g), basis, ((2, 0), (2, 0)))


from hypothesis import given, settings

from conftest import connected_on_touched, small_multigraphs
from graphrenorm.graphs import at_most_logarithmic


@settings(max_examples=25, deadline=None)
@given(small_multigraphs())
def test_pullback_consistency_random_graphs(graph):
    """The f-and-marked-factors identity must hold on arbitrary
    at-most-logarithmic graphs, not just the curated fixtures."""
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    lattice = divergent_lattice(graph)
    if len(lattice.elements) == 1:
        return
    rng = np.random.default_rng(17)
    for chart in minimal_charts(graph)[:6]:
        kern = ChartKernel(chart)
        x = rng.normal(size=(200, kern.n_coords))
        lhs = kern.f(x, 1.0)
        for idx, g in enumerate(chart.nested):
            marked = x[:, kern.marked[idx]]
            lhs = lhs * np.abs(marked) ** ((2 - chart.dim)
                                           * len(g.edge_set))
        rhs = kern.v(kern.rho(x), 1.0)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-11
