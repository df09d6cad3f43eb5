import itertools
import math

import numpy as np
import pytest

from graphrenorm import fixtures as fx
from graphrenorm.bump import BumpSpec, beta_cutoff, smooth_step
from graphrenorm.charts import ChartKernel, chart_for
from graphrenorm.errors import GraphError, NotPrimitiveError
from graphrenorm.lattice import (divergent_lattice, enumerate_nested_sets,
                                 irreducibles, max_nested_cardinality,
                                 maximal_building_set)
from graphrenorm.mc import MCParams, _batch_generator, sample_coordinates
from graphrenorm.renorm import (_cutoff_change_integrand, leading_coefficient,
                                member_coordinates, ms_cutoff_difference,
                                nu_callables, pair_renormalized, period,
                                pullback_test,
                                renormalize_fixed, renormalize_ms,
                                renormalized_integrand, rg_check,
                                locality_check, sharp_cutoffs)
from oracle_utils import (chart_period_oracle, fish_fixed_oracle,
                          fish_ms_oracle, fish_ms_shift_oracle,
                          fish_period_oracle)


def fish_chart():
    graph = fx.fish()
    return chart_for(irreducibles(divergent_lattice(graph)), [graph.full()])


def dunce_chart():
    graph = fx.dunce_cap()
    building = irreducibles(divergent_lattice(graph))
    return chart_for(building,
                     [graph.subgraph({2, 3}), graph.full()])


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_fish_period_oracle_value():
    assert fish_period_oracle() == pytest.approx(-math.pi ** 2 / 2,
                                                 abs=1e-10)


def test_fish_period_mc():
    est = period(fx.fish(), MCParams(samples=400_000, batches=40, seed=21))
    assert est.agrees_with(fish_period_oracle())
    assert est.stderr / abs(est.value) < 0.01


def test_period_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        period(fx.dunce_cap())
    with pytest.raises(NotPrimitiveError):
        period(fx.k_complete(3))


def test_period_marking_independence_small():
    ests = [chart_period_oracle(fx.fish(),
                                MCParams(samples=200_000, batches=20,
                                         seed=31),
                                marking=(0, i)) for i in range(2)]
    tol = 3 * math.hypot(ests[0].stderr, ests[1].stderr)
    assert abs(ests[0].value - ests[1].value) <= tol


def test_k4_period_cross_seed():
    a = period(fx.k_complete(4), MCParams(samples=400_000, batches=40,
                                          seed=1))
    b = period(fx.k_complete(4), MCParams(samples=400_000, batches=40,
                                          seed=2))
    tol = 3 * math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= tol


def test_period_deterministic():
    p = MCParams(samples=100_000, batches=10, seed=77)
    assert period(fx.fish(), p) == period(fx.fish(), p)


# ---------------------------------------------------------------------------
# leading Laurent coefficient
# ---------------------------------------------------------------------------

def test_leading_coefficient_fish_is_period():
    mcp = MCParams(samples=200_000, batches=20, seed=9)
    lead = leading_coefficient(fx.fish(), mcp)
    ref = period(fx.fish(), mcp)
    assert lead.agrees_with(fish_period_oracle())
    assert abs(lead.value - ref.value) <= 3 * math.hypot(lead.stderr,
                                                         ref.stderr)


def test_leading_coefficient_dunce_small():
    lead = leading_coefficient(fx.dunce_cap(),
                               MCParams(samples=400_000, batches=40,
                                        seed=13))
    assert lead.agrees_with(math.pi ** 4 / 4)


def test_leading_coefficient_two_sided_cross_seed():
    a = leading_coefficient(fx.two_sided_bubbles(1, 1),
                            MCParams(samples=200_000, batches=20, seed=3))
    b = leading_coefficient(fx.two_sided_bubbles(1, 1),
                            MCParams(samples=200_000, batches=20, seed=4))
    tol = 3 * math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= tol


def test_leading_coefficient_requires_irreducible():
    from graphrenorm.graphs import Graph
    chain = Graph(("0", "1", "2"), ((0, 1), (0, 1), (1, 2), (1, 2)), 0, 4)
    with pytest.raises(GraphError):
        leading_coefficient(chain)


# ---------------------------------------------------------------------------
# pole profile
# ---------------------------------------------------------------------------

def pole_strata(building):
    """Member labels of the nested sets of each size k: the divisor
    intersections supporting the pole of order k."""
    strata = {}
    for ns in enumerate_nested_sets(building):
        strata.setdefault(len(ns.members), []).append(
            tuple(m.label() for m in ns.members))
    return strata


def test_pole_profile_dunce():
    graph = fx.dunce_cap()
    building = irreducibles(divergent_lattice(graph))
    assert max_nested_cardinality(building).max_cardinality == 2
    strata = pole_strata(building)
    assert len(strata[1]) == 2
    assert strata[2] == [("{e2,e3}", "{e0,e1,e2,e3}")]


def test_pole_profile_fish():
    graph = fx.fish()
    building = irreducibles(divergent_lattice(graph))
    assert max_nested_cardinality(building).max_cardinality == 1


def test_pole_profile_insertion_chain():
    graph = fx.insertion_chain(3)
    building = maximal_building_set(divergent_lattice(graph))
    assert max_nested_cardinality(building).max_cardinality == 3


# ---------------------------------------------------------------------------
# renormalized pairings against quadrature oracles
# ---------------------------------------------------------------------------

def test_renormalize_fixed_fish_oracle():
    chart = fish_chart()
    graph = chart.graph
    est = renormalize_fixed(
        chart, {graph.full(): BumpSpec(1.0, kind="subtraction_nu")},
        BumpSpec(2.0), 1.0, MCParams(samples=1_000_000, batches=40, seed=5))
    assert est.agrees_with(fish_fixed_oracle(2.0, 1.0))


def test_renormalize_fixed_zero_test_function():
    chart = fish_chart()
    graph = chart.graph
    est = renormalize_fixed(
        chart, {graph.full(): BumpSpec(1.0, kind="subtraction_nu")},
        lambda y: np.zeros(len(y)), 1.0,
        MCParams(samples=50_000, batches=5, seed=5))
    assert est.value == 0.0


def test_renormalize_fixed_no_overlap_reduces_to_plain_integral():
    """Test function supported away from the divisor, cutoff supported
    inside its complement: every counterterm vanishes pointwise."""
    chart = fish_chart()
    graph = chart.graph
    kern = ChartKernel(chart)
    psi = BumpSpec(0.5, center=(3.0, 0.0, 0.0, 0.0))

    def tiny_nu(x, _kern, k):
        marked = x[:, kern.marked[k]]
        own = x[:, member_coordinates(kern, k)[1]]
        scale = np.sqrt(1.0 + np.sum(own * own, axis=1))
        from graphrenorm.bump import beta_cutoff
        return beta_cutoff(np.abs(marked) * scale / 0.2)

    mcp = MCParams(samples=400_000, batches=20, seed=6)
    est = renormalize_fixed(chart, [tiny_nu], psi, 1.0, mcp)
    plain = pair_renormalized(
        kern, [lambda x, *_: np.zeros(len(x))], pullback_test(psi), 1.0,
        mcp)
    assert abs(est.value - plain.value) <= 1e-12 * max(1, abs(est.value))


def test_renormalize_ms_fish_oracle():
    chart = fish_chart()
    est = renormalize_ms(chart, 1.0, BumpSpec(2.0), 1.0,
                         MCParams(samples=1_000_000, batches=40, seed=6))
    assert est.agrees_with(fish_ms_oracle(2.0, 1.0))


def test_ms_cutoff_errors():
    chart = fish_chart()
    with pytest.raises(GraphError):
        renormalize_ms(chart, -1.0, BumpSpec(2.0))


def test_holomorphy_guard():
    chart = fish_chart()
    graph = chart.graph
    with pytest.raises(GraphError):
        renormalize_fixed(
            chart, {graph.full(): BumpSpec(1.0, kind="subtraction_nu")},
            BumpSpec(2.0), 3.0)


def _wrong_center_calls():
    """Each entry point that pairs against psi, with a centre one entry
    short of its chart's coordinates."""
    fish = fish_chart()
    nu = {fish.graph.full(): BumpSpec(1.0, kind="subtraction_nu")}
    psi = BumpSpec(2.0, center=(0.0,) * 3)  # the fish chart has 4
    graph = fx.two_sided_bubbles(1, 1)
    return {
        "fixed": lambda: renormalize_fixed(fish, nu, psi),
        "ms": lambda: renormalize_ms(fish, 1.0, psi),
        "ms_difference": lambda: ms_cutoff_difference(fish, 0.7, 1.3, psi),
        "rg": lambda: rg_check(fish, nu, nu, psi),
        "locality": lambda: locality_check(
            graph, graph.subgraph({0, 1}), graph.subgraph({2, 3}),
            numerical=True, psi=BumpSpec(3.0, center=(0.0,) * 11)),
    }


@pytest.mark.parametrize("entry", ["fixed", "ms", "ms_difference", "rg",
                                   "locality"])
def test_center_of_wrong_length_is_refused_before_sampling(entry,
                                                           monkeypatch):
    from graphrenorm import renorm

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(renorm, "mc_integrate", no_sampling)
    with pytest.raises(ValueError, match="center has"):
        _wrong_center_calls()[entry]()


def test_ms_cutoff_change_matches_shell_formula():
    """R_{c'} - R_c computed three ways: two independent runs subtracted,
    the single-pass shell integrand, and the analytic formula."""
    chart = fish_chart()
    psi = BumpSpec(2.0)
    c1, c2 = 0.7, 1.3
    shell = ms_cutoff_difference(chart, c1, c2, psi, 1.0,
                                 MCParams(samples=1_000_000, batches=40,
                                          seed=8))
    big = renormalize_ms(chart, c2, psi, 1.0,
                         MCParams(samples=1_000_000, batches=40, seed=9))
    small = renormalize_ms(chart, c1, psi, 1.0,
                           MCParams(samples=1_000_000, batches=40, seed=10))
    two_run = big.value - small.value
    two_run_err = math.hypot(big.stderr, small.stderr)
    assert abs(shell.value - two_run) <= 3 * math.hypot(shell.stderr,
                                                        two_run_err)
    analytic = fish_ms_shift_oracle(math.exp(-1.0), c1, c2)
    assert shell.agrees_with(analytic)


def test_scheme_consistency_mollified_cutoffs():
    """Fixed-conditions cutoffs squeezing onto the sharp marked-coordinate
    step reproduce minimal subtraction within the stated budget.

    The mollified cutoff is a smooth step in |x_m| of width eps times a
    broad bump cutting the other directions at radius R; the budget is
    3 sigma plus a calibrated eps + 1/R allowance.
    """
    chart = fish_chart()
    kern = ChartKernel(chart)
    psi = BumpSpec(2.0)
    ms = fish_ms_oracle(2.0, 1.0)
    mcp = MCParams(samples=1_500_000, batches=40, seed=12)
    diffs = []
    # budget: 3 sigma + 6 eps (step smearing) + 60 log(R)/R (missing
    # counterterm mass beyond the direction cutoff)
    for eps, big_r in ((0.2, 40.0), (0.05, 160.0)):
        def molly(x, _kern=None, _idx=None, eps=eps, big_r=big_r):
            marked = np.abs(x[:, kern.marked[0]])
            own = x[:, member_coordinates(kern, 0)[1]]
            radial = np.sqrt(np.sum(own * own, axis=1))
            step = smooth_step((marked - 1.0) / eps + 1.0)
            return step * smooth_step(radial / big_r - 0.5)

        est = renormalize_fixed(chart, [molly], psi, 1.0, mcp)
        budget = 3 * est.stderr + 6.0 * eps \
            + 60.0 * math.log(big_r) / big_r
        diffs.append((abs(est.value - ms), budget))
    assert diffs[0][0] <= diffs[0][1]
    assert diffs[1][0] <= diffs[1][1]
    assert diffs[1][0] < diffs[0][0]


# ---------------------------------------------------------------------------
# integrand boundedness invariant
# ---------------------------------------------------------------------------

def bubble2_chart():
    graph = fx.bubble_chain(2)
    building = irreducibles(divergent_lattice(graph))
    nested = max(enumerate_nested_sets(building),
                 key=lambda n: len(n.members))
    return chart_for(building, nested.members)


def nm11_chart():
    graph = fx.two_sided_bubbles(1, 1)
    building = irreducibles(divergent_lattice(graph))
    nested = max(enumerate_nested_sets(building),
                 key=lambda n: len(n.members))
    return chart_for(building, nested.members)


@pytest.mark.parametrize("chart_builder", [fish_chart, dunce_chart,
                                           bubble2_chart, nm11_chart])
def test_subtracted_integrand_bounded(chart_builder):
    chart = chart_builder()
    kern = ChartKernel(chart)
    nu = [BumpSpec(1.0, kind="subtraction_nu")] * len(chart.nested)
    fn = renormalized_integrand(kern, nu, pullback_test(BumpSpec(2.0)), 1.0)
    rng = np.random.default_rng(0)
    x = rng.standard_cauchy(size=(100_000, kern.n_coords))
    vals = fn(x)
    assert np.isfinite(vals).all()
    assert np.isfinite(vals.var())
    # log-power growth near each stratum
    base = rng.normal(size=kern.n_coords)
    n_members = len(chart.nested)
    for idx in range(n_members):
        mags, logs = [], []
        for expo in range(1, 13):
            pt = base.copy()
            pt[kern.marked[idx]] = 10.0 ** -expo
            mags.append(abs(float(fn(pt[None, :])[0])))
            logs.append((1.0 + abs(math.log(10.0 ** -expo))) ** n_members)
        scale = max(m / l for m, l in zip(mags[:3], logs[:3]))
        for m, l in zip(mags, logs):
            assert m <= 3.0 * max(scale, 1e-12) * l


# ---------------------------------------------------------------------------
# renormalization group, small versions
# ---------------------------------------------------------------------------

def _nu_pair(chart, r1, r2):
    old = {g: BumpSpec(r1, kind="subtraction_nu") for g in chart.nested}
    new = {g: BumpSpec(r2, kind="subtraction_nu") for g in chart.nested}
    return old, new


def test_rg_fish_small():
    chart = fish_chart()
    nu, nup = _nu_pair(chart, 0.8, 1.2)
    rep = rg_check(chart, nu, nup, BumpSpec(2.0),
                   MCParams(samples=600_000, batches=30, seed=41))
    assert rep.passed
    assert len(rep.terms) == 1


def test_rg_equal_points_vanish_exactly():
    chart = fish_chart()
    nu, _ = _nu_pair(chart, 1.0, 1.0)
    rep = rg_check(chart, nu, dict(nu), BumpSpec(2.0),
                   MCParams(samples=100_000, batches=10, seed=2))
    assert rep.lhs.value == 0.0
    assert rep.rhs.value == 0.0
    assert rep.passed


def test_rg_dunce_small():
    chart = dunce_chart()
    nu, nup = _nu_pair(chart, 0.8, 1.2)
    rep = rg_check(chart, nu, nup, BumpSpec(2.0),
                   MCParams(samples=800_000, batches=20, seed=19))
    assert rep.passed
    assert len(rep.terms) == 3
    # term structure: the three counterterm pieces of the two-member chart
    subsets = sorted(t.subset for t in rep.terms)
    assert subsets == [("{e0,e1,e2,e3}",), ("{e2,e3}",),
                       ("{e2,e3}", "{e0,e1,e2,e3}")]


def test_rg_three_level_chain():
    """Chain of three nested members: exercises counterterm coefficients
    whose contracted charts carry members strictly below a non-top element
    of K, and remainders above K."""
    graph = fx.insertion_chain(3)
    building = irreducibles(divergent_lattice(graph))
    top = max(enumerate_nested_sets(building), key=lambda n: len(n.members))
    chart = chart_for(building, top.members)
    assert len(chart.nested) == 3
    nu, nup = _nu_pair(chart, 0.8, 1.2)
    rep = rg_check(chart, nu, nup, BumpSpec(2.0),
                   MCParams(samples=400_000, batches=20, seed=23),
                   mc_factors=MCParams(samples=400_000, batches=20,
                                       seed=23))
    assert len(rep.terms) == 7
    assert rep.passed


def _as_callable(spec):
    def cutoff(x, kern, k):
        m_idx, own_idx = member_coordinates(kern, k)
        return spec.nu_values(x[:, m_idx], x[:, own_idx])
    return cutoff


def _chain3_chart():
    graph = fx.insertion_chain(3)
    building = irreducibles(divergent_lattice(graph))
    top = max(enumerate_nested_sets(building), key=lambda n: len(n.members))
    return chart_for(building, top.members)


@pytest.mark.parametrize("make_chart", [dunce_chart, _chain3_chart],
                         ids=["dunce", "chain3"])
def test_rg_callable_cutoffs_match_bump_specs(make_chart):
    """Callable cutoffs reach every factor of the RG check, the new-point
    test factor of each coefficient included."""
    chart = make_chart()
    nu, nup = _nu_pair(chart, 0.8, 1.2)
    mcp = MCParams(samples=20_000, batches=10, seed=7)
    rep = rg_check(chart, nu, nup, BumpSpec(2.0), mcp)
    wrapped = rg_check(chart, {g: _as_callable(v) for g, v in nu.items()},
                       {g: _as_callable(v) for g, v in nup.items()},
                       BumpSpec(2.0), mcp)
    assert wrapped == rep


def test_contracted_chart_structure_on_chain():
    from graphrenorm.renorm import contract_chart
    graph = fx.insertion_chain(3)
    building = irreducibles(divergent_lattice(graph))
    top = max(enumerate_nested_sets(building), key=lambda n: len(n.members))
    chart = chart_for(building, top.members)
    # contract the middle member: its coefficient chart keeps the bottom
    # member, the remainder chart keeps (the image of) the top one
    family = [chart.nested[1]]
    child, _, _ = contract_chart(chart, chart.nested[1], family)
    assert child.graph.n_edges == 4
    assert [len(m.edge_set) for m in child.nested] == [2, 4]
    rem, emap, _ = contract_chart(chart, graph.full(), family)
    assert rem.graph.n_edges == 2
    assert [sorted(m.edge_set) for m in rem.nested] == [[0, 1]]
    assert set(emap) == {4, 5}


def test_rg_terms_holding_the_whole_graph_pair_psi_at_zero():
    """G // K is a point when K holds G: the pairing of such a term is
    psi(0) exactly, with no Monte Carlo error, and every other pairing is
    sampled."""
    chart = dunce_chart()
    nu, nup = _nu_pair(chart, 0.8, 1.2)
    psi = BumpSpec(2.0)
    rep = rg_check(chart, nu, nup, psi,
                   MCParams(samples=20_000, batches=10, seed=7))
    psi0 = float(psi.test_values(np.zeros((1, 1)))[0])
    whole = chart.graph.full().label()
    holding = [t for t in rep.terms if whole in t.subset]
    assert len(holding) == 2
    for t in holding:
        assert t.pairing.value == psi0 and t.pairing.stderr == 0.0
    for t in rep.terms:
        if whole not in t.subset:
            assert t.pairing.stderr > 0.0


# ---------------------------------------------------------------------------
# support-gated subset sum against the ungated 2^|N| loops
# ---------------------------------------------------------------------------

def _naive_renormalized(kern, nu_fns, test, s, x):
    total = np.zeros(len(x))
    for K in _all_subsets(len(kern.members)):
        if K:
            xz = x.copy()
            for k in K:
                xz[:, kern.marked[k]] = 0.0
        else:
            xz = x
        term = kern.f(xz, s) * test(xz, kern)
        for k in K:
            term = term * nu_fns[k](x)
        total += (-1.0) ** len(K) * term
    return total * kern.u(x, s)


def _naive_ms_shift(kern, test, c_small, c_large, s, x):
    total = np.zeros(len(x))
    for K in _all_subsets(len(kern.members))[1:]:
        xz = x.copy()
        for k in K:
            xz[:, kern.marked[k]] = 0.0
        term = kern.f(xz, s) * test(xz, kern)
        big = np.ones(len(x))
        small = np.ones(len(x))
        for k in K:
            m = np.abs(x[:, kern.marked[k]])
            big = big * (m <= c_large)
            small = small * (m <= c_small)
        total += (-1.0) ** len(K) * term * (big - small)
    return total * kern.u(x, s)


def _naive_rg_lhs(kern, nu_fns, nup_fns, test, x):
    total = np.zeros(len(x))
    for K in _all_subsets(len(kern.members))[1:]:
        xz = x.copy()
        for k in K:
            xz[:, kern.marked[k]] = 0.0
        base = kern.f(xz, 1.0) * test(xz, kern)
        new = np.ones(len(x))
        old = np.ones(len(x))
        for k in K:
            new = new * nup_fns[k](x)
            old = old * nu_fns[k](x)
        total += (-1.0) ** len(K) * base * (new - old)
    return total * kern.u(x, 1.0)


def _all_subsets(n):
    return [c for r in range(n + 1)
            for c in itertools.combinations(range(n), r)]


def _mc_points(kern, n, seed):
    """Points drawn the way pair_renormalized draws them."""
    powers = [4] * kern.n_coords
    for idx in kern.marked:
        powers[idx] = 1
    return sample_coordinates(_batch_generator(seed, 0), n, powers)[0]


def _assert_same_for_mc(gated, naive):
    """Bit-for-bit equal once non-finite values are dropped as zeros, which
    is all mc_integrate ever sees of an integrand."""
    a = np.nan_to_num(gated, nan=0.0, posinf=0.0, neginf=0.0)
    b = np.nan_to_num(naive, nan=0.0, posinf=0.0, neginf=0.0)
    assert np.array_equal(a, b), \
        f"{np.count_nonzero(a != b)} of {len(a)} rows differ"
    assert a.tobytes() == b.tobytes()


def _count_f_points(kern):
    points = []
    f = kern.f

    def counted(x, s=1.0):
        points.append(len(x))
        return f(x, s)

    kern.f = counted
    return points


def _integrand_pair(kind, kern, psi):
    """(gated integrand, naive reference) for one integrand kind."""
    test = pullback_test(psi)
    n = len(kern.members)
    if kind == "fixed":
        nu = [BumpSpec(1.0, kind="subtraction_nu")] * n
        return (renormalized_integrand(kern, nu, test, 1.0),
                lambda x: _naive_renormalized(
                    kern, nu_callables(kern, nu), test, 1.0, x))
    if kind == "ms":
        return (_cutoff_change_integrand(kern, sharp_cutoffs(kern, 1.3),
                                         sharp_cutoffs(kern, 0.7), test),
                lambda x: _naive_ms_shift(kern, test, 0.7, 1.3, 1.0, x))
    old = [BumpSpec(0.8, kind="subtraction_nu")] * n
    new = [BumpSpec(1.2, kind="subtraction_nu")] * n
    return (_cutoff_change_integrand(kern, new, old, test),
            lambda x: _naive_rg_lhs(kern, nu_callables(kern, old),
                                    nu_callables(kern, new), test, x))


@pytest.mark.parametrize("kind", ["fixed", "ms", "rg"])
@pytest.mark.parametrize("chart_builder,size",
                         [(fish_chart, 1), (dunce_chart, 2),
                          (nm11_chart, 3)])
def test_gated_integrand_matches_naive_loop(chart_builder, size, kind):
    kern = ChartKernel(chart_builder())
    assert len(kern.members) == size
    gated, naive = _integrand_pair(kind, kern, BumpSpec(2.0))
    x = _mc_points(kern, 20_000, seed=size)
    points = _count_f_points(kern)
    vals = gated(x)
    gated_points = sum(points)
    _assert_same_for_mc(vals, naive(x))
    # most rows are dead and f skips them
    assert 0 < np.count_nonzero(vals) < len(x) // 2
    n_terms = 2 ** size - (kind != "fixed")
    assert 0 < gated_points < n_terms * len(x) // 2


def test_gated_integrand_callable_cutoff():
    kern = ChartKernel(dunce_chart())

    def tiny_nu(x, _kern, k):
        marked = x[:, kern.marked[k]]
        own = x[:, member_coordinates(kern, k)[1]]
        scale = np.sqrt(1.0 + np.sum(own * own, axis=1))
        return beta_cutoff(np.abs(marked) * scale / 0.2)

    nu = [tiny_nu, tiny_nu]
    test = pullback_test(BumpSpec(2.0))
    x = _mc_points(kern, 20_000, seed=4)
    _assert_same_for_mc(
        renormalized_integrand(kern, nu, test, 1.0)(x),
        _naive_renormalized(kern, nu_callables(kern, nu), test, 1.0, x))


@pytest.mark.parametrize("kind", ["fixed", "ms", "rg"])
def test_gated_integrand_no_live_row(kind):
    """Far from the origin every cutoff and the test factor vanish: the
    batch is all zeros and the kernel is never evaluated."""
    kern = ChartKernel(nm11_chart())
    gated, naive = _integrand_pair(kind, kern, BumpSpec(2.0))
    x = np.full((64, kern.n_coords), 50.0)
    x[::2] *= -1.0
    points = _count_f_points(kern)
    vals = gated(x)
    assert points == []
    assert vals.tobytes() == np.zeros(len(x)).tobytes()
    _assert_same_for_mc(vals, naive(x))


@pytest.mark.parametrize("kind", ["fixed", "ms", "rg"])
def test_gated_integrand_marked_coordinate_zero(kind):
    """u is infinite on the subtraction locus; such rows are dropped the
    same way as before, live or dead."""
    kern = ChartKernel(dunce_chart())
    gated, naive = _integrand_pair(kind, kern, BumpSpec(2.0))
    x = _mc_points(kern, 2_000, seed=9)
    x[:500, kern.marked[0]] = 0.0
    x[500:1000, kern.marked[1]] = 0.0
    with np.errstate(all="ignore"):
        _assert_same_for_mc(gated(x), naive(x))
        point = np.zeros((1, kern.n_coords))
        _assert_same_for_mc(gated(point), naive(point))


def test_gated_integrand_nonfinite_test_factor():
    """A term is 0 where one of its cutoffs or its test value is 0, whatever
    its other values; a NaN test value still poisons every row where its
    term is live."""
    kern = ChartKernel(dunce_chart())

    def psi(y):
        r = np.sqrt(np.sum(y * y, axis=1))
        return np.where(r < 0.3, np.nan, (r < 3.0) * 1.0)

    nu = [BumpSpec(1.0, kind="subtraction_nu")] * 2
    nu_fns = nu_callables(kern, nu)
    test = pullback_test(psi)
    x = _mc_points(kern, 20_000, seed=5)
    total = np.zeros(len(x))
    poisoned = np.zeros(len(x), dtype=bool)
    with np.errstate(invalid="ignore"):
        for K in _all_subsets(len(kern.members)):
            xz = x.copy()
            xz[:, [kern.marked[k] for k in K]] = 0.0
            t = test(xz, kern)
            term = kern.f(xz, 1.0) * t
            dead = t == 0
            for k in K:
                nu_k = nu_fns[k](x)
                term = term * nu_k
                dead |= nu_k == 0
            total += (-1.0) ** len(K) * np.where(dead, 0.0, term)
            poisoned |= np.isnan(t) & ~dead
        naive = total * kern.u(x, 1.0)
        vals = renormalized_integrand(kern, nu, test, 1.0)(x)
    assert poisoned.any()
    assert np.array_equal(np.isnan(vals), poisoned)
    assert np.array_equal(vals, naive, equal_nan=True)
    _assert_same_for_mc(vals, naive)


def _term_factors(kind, kern, x):
    """(K, factors) of every term of one integrand kind, as
    ``_integrand_pair`` builds it."""
    n = len(kern.members)
    if kind == "fixed":
        nu = nu_callables(kern, [BumpSpec(1.0, kind="subtraction_nu")] * n)
        return [(K, [nu[k](x) for k in K]) for K in _all_subsets(n)]
    if kind == "ms":
        new, old = sharp_cutoffs(kern, 1.3), sharp_cutoffs(kern, 0.7)
    else:
        new = [BumpSpec(1.2, kind="subtraction_nu")] * n
        old = [BumpSpec(0.8, kind="subtraction_nu")] * n
    new, old = nu_callables(kern, new), nu_callables(kern, old)
    out = []
    for K in _all_subsets(n)[1:]:
        big, small = np.ones(len(x)), np.ones(len(x))
        for k in K:
            big = big * new[k](x)
            small = small * old[k](x)
        out.append((K, [big - small]))
    return out


@pytest.mark.parametrize("kind", ["fixed", "ms", "rg"])
@pytest.mark.parametrize("chart_builder,size",
                         [(fish_chart, 1), (dunce_chart, 2),
                          (nm11_chart, 3)])
def test_gated_rows_are_the_live_terms(chart_builder, size, kind):
    """One test-factor call on the rows where every factor of K is nonzero,
    and one f call on those of them where the test value at x_K is
    nonzero, summed over K."""
    kern = ChartKernel(chart_builder())
    psi = BumpSpec(2.0)
    test_rows = []

    def counted_psi(y):
        test_rows.append(len(y))
        return psi.test_values(y)

    gated, _naive = _integrand_pair(kind, kern, counted_psi)
    x = _mc_points(kern, 20_000, seed=size)
    factor_rows = f_rows = 0
    for K, factors in _term_factors(kind, kern, x):
        live = np.ones(len(x), dtype=bool)
        for fac in factors:
            live &= fac != 0
        xz = x.copy()
        xz[:, [kern.marked[k] for k in K]] = 0.0
        factor_rows += np.count_nonzero(live)
        f_rows += np.count_nonzero(live & (psi.test_values(kern.rho(xz))
                                           != 0))
    points = _count_f_points(kern)
    gated(x)
    assert test_rows == [factor_rows]
    assert points == [f_rows] and f_rows > 0
