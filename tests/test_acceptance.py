"""Acceptance suite: one test per criterion, each printing a PASS line.

Stochastic assertions run at 3 combined standard errors with pinned seeds;
deterministic quadrature oracles at 1e-8 absolute / 1e-6 relative.
"""

import itertools
import math
import time

import numpy as np
import pytest

from graphrenorm import fixtures as fx
from graphrenorm.bump import BumpSpec, beta_cutoff
from graphrenorm.charts import ChartKernel, chart_for, enumerate_charts
from graphrenorm.cli import main
from graphrenorm.graphs import (Graph, adapted_spanning_tree,
                                at_most_logarithmic, is_connected,
                                is_spanning_forest_of)
from graphrenorm.homology import homology_from_atoms, homology_gm_oracle
from graphrenorm.lattice import (check_lattice_properties, divergent_lattice,
                                 enumerate_nested_sets, irreducibles,
                                 max_nested_cardinality,
                                 maximal_building_set, saturated_poset)
from graphrenorm.mc import MCParams
from graphrenorm.renorm import (leading_coefficient, locality_check,
                                ms_cutoff_difference, period,
                                renormalize_ms, rg_check)
from graphrenorm.toy import (standard_bump_1d, toy_pole_coefficient,
                             toy_renormalize, TestFunction1D)
from oracle_utils import (fish_fixed_oracle, fish_ms_shift_oracle,
                          fish_period_oracle)
from test_toy import oracle_fixed, oracle_ms


def _report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{tail}")
    assert ok, f"criterion {number} failed: {name} {tail}"


# ---------------------------------------------------------------------------
# 1. paper examples, combinatorial and deterministic
# ---------------------------------------------------------------------------

def test_c01_combinatorial_examples():
    start = time.monotonic()
    ok = True

    # K3 saturated poset
    k3 = fx.k_complete(3)
    sat = saturated_poset(k3)
    sizes = sorted(len(s.edge_set) for s in sat.elements)
    ok &= sizes == [0, 1, 1, 1, 3]

    # dunce's cap lattice and adapted tree
    dunce = fx.dunce_cap()
    D = divergent_lattice(dunce)
    ok &= [s.sorted_edges for s in D.elements] == \
        [(), (2, 3), (0, 1, 2, 3)]
    tree = adapted_spanning_tree(
        dunce, [dunce.subgraph({2, 3}), dunce.full()])
    ok &= tree.sorted_edges == (0, 2)
    ok &= is_spanning_forest_of(frozenset({0, 1}), dunce.full())
    ok &= not is_spanning_forest_of(frozenset({0, 1}),
                                    dunce.subgraph({2, 3}))

    # K4 irreducibles in the saturated lattice
    k4 = fx.k_complete(4)
    GK4 = saturated_poset(k4)
    irr = irreducibles(GK4)
    counts = {}
    for m in irr.members:
        counts[len(m.edge_set)] = counts.get(len(m.edge_set), 0) + 1
    ok &= counts == {1: 6, 3: 4, 6: 1}
    reducible = [s for s in GK4.elements
                 if s.edge_set and s not in set(irr.members)]
    ok &= len(reducible) == 3 and \
        all(len(s.edge_set) == 2 for s in reducible)

    # bubble chains: |I(D)| = n(n+1)/2
    for n in (2, 3):
        D_n = divergent_lattice(fx.bubble_chain(n))
        ok &= len(irreducibles(D_n).members) == n * (n + 1) // 2

    # insertion chains: total order, nested sets = nonempty subsets
    for n in (2, 3):
        D_n = divergent_lattice(fx.insertion_chain(n))
        chain = [s for s in D_n.elements]
        ok &= all(a.edge_set <= b.edge_set
                  for a, b in zip(chain, chain[1:]))
        nested = enumerate_nested_sets(maximal_building_set(D_n))
        ok &= len(nested) == 2 ** n - 1

    # two-sided bubbles: minimal building set {g1, h1, G}
    nm = fx.two_sided_bubbles(1, 1)
    I_nm = irreducibles(divergent_lattice(nm))
    ok &= sorted(m.sorted_edges for m in I_nm.members) == \
        [(0, 1), (0, 1, 2, 3, 4, 5), (2, 3)]

    elapsed = time.monotonic() - start
    # six example groups at < 1 s each
    _report(1, "paper examples reproduced", ok and elapsed < 6.0,
            f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. lattice property suite, fixtures plus exhaustive small multigraphs
# ---------------------------------------------------------------------------

def _exhaustive_small_graphs():
    for n_vert in range(2, 5):
        pairs = list(itertools.combinations(range(n_vert), 2))
        for m in range(1, 7):
            for combo in itertools.combinations_with_replacement(pairs, m):
                graph = Graph(tuple(str(i) for i in range(n_vert)),
                              tuple(combo), 0, 4)
                touched = {v for e in combo for v in e}
                if len(touched) != n_vert:
                    continue
                if not is_connected(graph.full()):
                    continue
                if not at_most_logarithmic(graph.full()):
                    continue
                yield graph


def test_c02_lattice_property_suite():
    start = time.monotonic()
    fixtures = [fx.fish(), fx.dunce_cap(), fx.bubble_chain(2),
                fx.bubble_chain(3), fx.insertion_chain(3),
                fx.two_sided_bubbles(1, 1), fx.two_sided_bubbles(2, 1),
                fx.k_complete(4)]
    count = 0
    ok = True
    for graph in itertools.chain(fixtures, _exhaustive_small_graphs()):
        D = divergent_lattice(graph)
        report = check_lattice_properties(D)
        ok &= report.ok
        if len(D.elements) > 1:
            ok &= max_nested_cardinality(
                maximal_building_set(D)).all_maximal_equal
        count += 1
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(2, "lattice property suite", ok and elapsed < 30.0,
            f"{count} graphs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. homology oracle equivalence
# ---------------------------------------------------------------------------

def test_c03_homology_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for graph in (fx.fish(), fx.dunce_cap(), fx.bubble_chain(2),
                  fx.bubble_chain(3)):
        lattice = divergent_lattice(graph)
        ok &= homology_from_atoms(lattice) == homology_gm_oracle(lattice)
    table = homology_from_atoms(divergent_lattice(fx.bubble_chain(2)))
    ok &= table.as_dict() == {0: 1, 3: 2, 6: 1}
    elapsed = time.monotonic() - start
    _report(3, "homology oracle equivalence", ok and elapsed < 10.0,
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. pullback consistency and Jacobian
# ---------------------------------------------------------------------------

def test_c04_pullback_consistency():
    start = time.monotonic()
    builds = [fx.fish(), fx.dunce_cap(), fx.bubble_chain(2),
              fx.insertion_chain(3), fx.two_sided_bubbles(1, 1),
              fx.k_complete(4)]
    rng = np.random.default_rng(2024)
    ok = True
    n_charts = 0
    for graph in builds:
        charts = enumerate_charts(irreducibles(divergent_lattice(graph)))
        for chart in charts:
            kern = ChartKernel(chart)
            x = rng.normal(size=(1000, kern.n_coords))
            lhs = kern.f(x, 1.0)
            for idx, g in enumerate(chart.nested):
                marked = x[:, kern.marked[idx]]
                lhs = lhs * np.abs(marked) ** ((2 - chart.dim)
                                               * len(g.edge_set))
            rhs = kern.v(kern.rho(x), 1.0)
            ok &= float(np.max(np.abs(lhs - rhs) / np.abs(rhs))) < 1e-12
            # finite-difference Jacobian vs the measure factor
            x0 = rng.normal(size=kern.n_coords) * 1.5
            h = 1e-5
            n = kern.n_coords
            jac = np.zeros((n, n))
            for j in range(n):
                xp, xm = x0.copy(), x0.copy()
                xp[j] += h
                xm[j] -= h
                jac[:, j] = (kern.rho(xp)[0] - kern.rho(xm)[0]) / (2 * h)
            fd = abs(np.linalg.det(jac))
            an = float(kern.measure_factor(x0[None, :])[0])
            ok &= abs(fd - an) / an < 1e-6
            n_charts += 1
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(4, "pullback and Jacobian consistency",
            ok and elapsed < 30.0, f"{n_charts} charts, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. fish period
# ---------------------------------------------------------------------------

def test_c05_fish_period():
    start = time.monotonic()
    target = -math.pi ** 2 / 2
    oracle = fish_period_oracle()
    ok = abs(oracle - target) < 1e-10

    est = period(fx.fish(), MCParams(samples=10_000_000, batches=50,
                                     seed=1))
    ok &= est.agrees_with(target)
    ok &= est.stderr / abs(est.value) <= 0.005

    marked = [period(fx.fish(),
                     MCParams(samples=2_000_000, batches=40, seed=2),
                     marking=(0, i)) for i in range(4)]
    for a, b in itertools.combinations(marked, 2):
        tol = 3 * math.hypot(a.stderr, b.stderr)
        ok &= abs(a.value - b.value) <= tol
    elapsed = time.monotonic() - start
    _report(5, "fish period", ok and elapsed < 60.0,
            f"{est.value:.5f} +/- {est.stderr:.5f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. dunce leading Laurent coefficient
# ---------------------------------------------------------------------------

def test_c06_dunce_leading_coefficient():
    start = time.monotonic()
    est = leading_coefficient(fx.dunce_cap(),
                              MCParams(samples=10_000_000, batches=50,
                                       seed=1))
    target = math.pi ** 4 / 4
    ok = est.agrees_with(target)
    elapsed = time.monotonic() - start
    _report(6, "dunce leading Laurent coefficient",
            ok and elapsed < 120.0,
            f"{est.value:.4f} +/- {est.stderr:.4f} vs {target:.4f}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. toy-model operators
# ---------------------------------------------------------------------------

def test_c07_toy_operators():
    phi = standard_bump_1d()
    radius = 0.7
    nu = TestFunction1D(
        lambda x: float(beta_cutoff(np.array([abs(x) / radius]))[0]),
        (-radius, radius))
    ms = toy_renormalize("ms", 4, phi, 1.0)
    fixed = toy_renormalize("fixed", 4, phi, 1.0, nu=nu)
    ok = abs(ms.value - oracle_ms(phi)) < 1e-8
    ok &= abs(fixed.value - oracle_fixed(phi, nu)) < 1e-8
    phi0 = phi(0.0)
    ok &= ms.pole_coefficient == pytest.approx(-2.0 / 4.0 * phi0,
                                               abs=1e-15)
    ok &= toy_pole_coefficient(1, phi0) == pytest.approx(-2.0 * phi0,
                                                         abs=1e-15)
    _report(7, "toy-model operators vs quadrature oracle", ok)


# ---------------------------------------------------------------------------
# 8. renormalization-group theorem
# ---------------------------------------------------------------------------

def _nu_maps(chart, radius):
    return {g: BumpSpec(radius, kind="subtraction_nu")
            for g in chart.nested}


@pytest.mark.slow
def test_c08_renormalization_group():
    start = time.monotonic()
    psi = BumpSpec(2.0)
    pairs = ((0.8, 1.2), (0.6, 1.0))
    seeds = (101, 202)
    ok = True
    details = []

    fish_graph = fx.fish()
    fish_chart = chart_for(irreducibles(divergent_lattice(fish_graph)),
                           [fish_graph.full()])
    for (r1, r2), seed in itertools.product(pairs, seeds):
        rep = rg_check(fish_chart, _nu_maps(fish_chart, r1),
                       _nu_maps(fish_chart, r2), psi,
                       MCParams(samples=2_000_000, batches=40, seed=seed))
        ok &= rep.passed
        details.append(f"fish[{r1},{r2};{seed}]:"
                       f"{abs(rep.difference) / max(rep.combined_stderr, 1e-30):.1f}s.e.")

    dunce_graph = fx.dunce_cap()
    dunce_chart = chart_for(
        irreducibles(divergent_lattice(dunce_graph)),
        [dunce_graph.subgraph({2, 3}), dunce_graph.full()])
    for (r1, r2), seed in itertools.product(pairs, seeds):
        rep = rg_check(dunce_chart, _nu_maps(dunce_chart, r1),
                       _nu_maps(dunce_chart, r2), psi,
                       MCParams(samples=10_000_000, batches=50, seed=seed),
                       mc_factors=MCParams(samples=10_000_000, batches=50,
                                           seed=seed))
        ok &= rep.passed
        details.append(f"dunce[{r1},{r2};{seed}]:"
                       f"{abs(rep.difference) / rep.combined_stderr:.1f}s.e.")

    # minimal-subtraction cutoff change on the fish
    shell = ms_cutoff_difference(fish_chart, 0.7, 1.3, psi, 1.0,
                                 MCParams(samples=2_000_000, batches=40,
                                          seed=7))
    big = renormalize_ms(fish_chart, 1.3, psi, 1.0,
                         MCParams(samples=2_000_000, batches=40, seed=8))
    small = renormalize_ms(fish_chart, 0.7, psi, 1.0,
                           MCParams(samples=2_000_000, batches=40, seed=9))
    diff = big.value - small.value
    err = math.hypot(big.stderr, small.stderr)
    ok &= abs(shell.value - diff) <= 3 * math.hypot(shell.stderr, err)
    ok &= shell.agrees_with(fish_ms_shift_oracle(math.exp(-1.0), 0.7, 1.3))

    elapsed = time.monotonic() - start
    _report(8, "renormalization group", ok and elapsed < 600.0,
            f"{'; '.join(details)}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. locality
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c09_locality():
    start = time.monotonic()
    ok = True

    nm11 = fx.two_sided_bubbles(1, 1)
    rep11 = locality_check(nm11, nm11.subgraph({0, 1}),
                           nm11.subgraph({2, 3}))
    ok &= rep11.combinatorial_ok

    nm21 = fx.two_sided_bubbles(2, 1)
    rep21 = locality_check(nm21, nm21.subgraph({0, 1}),
                           nm21.subgraph({4, 5}))
    ok &= rep21.combinatorial_ok

    numeric = locality_check(
        nm11, nm11.subgraph({0, 1}), nm11.subgraph({2, 3}),
        numerical=True,
        mc=MCParams(samples=10_000_000, batches=50, seed=11, stretch=1),
        mc_rhs=MCParams(samples=2_000_000, batches=40, seed=11, stretch=1),
        inner_samples=32).numeric
    ok &= numeric.passed
    sig = math.hypot(numeric.lhs.stderr, numeric.rhs.stderr)
    extra = (f"lhs {numeric.lhs.value:.0f}, rhs {numeric.rhs.value:.0f},"
             f" {abs(numeric.lhs.value - numeric.rhs.value) / sig:.1f}s.e.")
    elapsed = time.monotonic() - start
    _report(9, "locality", ok, f"{extra}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_c10_determinism(tmp_path):
    from pathlib import Path
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    ok = True
    for args, name in [
        (["period", str(fixtures / "fish.g"), "--samples", "200000",
          "--batches", "20", "--seed", "5"], "period"),
        (["rgcheck", str(fixtures / "dunce.g"), "--samples", "100000",
          "--batches", "10", "--seed", "5", "--r1", "0.8", "--r2", "1.2"],
         "rgcheck"),
    ]:
        out1 = tmp_path / f"{name}1.json"
        out2 = tmp_path / f"{name}2.json"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        ok &= out1.read_bytes() == out2.read_bytes()
    _report(10, "byte-identical reruns", ok)
