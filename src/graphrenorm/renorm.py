"""Renormalized pairings, periods, pole structure, RG and locality checks.

Everything numerical happens in a single chart: the chart covers the model
up to a set of measure zero, so pairings against test functions supported
in one chart are computed exactly by integrating there.  A renormalized
pairing is the alternating sum over subsets K of the nested set,

    sum_K (-1)^|K| int u_N nu_K delta_K[f^s (psi o rho)] dx,

where delta_K zeroes the marked coordinates of K inside f and the test
factor (integrand surgery), and nu_K is the product of the member cutoffs
evaluated at the unmodified point.  All 2^|N| counterterms are evaluated
on the same samples, which cancels the variance of the subtracted
combination.

One subset-sum loop (``_subset_sum``) serves the renormalized pairing
(and with it both sides of the locality check, the right side on the
two-member chart of the union of the factors), the minimal-subtraction
cutoff shift and the left side of the RG check; they differ only in the
factors multiplying each term (the member cutoffs nu_k, or a difference of
two cutoff products) and in the test factor.  Cutoffs and test functions
have compact support, so most samples contribute nothing, and the loop
gates on support:

* every cutoff is evaluated once per batch, and the test factor of K only
  on the rows where every factor of K is nonzero;
* a row is live when, for some K, the test factor and every factor of K
  are nonzero.  f and u run on the live rows only, and so does the test
  factor of K on the live rows where a factor of K vanishes (whether such
  a term is 0 or NaN depends on it).  Every other row is 0.

The row blocks of all subsets are stacked into one array per pass, so a
batch makes at most two calls of the test factor and one of f; both act
row by row.

Gating is exact for Monte Carlo.  On a dead row every term carries an
exactly zero factor, so the ungated sum is 0 or NaN there (NaN when f or u
is infinite), and ``mc_integrate`` drops both as zeros.  On a live row
every term is computed from the same elementwise operations in the same
order, ((f * test) * factor_a) * factor_b, summed with signs (-1)^|K| and
multiplied by u, so the value is bit-for-bit the ungated one.

The contracted charts of the RG formula take their graphs from the
relative contraction (``graphs.contract_relative_mapped``) and their
members from the nested set contracted by K
(``lattice.contract_nested_poset``): gamma // K carries the members below
gamma there, the remainder G // K those below no member of K.  Each child
member carries the cutoff of its parent member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bump import BumpSpec, ShellSpec
from .charts import Chart, ChartKernel, adapted_basis, chart_for
from .errors import GraphError, NotPrimitiveError
from .graphs import (Graph, SpanningTree, Subgraph, a_dim, classify,
                     contract_relative_mapped, divergent_subsets,
                     edges_below, is_connected, is_spanning_forest_of,
                     omega, touched_vertices)
from .lattice import (BuildingSet, SubgraphPoset, contract_nested_poset,
                      divergent_lattice, enumerate_nested_sets,
                      irreducibles, nested_cardinality,
                      require_at_most_logarithmic)
from .mc import (MCEstimate, MCParams, _batch_generator, exact_estimate,
                 mc_integrate, mc_product, mc_scale, mc_sum,
                 sample_coordinates, substream_seed)

NuLike = Union[BumpSpec, Callable]


# ---------------------------------------------------------------------------
# member cutoffs and test functions
# ---------------------------------------------------------------------------

def member_coordinates(kern: ChartKernel, k: int) -> tuple[int, list[int]]:
    """Marked index and remaining own coordinate indices of member k.

    Own coordinates are those of tree edges in the member but in none of
    its lower nested members.
    """
    chart = kern.chart
    g = chart.nested[k]
    own_edges = sorted((chart.basis.tree.edge_set & g.edge_set)
                       - edges_below(g, chart.nested))
    marked = kern.marked[k]
    own = [kern.block[e] + i for e in own_edges for i in range(kern.d)]
    own.remove(marked)
    return marked, own


def member_cutoff(kern: ChartKernel, k: int, spec: NuLike) -> Callable:
    """The cutoff of member k as a vectorized function of chart points: a
    BumpSpec reads the member's marked and own coordinates, a callable is
    called as spec(x, kern, k)."""
    if isinstance(spec, BumpSpec):
        m_idx, own_idx = member_coordinates(kern, k)

        def fn(x):
            return spec.nu_values(x[:, m_idx], x[:, own_idx])
    elif callable(spec):
        def fn(x):
            return spec(x, kern, k)
    else:
        raise GraphError("cutoff must be a BumpSpec or callable")
    return fn


def nu_callables(kern: ChartKernel,
                 nu: Union[dict, Sequence[NuLike]]) -> list[Callable]:
    """Normalize cutoff specs to vectorized callables, one per member."""
    chart = kern.chart
    if isinstance(nu, dict):
        specs = [nu[g] for g in chart.nested]
    else:
        specs = list(nu)
    if len(specs) != len(chart.nested):
        raise GraphError("need one cutoff per nested member")
    return [member_cutoff(kern, k, spec) for k, spec in enumerate(specs)]


def sharp_cutoffs(kern: ChartKernel, c0: float) -> list[Callable]:
    """Minimal-subtraction cutoffs theta(c0 - |x_g|) in the marked slots."""
    if c0 <= 0:
        raise GraphError("cutoff must be positive")
    fns = []
    for k in range(len(kern.members)):
        def fn(x, _kern=None, _idx=None, k=k):
            return (np.abs(x[:, kern.marked[k]]) <= c0).astype(float)
        fns.append(fn)
    return fns


def _psi_values(psi: Union[BumpSpec, Callable]) -> Callable:
    """psi as a function of blow-down images: a test-function spec or a
    plain callable."""
    return psi.test_values if hasattr(psi, "test_values") else psi


def pullback_test(psi: Union[BumpSpec, Callable]) -> Callable:
    """Test factor psi composed with the blow-down."""
    values = _psi_values(psi)

    def test(xz: np.ndarray, kern: ChartKernel) -> np.ndarray:
        return values(kern.rho(xz))
    return test


def direct_test(fn: Callable) -> Callable:
    """Test factor given directly in chart coordinates."""
    def test(xz: np.ndarray, kern: ChartKernel) -> np.ndarray:
        return fn(xz)
    return test


def _check_holomorphy(kern: ChartKernel, s: float) -> None:
    for g in kern.members:
        expo = -1.0 + a_dim(g) * (1.0 - s)
        if not (-2.0 < expo < 0.0):
            raise GraphError(f"s = {s} outside the holomorphy region for "
                             f"{g.label()}")


def _mc_powers(kern: ChartKernel, stretch: int) -> list[int]:
    powers = [stretch] * kern.n_coords
    for idx in kern.marked:
        powers[idx] = 1
    return powers


def _subsets(n: int, smallest: int = 0) -> list[tuple[int, ...]]:
    """Subsets of range(n) with at least ``smallest`` elements, by size."""
    return [tuple(c) for r in range(smallest, n + 1)
            for c in itertools.combinations(range(n), r)]


def _product(arrays: Sequence[np.ndarray], n: int) -> np.ndarray:
    out = np.ones(n)
    for a in arrays:
        out = out * a
    return out


def _stack(kern: ChartKernel, x: np.ndarray,
           blocks: Sequence[tuple[Sequence[int], np.ndarray]],
           ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x picked by each (K, mask) block, one block after
    another, with the marked coordinates of K zeroed; and the offsets where
    the blocks after the first start."""
    ends = np.cumsum([np.count_nonzero(mask) for _K, mask in blocks])
    out = np.empty((ends[-1], x.shape[1]))
    start = 0
    for (K, mask), end in zip(blocks, ends):
        part = out[start:end]
        np.compress(mask, x, axis=0, out=part)
        part[:, [kern.marked[k] for k in K]] = 0.0
        start = end
    return out, ends[:-1]


def _subset_sum(kern: ChartKernel, x: np.ndarray, s: float, test: Callable,
                terms: Sequence[tuple[tuple[int, ...], list[np.ndarray]]],
                ) -> np.ndarray:
    """u(x) * sum over (K, factors) of (-1)^|K| f(x_K) test(x_K) prod factors,
    where x_K is x with the marked coordinates of K zeroed.

    Evaluated on the live rows only; dead rows are 0 (module docstring).
    """
    n = len(x)
    rows = []  # per K: the rows where every factor of K is nonzero
    for _K, factors in terms:
        nonzero = np.ones(n, dtype=bool)
        for fac in factors:
            nonzero &= fac != 0
        rows.append(nonzero)
    xs, cuts = _stack(kern, x, [(K, r) for (K, _), r in zip(terms, rows)])
    gated = np.split(test(xs, kern) if len(xs) else np.zeros(0), cuts)
    tests = []
    live = np.zeros(n, dtype=bool)
    for r, vals in zip(rows, gated):
        t = np.zeros(n)
        t[r] = vals
        live |= t != 0
        tests.append(t)
    out = np.zeros(n)
    idx = np.flatnonzero(live)
    if not idx.size:
        return out
    xs, cuts = _stack(kern, x, [(K, live) for K, _ in terms])
    t_live = np.concatenate([t[idx] for t in tests])
    # live rows where a factor of K vanishes: the term is 0 or NaN, and
    # which one depends on the test value, so it is evaluated there too
    fill = np.concatenate([~r[idx] for r in rows])
    if fill.any():
        t_live[fill] = test(xs[fill], kern)
    f_test = kern.f(xs, s) * t_live
    total = np.zeros(idx.size)
    for (K, factors), term in zip(terms, np.split(f_test, cuts)):
        for fac in factors:
            term = term * fac[idx]
        total += (-1.0) ** len(K) * term
    out[idx] = total * kern.u(x[idx], s)
    return out


def renormalized_integrand(kern: ChartKernel,
                           nu: Union[dict, Sequence[NuLike]],
                           test: Callable, s: float = 1.0) -> Callable:
    """Per-sample integrand of the renormalized pairing (all counterterms
    evaluated on the same points)."""
    _check_holomorphy(kern, s)
    nu_fns = nu_callables(kern, nu)
    subsets = _subsets(len(kern.members))

    def integrand(x: np.ndarray) -> np.ndarray:
        nu_vals = [fn(x) for fn in nu_fns]
        return _subset_sum(kern, x, s, test,
                           [(K, [nu_vals[k] for k in K]) for K in subsets])

    return integrand


def _cutoff_change_integrand(kern: ChartKernel,
                             nu_new: Union[dict, Sequence[NuLike]],
                             nu_old: Union[dict, Sequence[NuLike]],
                             test: Callable, s: float = 1.0) -> Callable:
    """Per-sample integrand of R_{nu_new} - R_{nu_old} on the same points:
    the K = {} terms cancel, every other K carries the factor
    prod_K nu_new - prod_K nu_old."""
    _check_holomorphy(kern, s)
    new_fns = nu_callables(kern, nu_new)
    old_fns = nu_callables(kern, nu_old)
    subsets = _subsets(len(kern.members), 1)

    def integrand(x: np.ndarray) -> np.ndarray:
        new = [fn(x) for fn in new_fns]
        old = [fn(x) for fn in old_fns]
        n = len(x)
        return _subset_sum(kern, x, s, test, [
            (K, [_product([new[k] for k in K], n)
                 - _product([old[k] for k in K], n)]) for K in subsets])

    return integrand


def pair_renormalized(kern: ChartKernel, nu: Union[dict, Sequence[NuLike]],
                      test: Callable, s: float = 1.0,
                      mc: MCParams = MCParams(),
                      trace: Optional[list] = None) -> MCEstimate:
    """Monte Carlo value of the renormalized pairing <R_nu[w^s] | test>."""
    integrand = renormalized_integrand(kern, nu, test, s)
    return mc_integrate(integrand, kern.n_coords, mc,
                        powers=_mc_powers(kern, mc.stretch), trace=trace)


def renormalize_fixed(chart: Chart, nu: Union[dict, Sequence[NuLike]],
                      psi: Union[BumpSpec, Callable], s: float = 1.0,
                      mc: MCParams = MCParams(),
                      trace: Optional[list] = None) -> MCEstimate:
    """Subtraction at fixed conditions, paired against psi o rho."""
    return pair_renormalized(ChartKernel(chart), nu, pullback_test(psi), s,
                             mc, trace=trace)


def renormalize_ms(chart: Chart, cutoff: float,
                   psi: Union[BumpSpec, Callable], s: float = 1.0,
                   mc: MCParams = MCParams(),
                   trace: Optional[list] = None) -> MCEstimate:
    """Minimal subtraction with sharp marked-coordinate cutoffs."""
    kern = ChartKernel(chart)
    return pair_renormalized(kern, sharp_cutoffs(kern, cutoff),
                             pullback_test(psi), s, mc, trace=trace)


def ms_cutoff_difference(chart: Chart, c_small: float, c_large: float,
                         psi: Union[BumpSpec, Callable], s: float = 1.0,
                         mc: MCParams = MCParams()) -> MCEstimate:
    """Single-pass estimate of (R_{c_large} - R_{c_small}) applied to psi.

    The difference of the two cutoff products is supported on the shell
    c_small < |x_gamma| < c_large in every marked coordinate of K.
    """
    if not (0 < c_small < c_large):
        raise GraphError("need 0 < c_small < c_large")
    kern = ChartKernel(chart)
    integrand = _cutoff_change_integrand(
        kern, sharp_cutoffs(kern, c_large), sharp_cutoffs(kern, c_small),
        pullback_test(psi), s)
    return mc_integrate(integrand, kern.n_coords, mc,
                        powers=_mc_powers(kern, mc.stretch))


# ---------------------------------------------------------------------------
# periods and the leading Laurent coefficient
# ---------------------------------------------------------------------------

def period(graph: Graph, mc: MCParams = MCParams(),
           marking: Optional[tuple[int, int]] = None,
           trace: Optional[list] = None) -> MCEstimate:
    """-(2/d_G) times the kernel integral over one induced divisor chart.

    Defined for primitive divergent graphs only.  The integral runs over
    the chart coordinates with the marked slot frozen; the kernel does not
    depend on it.
    """
    full = graph.full()
    rep = classify(full)
    if not (rep.divergent and rep.primitive):
        raise NotPrimitiveError(
            "period is defined for primitive divergent graphs only")
    if not is_connected(full):
        raise GraphError("period needs a connected graph")
    building = irreducibles(divergent_lattice(graph))
    chart = chart_for(building, [full],
                      [marking] if marking is not None else None)
    kern = ChartKernel(chart)
    m_idx = kern.marked[0]
    rest = [i for i in range(kern.n_coords) if i != m_idx]
    ndim = len(rest)
    stretch = max(mc.stretch, ndim // 2 + 1)

    def integrand(z: np.ndarray) -> np.ndarray:
        x = np.zeros((len(z), kern.n_coords))
        x[:, rest] = z
        return kern.f(x, 1.0)

    est = mc_integrate(integrand, ndim, mc, powers=[stretch] * ndim,
                       trace=trace)
    return mc_scale(est, -2.0 / a_dim(full))


@dataclass(frozen=True)
class LaurentProfile:
    """Pole order and the nested sets labeling each principal-part
    stratum; optionally the leading coefficient estimate."""

    pole_order: int
    strata: tuple[tuple[int, tuple[tuple[str, ...], ...]], ...]
    leading: Optional[MCEstimate] = None

    def support(self, k: int) -> tuple[tuple[str, ...], ...]:
        return dict(self.strata).get(k, ())


def pole_profile(building: BuildingSet,
                 leading: Optional[MCEstimate] = None) -> LaurentProfile:
    """Pole order = largest nested set; order -k is supported on the
    intersections of divisor components labeled by k-element nested sets."""
    nested = enumerate_nested_sets(building)
    order = nested_cardinality(building, nested).max_cardinality
    strata = []
    for k in range(1, order + 1):
        labels = tuple(tuple(m.label() for m in ns.members)
                       for ns in nested if len(ns.members) == k)
        strata.append((-k, labels))
    return LaurentProfile(order, tuple(strata), leading)


def leading_coefficient(graph: Graph, mc: MCParams = MCParams(),
                        ) -> MCEstimate:
    """Sum over maximal minimal-building-set nested sets of the product of
    periods of the relatively contracted members."""
    full = graph.full()
    lattice = divergent_lattice(graph)
    building = irreducibles(lattice)
    if full not in set(building.members):
        raise GraphError("leading coefficient needs the whole graph to be "
                         "irreducible")
    nested = enumerate_nested_sets(building)
    top = max(len(ns.members) for ns in nested)
    parts = []
    for ns in [n for n in nested if len(n.members) == top]:
        ns_label = ",".join(m.label() for m in ns.members)
        factors = []
        for gamma in ns.members:
            contracted, _ = contract_relative_mapped(gamma,
                                                      list(ns.members))
            rep = classify(contracted.full())
            if not (rep.divergent and rep.primitive):
                raise GraphError(
                    f"contraction of {gamma.label()} relative to the "
                    f"maximal nested set is not primitive")
            seed = substream_seed(mc.seed,
                                  f"lead:{ns_label}:{gamma.label()}")
            factors.append(period(contracted, mc.with_seed(seed)))
        prod = factors[0]
        for f in factors[1:]:
            prod = mc_product(prod, f)
        parts.append(prod)
    return mc_sum(parts)


# ---------------------------------------------------------------------------
# contracted charts for the RG formula
# ---------------------------------------------------------------------------

def _restrict_chart(chart: Chart, base: Subgraph, family: Sequence[Subgraph],
                    keep: Sequence[int],
                    ) -> tuple[Chart, dict[int, int], tuple[Subgraph, ...]]:
    """Chart of the relative contraction base // family, carrying the images
    of the listed member indices.

    Returns the chart, the parent->child edge map and the parent member of
    each child member, in child order."""
    g2, emap = contract_relative_mapped(base, family)
    tree2 = frozenset(emap[e] for e in chart.basis.tree.edge_set
                      if e in emap)
    tree = SpanningTree(g2, tree2)
    if not is_spanning_forest_of(tree2, g2.full()):
        raise GraphError("contracted tree fails to span")
    members2: list[Subgraph] = []
    marks2: list[tuple[int, int]] = []
    for j in keep:
        m = chart.nested[j]
        image = frozenset(emap[e] for e in m.edge_set if e in emap)
        e, i = chart.marks[j]
        members2.append(Subgraph(g2, image))
        marks2.append((emap[e], i))
    order = sorted(range(len(members2)),
                   key=lambda t: (len(members2[t].edge_set),
                                  members2[t].sorted_edges))
    chart2 = Chart(tuple(members2[t] for t in order),
                   adapted_basis(tree),
                   tuple(marks2[t] for t in order))
    return chart2, emap, tuple(chart.nested[keep[t]] for t in order)


def _contracted(chart: Chart, k_idx: Sequence[int],
                ) -> tuple[list[Subgraph], Callable[[int, int], bool]]:
    """The members of K, and the order of the chart's nested set contracted
    by K as a relation between chart member indices."""
    family = [chart.nested[i] for i in k_idx]
    poset = contract_nested_poset(chart.nested, family)
    node = [poset.source.index(m) for m in chart.nested]
    return family, lambda i, j: poset.leq(node[i], node[j])


def contract_chart_remainder(chart: Chart, k_idx: Sequence[int],
                             ) -> tuple[Chart, dict[int, int],
                                        tuple[Subgraph, ...]]:
    """Chart of the whole graph contracted by the members of K, carrying the
    members that lie below no member of K in the contracted nested poset.

    When K holds the whole graph, G // K is a point and there is no chart."""
    if any(chart.nested[i] == chart.graph.full() for i in k_idx):
        raise GraphError("the whole graph contracted by itself is a point")
    family, leq = _contracted(chart, k_idx)
    keep = [j for j in range(len(chart.nested))
            if not any(leq(j, i) for i in k_idx)]
    return _restrict_chart(chart, chart.graph.full(), family, keep)


def contract_chart_member(chart: Chart, k_idx: Sequence[int],
                          gamma_idx: int,
                          ) -> tuple[Chart, dict[int, int],
                                     tuple[Subgraph, ...]]:
    """Chart of gamma // K carrying the members below gamma in the nested
    poset contracted by K (the index set H_gamma plus gamma itself)."""
    family, leq = _contracted(chart, k_idx)
    keep = [j for j in range(len(chart.nested)) if leq(j, gamma_idx)]
    return _restrict_chart(chart, chart.nested[gamma_idx], family, keep)


def _embedding(chart: Chart, emap: dict[int, int],
               child: Chart) -> Callable[[np.ndarray], np.ndarray]:
    """Map child blow-down images into parent tree coordinates, zero on the
    contracted blocks."""
    d = chart.dim
    parent_edges = sorted(chart.basis.tree.edge_set)
    child_edges = sorted(child.basis.tree.edge_set)
    child_pos = {e: i * d for i, e in enumerate(child_edges)}
    slots = []
    for pi, e in enumerate(parent_edges):
        if e in emap and emap[e] in child_pos:
            slots.append((pi * d, child_pos[emap[e]]))

    def embed(y2: np.ndarray) -> np.ndarray:
        y = np.zeros((len(y2), len(parent_edges) * d))
        for ppos, cpos in slots:
            y[:, ppos:ppos + d] = y2[:, cpos:cpos + d]
        return y

    return embed


# ---------------------------------------------------------------------------
# renormalization-group check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RGTerm:
    subset: tuple[str, ...]
    sign: int
    coefficient: MCEstimate
    pairing: MCEstimate


@dataclass(frozen=True)
class RGReport:
    lhs: MCEstimate
    rhs: MCEstimate
    terms: tuple[RGTerm, ...]
    n_sigma: float

    @property
    def difference(self) -> float:
        return self.lhs.value - self.rhs.value

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.lhs.stderr, self.rhs.stderr)

    @property
    def passed(self) -> bool:
        return abs(self.difference) <= self.n_sigma * self.combined_stderr


def rg_check(chart: Chart, nu: dict, nu_prime: dict,
             psi: Union[BumpSpec, Callable], mc: MCParams = MCParams(),
             mc_factors: Optional[MCParams] = None,
             n_sigma: float = 3.0) -> RGReport:
    """Compare a change of renormalization points against the sum of
    contracted-graph counterterms.

    The left side evaluates both fixed-condition renormalizations on the
    same samples and keeps only the surviving counterterms.  The right
    side is the sum over nonempty subsets K of the nested set of
    (-1)^|K| c_K <R_nu[w_{G//K}] | delta_K[psi o rho]>, where each factor
    of c_K pairs the renormalized contracted member gamma // K against its
    new cutoff.  The members of each contracted chart are read off the
    nested set contracted by K (``contract_chart_member``,
    ``contract_chart_remainder``) and carry the cutoffs of their parent
    members; a cutoff is a BumpSpec or a callable (x, kern, k), as in
    ``nu_callables``.
    """
    kern = ChartKernel(chart)
    if mc_factors is None:
        mc_factors = mc
    lhs = mc_integrate(
        _cutoff_change_integrand(kern, nu_prime, nu, pullback_test(psi)),
        kern.n_coords, mc, powers=_mc_powers(kern, mc.stretch))

    members = chart.nested
    full_edge_set = chart.graph.full().edge_set
    psi_values = _psi_values(psi)
    terms = []
    for K in _subsets(len(members), 1):
        k_label = tuple(members[i].label() for i in K)
        coeff: Optional[MCEstimate] = None
        for gamma_idx in K:
            gamma = members[gamma_idx]
            child, _emap, parents = contract_chart_member(chart, K,
                                                          gamma_idx)
            child_kern = ChartKernel(child)
            test_nu = member_cutoff(child_kern, parents.index(gamma),
                                    nu_prime[gamma])
            seed = substream_seed(mc.seed,
                                  f"rg:c:{k_label}:{gamma_idx}")
            factor = pair_renormalized(
                child_kern, [nu[p] for p in parents], direct_test(test_nu),
                1.0, mc_factors.with_seed(seed))
            coeff = factor if coeff is None else mc_product(coeff, factor)
        if any(members[i].edge_set == full_edge_set for i in K):
            pairing = exact_estimate(float(np.asarray(
                psi_values(np.zeros((1, kern.n_coords))))[0]))
        else:
            child, emap, parents = contract_chart_remainder(chart, K)
            embed = _embedding(chart, emap, child)

            def test_embedded(xz, kern2, embed=embed):
                return psi_values(embed(kern2.rho(xz)))

            seed = substream_seed(mc.seed, f"rg:T:{k_label}")
            pairing = pair_renormalized(
                ChartKernel(child), [nu[p] for p in parents], test_embedded,
                1.0, mc_factors.with_seed(seed))
        terms.append(RGTerm(k_label, (-1) ** len(K), coeff, pairing))

    rhs = mc_sum([mc_product(t.coefficient, t.pairing) for t in terms],
                 [t.sign for t in terms])
    return RGReport(lhs, rhs, tuple(terms), n_sigma)


# ---------------------------------------------------------------------------
# locality
# ---------------------------------------------------------------------------

def _divergent_poset_of(sub: Subgraph) -> SubgraphPoset:
    """Divergent edge subsets of one subgraph plus o: the divergent lattice
    of sub when sub is at most logarithmic, which the caller checks."""
    return SubgraphPoset(divergent_subsets(sub), kind="divergent_lattice")


@dataclass(frozen=True)
class LocalityNumeric:
    lhs: MCEstimate
    rhs: MCEstimate
    n_sigma: float

    @property
    def passed(self) -> bool:
        tol = self.n_sigma * math.hypot(self.lhs.stderr, self.rhs.stderr)
        return abs(self.lhs.value - self.rhs.value) <= tol


@dataclass(frozen=True)
class LocalityReport:
    irreducibles_split: bool
    nested_sets_split: bool
    detail: Optional[str]
    numeric: Optional[LocalityNumeric] = None

    @property
    def combinatorial_ok(self) -> bool:
        return self.irreducibles_split and self.nested_sets_split


def locality_check(graph: Graph, g: Subgraph, h: Subgraph,
                   numerical: bool = False,
                   psi: Optional[BumpSpec] = None,
                   nu: Optional[dict] = None,
                   mc: MCParams = MCParams(),
                   mc_rhs: Optional[MCParams] = None,
                   inner_samples: int = 16,
                   n_sigma: float = 3.0) -> LocalityReport:
    """Nested sets of the union of two disjoint divergent subgraphs must
    split as disjoint unions of per-factor nested sets; optionally the
    renormalized pairing is checked to factorize accordingly.  g u h must
    be at most logarithmic (NotAtMostLogarithmic otherwise), so that the
    irreducibles are the blocks of the divergent lattices.
    """
    for name, s in (("g", g), ("h", h)):
        if not s.edge_set:
            raise GraphError(f"{name} must be nonempty")
        if not is_connected(s):
            raise GraphError(f"{name} must be connected")
        if omega(s) < 0:
            raise GraphError(f"{name} must be divergent")
    if g.edge_set & h.edge_set or touched_vertices(g) & touched_vertices(h):
        raise GraphError("subgraphs must be disjoint")
    require_at_most_logarithmic(g.union(h), "g u h")

    b_u = irreducibles(_divergent_poset_of(g.union(h)))
    b_g = irreducibles(_divergent_poset_of(g))
    b_h = irreducibles(_divergent_poset_of(h))
    irr_split = set(b_u.members) == set(b_g.members) | set(b_h.members)
    detail = None
    if not irr_split:
        detail = "irreducibles of the union do not split"

    nested_split = False
    if irr_split:
        all_u = {frozenset(n.members)
                 for n in enumerate_nested_sets(b_u)}
        parts_g = [frozenset(n.members)
                   for n in enumerate_nested_sets(b_g)] + [frozenset()]
        parts_h = [frozenset(n.members)
                   for n in enumerate_nested_sets(b_h)] + [frozenset()]
        combined = {a | b for a in parts_g for b in parts_h if a or b}
        nested_split = all_u == combined
        if not nested_split:
            detail = "nested sets of the union are not unions of factor " \
                     "nested sets"

    numeric = None
    if numerical:
        numeric = _locality_numeric(graph, g, h, psi, nu, mc,
                                    mc_rhs or mc, inner_samples, n_sigma)
    return LocalityReport(irr_split, nested_split, detail, numeric)


def _locality_numeric(graph: Graph, g: Subgraph, h: Subgraph,
                      psi: Optional[BumpSpec], nu: Optional[dict],
                      mc: MCParams, mc_rhs: MCParams, inner_samples: int,
                      n_sigma: float) -> LocalityNumeric:
    """Joint-chart pairing versus the factorized one.

    The left side pairs the chart of {g, h} in the whole graph against
    psi o rho.  For disjoint g and h the divergent poset of g u h is the
    product of the two factor posets, so the right side is the
    renormalized pairing on one two-member chart of g u h: its kernel and
    weight u are the products of the factor kernels and weights, and its
    counterterms are the four subsets of {g, h}.  The cross edges (in
    neither g nor h) enter its test factor instead, as an inner Monte
    Carlo over the remaining tree coordinates of the joint chart, with one
    set of inner draws per outer batch.
    """
    building = irreducibles(divergent_lattice(graph))
    mem = set(building.members)
    if g not in mem or h not in mem:
        raise GraphError("both subgraphs must be irreducible members")
    chart = chart_for(building, [g, h])
    kern = ChartKernel(chart)
    if psi is None:
        psi = ShellSpec(mid=3.0, width=2.0)
    if nu is None:
        nu = {g: BumpSpec(1.0, kind="subtraction_nu"),
              h: BumpSpec(1.0, kind="subtraction_nu")}

    lhs = pair_renormalized(kern, nu, pullback_test(psi), 1.0, mc)

    pair, emap, parents = _restrict_chart(
        chart, g.union(h), (),
        [chart.nested.index(g), chart.nested.index(h)])
    pair_kern = ChartKernel(pair)
    embed = _embedding(chart, emap, pair)
    factor_edges = g.edge_set | h.edge_set
    cross_edges = [e for e in range(graph.n_edges) if e not in factor_edges]
    inner = [kern.block[e] + i for e in sorted(chart.basis.tree.edge_set)
             if e not in factor_edges for i in range(kern.d)]
    inner_seed = substream_seed(mc_rhs.seed, "locality-inner")
    batch, rows, xin, win = 0, 1, None, None

    def cross_test(xz: np.ndarray, pkern: ChartKernel) -> np.ndarray:
        # over at most one batch's rows at a time: _subset_sum stacks the
        # rows of every subset into one call
        out = np.empty(len(xz))
        for start in range(0, len(xz), rows):
            y = embed(pkern.rho(xz[start:start + rows]))
            y = np.repeat(y[:, None, :], inner_samples, axis=1)
            y[:, :, inner] = xin
            flat = y.reshape(-1, kern.n_coords)
            vals = kern.v_edges(flat, cross_edges, 1.0) \
                * psi.test_values(flat)
            out[start:start + rows] = \
                (vals.reshape(len(y), inner_samples) * win).mean(axis=1)
        return out

    pairing = renormalized_integrand(
        pair_kern, [nu[p] for p in parents], cross_test)

    def rhs_integrand(z: np.ndarray) -> np.ndarray:
        nonlocal batch, rows, xin, win
        rng = _batch_generator(inner_seed, batch)
        batch += 1
        rows = len(z)
        xin, win = sample_coordinates(rng, inner_samples,
                                      [mc_rhs.stretch] * len(inner))
        return pairing(z)

    rhs = mc_integrate(
        rhs_integrand, pair_kern.n_coords,
        mc_rhs.with_seed(substream_seed(mc_rhs.seed, "locality-rhs")),
        powers=_mc_powers(pair_kern, mc_rhs.stretch))
    return LocalityNumeric(lhs, rhs, n_sigma)
