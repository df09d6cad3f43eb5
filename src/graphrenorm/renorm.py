"""Renormalized pairings, periods, leading Laurent coefficients, RG and
locality checks.

Periods are integrated in Schwinger parameters by tropical (Hepp-sector)
sampling (``tropical``); the leading Laurent coefficient multiplies them.
Everything else numerical happens in a single chart: the chart covers the
model up to a set of measure zero, so pairings against test functions
supported in one chart are computed exactly by integrating there, with
points drawn by ``mc.coordinate_sampler``.  A renormalized
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
have compact support, and a term vanishes off the support of its factors:
the term of K is exactly 0 on the rows where one of its factors or its
test value is 0, and live on the others.  So every cutoff is evaluated
once per batch, the test factor of K only on the rows where every factor
of K is nonzero, and f only on those of them where the test value is
nonzero.  The row blocks of all subsets are stacked, so a batch makes one
call of the test factor and at most one of f; both act row by row.  u runs
on the rows where some term is live; every other row is 0.

A live term is computed from the same elementwise operations in the same
order as the ungated sum, ((f * test) * factor_a) * factor_b, summed with
signs (-1)^|K| and multiplied by u, and a skipped term adds a zero, so
every finite value is bit-for-bit the ungated one.  The ungated sum
differs only where a zero factor or test value meets a non-finite f or
test (NaN there), a set of measure zero.

Every contracted chart (the RG coefficients gamma // K and remainder
G // K, the two-member chart of the locality right side) follows one
inclusion rule (``contract_chart``): C is the union of the family members
strictly inside the base (``graphs.edges_below``), the base is contracted
along C, and the child chart keeps the chart members m inside the base with
m not inside C.  Each child member carries the cutoff of its parent member.
For a nested set of either building set and a subset K of it, the rule
keeps exactly the members below the base in the nested set contracted by
K: those inside the base and inside no member of K strictly inside it.
Incomparable members of a minimal-building-set nested set share no edge
and meet in at most one vertex (``lattice``), so a block inside a union of
members of K lies inside one of them.  A maximal-building-set nested set
is a chain, so C is the largest member of K strictly inside the base.  For
the remainder G // K (G not in K) every member of K lies strictly inside G.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bump import BumpSpec, ShellSpec
from .charts import (Chart, ChartKernel, _allowed_edges, adapted_basis,
                     chart_for)
from .errors import GraphError, NotPrimitiveError
from .graphs import (Graph, SpanningTree, Subgraph, a_dim, classify,
                     contract_mapped, divergent_subsets, edges_below,
                     is_connected, is_spanning_forest_of, omega,
                     touched_vertices)
from .lattice import (SubgraphPoset, divergent_lattice, enumerate_nested_sets,
                      irreducibles, require_at_most_logarithmic)
from .mc import (MCEstimate, MCParams, Sampler, _batch_generator,
                 coordinate_sampler, exact_estimate, mc_integrate, mc_product,
                 mc_scale, mc_sum, sample_coordinates, substream_seed)
from .tropical import (hepp_tables, kirchhoff_power, require_period_size,
                       tropical_sampler)

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
    own_edges = _allowed_edges(chart.basis, chart.nested[k], chart.nested)
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
    if not 0 < c0 < math.inf:
        raise GraphError("cutoff must be positive and finite")

    def theta(x, kern, k):
        return (np.abs(x[:, kern.marked[k]]) <= c0).astype(float)
    return [theta] * len(kern.members)


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


def _chart_test(psi: Union[BumpSpec, Callable], kern: ChartKernel,
                ) -> Callable:
    """``pullback_test(psi)`` on this chart; ValueError, before anything
    is sampled, when psi has a centre without one entry per chart
    coordinate."""
    center = getattr(psi, "center", ())
    if center and len(center) != kern.n_coords:
        raise ValueError(f"test function center has {len(center)} "
                         f"entries, the chart {kern.n_coords} coordinates")
    return pullback_test(psi)


def _check_holomorphy(kern: ChartKernel, s: float) -> None:
    for g in kern.members:
        expo = -1.0 + a_dim(g) * (1.0 - s)
        if not (-2.0 < expo < 0.0):
            raise GraphError(f"s = {s} outside the holomorphy region for "
                             f"{g.label()}")


def _chart_sampler(kern: ChartKernel, stretch: int) -> Sampler:
    """Chart coordinates with tail power ``stretch``, 1 in marked slots."""
    powers = [stretch] * kern.n_coords
    for idx in kern.marked:
        powers[idx] = 1
    return coordinate_sampler(powers)


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

    The term of K is 0 where one of its factors or its test value is 0
    (module docstring)."""
    n = len(x)
    rows = []  # per K: the rows where every factor of K is nonzero
    for _K, factors in terms:
        nonzero = np.ones(n, dtype=bool)
        for fac in factors:
            nonzero &= fac != 0
        rows.append(nonzero)
    xs, cuts = _stack(kern, x, [(K, r) for (K, _), r in zip(terms, rows)])
    t = test(xs, kern) if len(xs) else np.zeros(0)
    hit = t != 0
    f_test = np.zeros(len(xs))
    if hit.any():
        f_test[hit] = kern.f(xs[hit], s) * t[hit]
    total = np.zeros(n)
    live = np.zeros(n, dtype=bool)
    for (K, factors), r, h, term in zip(terms, rows, np.split(hit, cuts),
                                        np.split(f_test, cuts)):
        at = np.flatnonzero(r)[h]
        term = term[h]
        for fac in factors:
            term = term * fac[at]
        total[at] += (-1.0) ** len(K) * term
        live[at] = True
    out = np.zeros(n)
    idx = np.flatnonzero(live)
    if idx.size:
        out[idx] = total[idx] * kern.u(x[idx], s)
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
    return mc_integrate(integrand, _chart_sampler(kern, mc.stretch), mc,
                        trace=trace)


def renormalize_fixed(chart: Chart, nu: Union[dict, Sequence[NuLike]],
                      psi: Union[BumpSpec, Callable], s: float = 1.0,
                      mc: MCParams = MCParams(),
                      trace: Optional[list] = None) -> MCEstimate:
    """Subtraction at fixed conditions, paired against psi o rho."""
    kern = ChartKernel(chart)
    return pair_renormalized(kern, nu, _chart_test(psi, kern), s, mc,
                             trace=trace)


def renormalize_ms(chart: Chart, cutoff: float,
                   psi: Union[BumpSpec, Callable], s: float = 1.0,
                   mc: MCParams = MCParams(),
                   trace: Optional[list] = None) -> MCEstimate:
    """Minimal subtraction with sharp marked-coordinate cutoffs."""
    kern = ChartKernel(chart)
    return pair_renormalized(kern, sharp_cutoffs(kern, cutoff),
                             _chart_test(psi, kern), s, mc, trace=trace)


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
        _chart_test(psi, kern), s)
    return mc_integrate(integrand, _chart_sampler(kern, mc.stretch), mc)


# ---------------------------------------------------------------------------
# periods and the leading Laurent coefficient
# ---------------------------------------------------------------------------

def period(graph: Graph, mc: MCParams = MCParams(),
           trace: Optional[list] = None) -> MCEstimate:
    """-(2/d_G) pi^(d_G/2) Gamma(d/2 - 1)^(-|E|) P(G), where d_G = d(V - 1)
    and P(G) = int Omega / Psi_G^(d/2) is estimated by tropical sampling
    (``tropical``).  The fish gives -pi^2/2.

    Defined for connected primitive divergent graphs that are at most
    logarithmic and have at most ``tropical.MAX_PERIOD_EDGES`` edges; the
    edge count is checked first.
    """
    require_period_size(graph)
    full = graph.full()
    rep = classify(full)
    if not (rep.divergent and rep.primitive):
        raise NotPrimitiveError(
            "period is defined for primitive divergent graphs only")
    if not is_connected(full):
        raise GraphError("period needs a connected graph")
    require_at_most_logarithmic(full, "graph")
    tables = hepp_tables(graph)
    est = mc_integrate(kirchhoff_power(tables), tropical_sampler(tables), mc,
                       trace=trace)
    d_g = a_dim(full)
    return mc_scale(est, -2.0 / d_g * math.pi ** (d_g / 2)
                    * math.gamma(graph.dim / 2 - 1) ** -graph.n_edges)


def leading_coefficient(graph: Graph, mc: MCParams = MCParams(),
                        ) -> MCEstimate:
    """Sum over the largest minimal-building-set nested sets of the product
    of the periods of their members, each contracted along the members
    strictly inside it."""
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
            contracted, _ = contract_mapped(
                gamma, Subgraph(graph, edges_below(gamma, ns.members)))
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
# contracted charts (RG coefficients and remainders, the locality pair)
# ---------------------------------------------------------------------------

def contract_chart(chart: Chart, base: Subgraph, family: Sequence[Subgraph],
                   ) -> tuple[Chart, dict[int, int], tuple[Subgraph, ...]]:
    """Chart of base // family: base with the family members strictly inside
    it contracted, carrying the chart members inside base and inside none of
    them (module docstring).

    Returns the chart, the parent->child edge map and the parent member of
    each child member, in child order."""
    below = edges_below(base, family)
    g2, emap = contract_mapped(base, Subgraph(base.parent, below))
    tree2 = frozenset(emap[e] for e in chart.basis.tree.edge_set
                      if e in emap)
    tree = SpanningTree(g2, tree2)
    if not is_spanning_forest_of(tree2, g2.full()):
        raise GraphError("contracted tree fails to span")
    keep = [j for j, m in enumerate(chart.nested)
            if m.edge_set <= base.edge_set and not m.edge_set <= below]
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
    new cutoff.  Both contracted charts come from ``contract_chart`` and
    carry the cutoffs of their parent members; a cutoff is a BumpSpec or a
    callable (x, kern, k), as in ``nu_callables``.  When K holds G, G // K
    is a point and the pairing is psi(0) exactly.
    """
    kern = ChartKernel(chart)
    if mc_factors is None:
        mc_factors = mc
    lhs = mc_integrate(
        _cutoff_change_integrand(kern, nu_prime, nu, _chart_test(psi, kern)),
        _chart_sampler(kern, mc.stretch), mc)

    members = chart.nested
    full = chart.graph.full()
    psi_values = _psi_values(psi)
    terms = []
    for K in _subsets(len(members), 1):
        k_label = tuple(members[i].label() for i in K)
        coeff: Optional[MCEstimate] = None
        family = [members[i] for i in K]
        for gamma_idx in K:
            gamma = members[gamma_idx]
            child, _emap, parents = contract_chart(chart, gamma, family)
            child_kern = ChartKernel(child)
            test_nu = member_cutoff(child_kern, parents.index(gamma),
                                    nu_prime[gamma])
            seed = substream_seed(mc.seed,
                                  f"rg:c:{k_label}:{gamma_idx}")
            # the test factor is the new cutoff, read in chart coordinates
            factor = pair_renormalized(
                child_kern, [nu[p] for p in parents],
                lambda xz, _kern, fn=test_nu: fn(xz),
                1.0, mc_factors.with_seed(seed))
            coeff = factor if coeff is None else mc_product(coeff, factor)
        if full in family:
            pairing = exact_estimate(float(np.asarray(
                psi_values(np.zeros((1, kern.n_coords))))[0]))
        else:
            child, emap, parents = contract_chart(chart, full, family)
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
                   psi: Optional[Union[BumpSpec, ShellSpec]] = None,
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
    if numerical and inner_samples < 1:
        raise ValueError("need inner_samples >= 1")
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
                      psi: Optional[Union[BumpSpec, ShellSpec]],
                      nu: Optional[dict],
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
    set of inner draws per outer batch.  psi is radial about its centre,
    so its squared radius is an outer row's part plus an inner draw's
    part: psi is evaluated on the (rows, inner draws) grid of these
    separable squared radii, and full points are built, and the cross
    edges evaluated, only where it is nonzero.
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

    lhs = pair_renormalized(kern, nu, _chart_test(psi, kern), 1.0, mc)

    pair, emap, parents = contract_chart(chart, g.union(h), ())
    pair_kern = ChartKernel(pair)
    embed = _embedding(chart, emap, pair)
    factor_edges = g.edge_set | h.edge_set
    cross_edges = [e for e in range(graph.n_edges) if e not in factor_edges]
    inner = [kern.block[e] + i for e in sorted(chart.basis.tree.edge_set)
             if e not in factor_edges for i in range(kern.d)]
    outer = [i for i in range(kern.n_coords) if i not in inner]
    center = np.asarray(psi.center, dtype=float) if psi.center \
        else np.zeros(kern.n_coords)
    inner_seed = substream_seed(mc_rhs.seed, "locality-inner")
    batch, rows, xin, win, r2_in = 0, 1, None, None, None

    def cross_test(xz: np.ndarray, pkern: ChartKernel) -> np.ndarray:
        # over at most one batch's rows at a time: _subset_sum stacks the
        # rows of every subset into one call
        out = np.empty(len(xz))
        for start in range(0, len(xz), rows):
            y = embed(pkern.rho(xz[start:start + rows]))
            d_out = y[:, outer] - center[outer]
            # psi on the (rows, inner draws) grid of squared radii; it is
            # 0 on most entries, and only the others become full points
            # for the cross edges
            vals = psi.sq_radius_values(
                np.sum(d_out * d_out, axis=1)[:, None] + r2_in)
            row, draw = np.nonzero(vals)
            points = y[row]
            points[:, inner] = xin[draw]
            vals[row, draw] *= kern.v_edges(points, cross_edges, 1.0)
            out[start:start + rows] = (vals * win).mean(axis=1)
        return out

    pairing = renormalized_integrand(
        pair_kern, [nu[p] for p in parents], cross_test)

    def rhs_integrand(z: np.ndarray) -> np.ndarray:
        nonlocal batch, rows, xin, win, r2_in
        rng = _batch_generator(inner_seed, batch)
        batch += 1
        rows = len(z)
        xin, win = sample_coordinates(rng, inner_samples,
                                      [mc_rhs.stretch] * len(inner))
        d_in = xin - center[inner]
        r2_in = np.sum(d_in * d_in, axis=1)
        return pairing(z)

    rhs = mc_integrate(
        rhs_integrand, _chart_sampler(pair_kern, mc_rhs.stretch),
        mc_rhs.with_seed(substream_seed(mc_rhs.seed, "locality-rhs")))
    return LocalityNumeric(lhs, rhs, n_sigma)
