"""Independent oracles: deterministic quadratures for the renormalization
tests, saturation by the component criterion, the chart-coordinate period
estimator that tropical sampling replaced, the per-subset scans and
hand-built constructions the exact layers replaced, join and meet by lookup
and scan, the minimal building set by its definition (interval-product
splitting) and nested sets by theirs (no antichain joins into the building
set), with their maximal ones found pairwise, the contracted nested poset
whose order the RG charts now read off inclusion, and the two-case relative
contraction g // family (the member case and the non-member case of proper
overlaps) that ``renorm.contract_chart`` replaced by one inclusion rule, and
the tropical sampler that scanned every edge's cdf column at each step."""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from graphrenorm.bump import beta_cutoff, radial_bump
from graphrenorm.charts import Chart, ChartKernel, adapted_basis, chart_for
from graphrenorm.errors import GraphError, NotPrimitiveError
from graphrenorm.graphs import (Graph, SpanningTree, Subgraph, _canonical_key,
                                _component_map, a_dim, adapted_spanning_tree,
                                classify, contract_mapped, edges_below,
                                is_connected, is_spanning_forest_of, omega)
from graphrenorm.lattice import (cover_pairs, divergent_lattice,
                                 enumerate_nested_sets, irreducibles)
from graphrenorm.mc import MCParams, coordinate_sampler, mc_integrate, mc_scale
from graphrenorm.tropical import hepp_tables


def fish_kernel_integral() -> float:
    """Radial reduction of the fish divisor integral: 4 pi int r^2/(1+r^2)^2."""
    val, _ = quad(lambda r: r * r * (1.0 + r * r) ** -2.0, 0.0, np.inf)
    return 4.0 * math.pi * val


def fish_period_oracle() -> float:
    """-(2/d) times the divisor integral with d = 4."""
    return -0.5 * fish_kernel_integral()


def chart_period_oracle(graph, mc=MCParams(), marking=None, trace=None):
    """-(2/d_G) times the kernel integral over one induced divisor chart:
    the period estimator before tropical sampling.

    Defined for primitive divergent graphs only.  The integral runs over
    the chart coordinates with the marked slot frozen; the kernel does not
    depend on it.  Unbiased, but with infinite variance on K4.
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

    def integrand(z):
        x = np.zeros((len(z), kern.n_coords))
        x[:, rest] = z
        return kern.f(x, 1.0)

    est = mc_integrate(integrand, coordinate_sampler([stretch] * ndim), mc,
                       trace=trace)
    return mc_scale(est, -2.0 / a_dim(full))


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


def _at_most_logarithmic_bruteforce(g):
    """Full 2^|E| scan: no subgraph of g has omega > 0."""
    parent = g.parent
    for r in range(1, len(g.edge_set) + 1):
        for combo in itertools.combinations(sorted(g.edge_set), r):
            if omega(Subgraph(parent, frozenset(combo))) > 0:
                return False
    return True


def is_saturated(g: Subgraph) -> bool:
    """True iff no outside edge has both endpoints inside one component of g.

    Adding such an edge would create a new independent cycle, i.e. would not
    enlarge the attached subspace; saturated subgraphs are the maximal ones
    defining their subspace.  The empty graph is saturated.
    """
    if not g.edge_set:
        return True
    comp = _component_map(g)
    for e in range(g.parent.n_edges):
        if e in g.edge_set:
            continue
        a, b = g.parent.edges[e]
        if a in comp and b in comp and comp[a] == comp[b]:
            return False
    return True


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


def _bound(poset, edge_set):
    """The element with this edge set, if the poset has exactly one."""
    i = poset._position.get(edge_set)
    if i is None or len(poset._position) != len(poset.elements):
        return None
    return poset.elements[i]


def join(poset, x, y):
    """Least upper bound inside the poset, None if it does not exist.

    x u y, when it is an element, lies below every upper bound, so it is
    found by one lookup; other joins fall back to the scan."""
    z = _bound(poset, x.edge_set | y.edge_set)
    return z if z is not None else join_scan(poset, x, y)


def meet(poset, x, y):
    """Greatest lower bound, by lookup of x n y or else by the scan."""
    z = _bound(poset, x.edge_set & y.edge_set)
    return z if z is not None else meet_scan(poset, x, y)


def join_of(poset, xs):
    """Join of a nonempty sequence of elements, pair by pair through
    ``join``; None once some join does not exist."""
    out = xs[0]
    for x in xs[1:]:
        out = join(poset, out, x)
        if out is None:
            return None
    return out


def covers_scan(sets):
    """Pairs (i, j), in index order, with sets[i] < sets[j] and no set
    strictly between: the triple loop that ``cover_pairs`` replaced."""
    n = len(sets)
    return [(i, j) for i in range(n) for j in range(n)
            if sets[i] < sets[j]
            and not any(sets[i] < sets[k] < sets[j] for k in range(n))]


def maximal_chains_scan(sets):
    """Every chain of the family (index tuples, increasing under strict
    inclusion) that no further set extends, by trying every index subset;
    sorted."""
    n = len(sets)
    chains = []
    for mask in range(1, 1 << n):
        idx = sorted((i for i in range(n) if mask >> i & 1),
                     key=lambda i: len(sets[i]))
        if all(sets[a] < sets[b] for a, b in zip(idx, idx[1:])):
            chains.append(frozenset(idx))
    return sorted(tuple(sorted(c, key=lambda i: len(sets[i])))
                  for c in chains if not any(c < d for d in chains))


# ---------------------------------------------------------------------------
# the minimal building set by its definition: interval products
# ---------------------------------------------------------------------------

def interval_below(poset, p):
    """The elements of the lower interval [o, p]."""
    return [z for z in poset.elements if poset.leq(z, p)]


def _interval_product_iso(poset, p, factors):
    """Check that componentwise join maps prod of [o, q_i] isomorphically
    onto [o, p]."""
    target = interval_below(poset, p)
    intervals = [interval_below(poset, q) for q in factors]
    size = 1
    for iv in intervals:
        size *= len(iv)
    if size != len(target):
        return False
    target_set = {s.edge_set for s in target}
    seen = set()
    images = []
    for combo in itertools.product(*intervals):
        img = join_of(poset, combo)
        if img is None or img.edge_set not in target_set \
                or img.edge_set in seen:
            return False
        seen.add(img.edge_set)
        images.append((combo, img))
    # order must be reflected, not just preserved
    for (a, img_a), (b, img_b) in itertools.combinations(images, 2):
        a_le_b = all(poset.leq(x, y) for x, y in zip(a, b))
        b_le_a = all(poset.leq(y, x) for x, y in zip(a, b))
        if a_le_b != poset.leq(img_a, img_b) \
                or b_le_a != poset.leq(img_b, img_a):
            return False
    return True


def _splits(poset, p, members):
    """p is the product of the maximal members contained in it: their
    attached-subspace dimensions add up to p's and the canonical
    interval-product map is an isomorphism."""
    below = [q for q in members if q.edge_set <= p.edge_set]
    factors = [q for q in below
               if not any(q.edge_set < r.edge_set for r in below)]
    return bool(factors) and a_dim(p) == sum(a_dim(q) for q in factors) \
        and _interval_product_iso(poset, p, factors)


def validate_building_set(members, poset):
    """Combinatorial interval-product condition plus additive dimensions."""
    return all(m.edge_set and poset.contains(m) for m in members) \
        and all(_splits(poset, p, members)
                for p in poset.elements if p.edge_set)


def irreducibles_by_splitting(poset):
    """Members of the minimal building set, bottom-up by attached
    dimension: an element is reducible iff it splits (``_splits``) over the
    maximal irreducibles already found below it; sorted canonically."""
    irr = []
    for g in sorted((s for s in poset.elements if s.edge_set),
                    key=lambda s: (a_dim(s),) + _canonical_key(s)):
        if not _splits(poset, g, irr):
            irr.append(g)
    return tuple(sorted(irr, key=_canonical_key))


# ---------------------------------------------------------------------------
# nested sets by their definition: antichain joins
# ---------------------------------------------------------------------------

def _antichain_join_ok(building, subset, new=None):
    """No antichain of size >= 2 may join into the building set.

    With ``new``, the set is ``subset`` plus ``new`` where ``subset`` is
    already nested, so only the antichains containing ``new`` are joined.
    """
    poset = building.base
    members = {m.edge_set for m in building.members}
    tail = () if new is None else (new,)
    for r in range(2 - len(tail), len(subset) + 1):
        for rest in itertools.combinations(subset, r):
            combo = rest + tail
            if any(poset.leq(a, b) or poset.leq(b, a)
                   for a, b in itertools.combinations(combo, 2)):
                continue
            j = join_of(poset, combo)
            if j is None or j.edge_set in members:
                return False
    return True


def is_nested_by_antichains(building, subset):
    return _antichain_join_ok(building, tuple(subset))


def nested_sets_by_antichains(building):
    """Member tuples of every nonempty nested set, sorted by size then
    member order: the growth ``enumerate_nested_sets`` replaced, joining
    every antichain that contains the new member."""
    members = sorted(building.members, key=_canonical_key)
    found = []

    def grow(prefix, start):
        for i in range(start, len(members)):
            if _antichain_join_ok(building, prefix, members[i]):
                cand = prefix + (members[i],)
                found.append(cand)
                grow(cand, i + 1)

    grow((), 0)
    found.sort(key=lambda t: (len(t), tuple(_canonical_key(s) for s in t)))
    return found


def maximal_nested_sizes_by_pairs(nested):
    """Sorted sizes of the inclusion-maximal sets among ``nested``, by
    testing every pair: the scan ``nested_cardinality`` replaced."""
    sets = [frozenset(m.edge_set for m in n.members) for n in nested]
    return tuple(sorted(len(s) for s in sets
                        if not any(s < t for t in sets)))


def contract_nested_leq_pairs(nested, sub):
    """``leq_pairs`` of ``contract_nested_poset`` as computed before the
    shared cover relation: a triple-loop Hasse diagram, the covers out of
    J cut, a search from o for orphans, then reachability."""
    members = sorted(nested.members,
                     key=lambda s: (len(s.edge_set), s.sorted_edges))
    jset = {s.edge_set for s in sub}
    nodes = [nested.building.base.parent.empty()] + members
    n = len(nodes)
    covers = []
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            if i == j or not x.edge_set <= y.edge_set \
                    or x.edge_set == y.edge_set:
                continue
            if not any(x.edge_set <= z.edge_set <= y.edge_set
                       and z.edge_set not in (x.edge_set, y.edge_set)
                       for z in nodes):
                covers.append((i, j))
    succ = {i: set() for i in range(n)}
    for i, j in covers:
        if nodes[i].edge_set not in jset:
            succ[i].add(j)
    reach_from_o = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in reach_from_o:
                    reach_from_o.add(w)
                    nxt.append(w)
        frontier = nxt
    for i in range(1, n):
        if i not in reach_from_o:
            succ[0].add(i)
    pairs = set()
    for i in range(n):
        seen = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        pairs |= {(i, j) for j in seen}
    return frozenset(pairs)


def _relative_contraction_core(g: Subgraph,
                               family: Sequence[Subgraph]) -> Subgraph:
    """Edge set to contract inside g, relative to the family."""
    parent = g.parent
    if any(m.edge_set == g.edge_set for m in family):
        return Subgraph(parent, edges_below(g, family))
    core: frozenset[int] = frozenset()
    for m in family:
        overlap = m.edge_set & g.edge_set
        if overlap < g.edge_set:
            core |= overlap
    return Subgraph(parent, core)


def contract_relative_mapped(g: Subgraph, family: Sequence[Subgraph],
                             ) -> tuple[Graph, dict[int, int]]:
    """Two-case relative contraction g // family.

    If g belongs to the family, contract the union of its strictly smaller
    members; otherwise contract the union of all proper overlaps with g.
    """
    return contract_mapped(g, _relative_contraction_core(g, family))


def contract_relative(g: Subgraph, family: Sequence[Subgraph]) -> Graph:
    return contract_relative_mapped(g, family)[0]


@dataclass(frozen=True)
class ContractedNestedPoset:
    """Poset of relative contractions g // J for g in a nested set.

    Index 0 is the empty graph o.  The order is derived from the Hasse
    diagram of the nested set: lines rising out of members of J are cut and
    orphaned elements are reattached to o.  The oracle of the members
    ``renorm.contract_chart`` keeps.
    """

    source: tuple
    leq_pairs: frozenset

    def leq(self, i, j):
        return (i, j) in self.leq_pairs

    def maximal_indices(self):
        n = len(self.source)
        return tuple(i for i in range(n)
                     if not any(self.leq(i, j) for j in range(n) if j != i))


def contract_nested_poset(members, sub):
    """Contract every member of a nested set relative to J = sub.

    ``members`` are the members of the nested set (``NestedSet.members`` or
    a chart's ``nested``).  This is the order the RG formula reads: for
    gamma in J, the members j with leq(j, gamma) are the members of the
    chart of gamma // J, and the members below no member of J are those of
    the remainder G // J."""
    members = sorted(members, key=_canonical_key)
    jset = {s.edge_set for s in sub}
    if not jset <= {m.edge_set for m in members}:
        raise GraphError("J must be a subset of the nested set")
    o = members[0].parent.empty()
    nodes = [o] + members
    n = len(nodes)

    succ = [[] for _ in nodes]
    for i, j in cover_pairs([x.edge_set for x in nodes]):
        if nodes[i].edge_set not in jset:
            succ[i].append(j)
    # orphans are reattached to o, so o lies below every node
    pairs = {(0, j) for j in range(n)}
    for i in range(1, n):
        seen = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        pairs |= {(i, j) for j in seen}
    return ContractedNestedPoset(tuple(nodes), frozenset(pairs))


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


def _members_below_set(members, k_idx):
    """Indices of members strictly below some member of K."""
    out = set()
    for j, m in enumerate(members):
        if j in k_idx:
            continue
        if any(m.edge_set < members[i].edge_set for i in k_idx):
            out.add(j)
    return out


def _restrict_chart_by_edges(chart, base, contract_edges, keep):
    """Chart for base with ``contract_edges`` contracted, keeping the listed
    member indices; returns the chart and the parent->child edge map."""
    g2, emap = contract_mapped(base, Subgraph(chart.graph,
                                              frozenset(contract_edges)))
    tree2 = frozenset(emap[e] for e in chart.basis.tree.edge_set
                      if e in emap)
    tree = SpanningTree(g2, tree2)
    assert is_spanning_forest_of(tree2, g2.full())
    members2, marks2 = [], []
    for j in keep:
        m = chart.nested[j]
        image = frozenset(emap[e] for e in m.edge_set if e in emap)
        e, i = chart.marks[j]
        members2.append(Subgraph(g2, image))
        marks2.append((emap[e], i))
    order = sorted(range(len(members2)),
                   key=lambda t: (len(members2[t].edge_set),
                                  members2[t].sorted_edges))
    chart2 = Chart(tuple(members2[t] for t in order), adapted_basis(tree),
                   tuple(marks2[t] for t in order))
    return chart2, emap


def _chart_sources(chart, child, emap, gamma_idx=None):
    """Parent member of each child member: the first parent member with the
    same image, or member ``gamma_idx`` when that is one of them."""
    sources = []
    for m in child.nested:
        found = None
        for j, parent_m in enumerate(chart.nested):
            image = frozenset(emap[e] for e in parent_m.edge_set
                              if e in emap)
            if image == m.edge_set:
                if j == gamma_idx:
                    found = parent_m
                    break
                if found is None:
                    found = parent_m
        assert found is not None, "could not match contracted member"
        sources.append(found)
    return tuple(sources)


def contract_chart_remainder_oracle(chart, k_idx):
    """G // K with hand-written index sets: the members neither in K nor
    strictly below a member of K; returns (chart, emap, parents)."""
    members = chart.nested
    below = _members_below_set(members, k_idx)
    keep = [j for j in range(len(members))
            if j not in k_idx and j not in below]
    contract_edges = set()
    for i in k_idx:
        contract_edges |= members[i].edge_set
    child, emap = _restrict_chart_by_edges(chart, chart.graph.full(),
                                           contract_edges, keep)
    return child, emap, _chart_sources(chart, child, emap)


def contract_chart_member_oracle(chart, k_idx, gamma_idx):
    """gamma // K with the index set H_gamma found by hand: the members
    strictly below gamma, not in K, and below no member of K that is itself
    below gamma; returns (chart, emap, parents)."""
    members = chart.nested
    gamma = members[gamma_idx]
    contract_edges = set()
    for i in k_idx:
        if members[i].edge_set < gamma.edge_set:
            contract_edges |= members[i].edge_set
    h_gamma = []
    for j, m in enumerate(members):
        if j in k_idx or not m.edge_set < gamma.edge_set:
            continue
        blocked = any(i in k_idx
                      and m.edge_set < members[i].edge_set
                      and members[i].edge_set < gamma.edge_set
                      for i in range(len(members)))
        if not blocked:
            h_gamma.append(j)
    child, emap = _restrict_chart_by_edges(chart, gamma, contract_edges,
                                           h_gamma + [gamma_idx])
    return child, emap, _chart_sources(chart, child, emap, gamma_idx)


def tropical_sampler_oracle(graph):
    """The tropical sampler before the per-edge-set member tables: each
    step compares the draw with the (2^|E|, |E|) cdf of the largest edge
    over all edges in index order, and the draw ends in a 2-D scatter.
    Reads h1, omega and J(E) from ``hepp_tables``."""
    tables = hepp_tables(graph)
    m = graph.n_edges
    h1, omega = tables.h1, tables.omega
    masks = np.arange(1 << m)
    inside = (masks[:, None] >> np.arange(m) & 1).astype(bool)
    size = inside.sum(axis=1)
    ratio = np.zeros(1 << m)
    weights = np.zeros((1 << m, m))
    for k in range(1, m + 1):
        layer = masks[size == k]
        if k == 1:
            j = np.ones(len(layer))
        else:
            for e in range(m):
                has = layer[inside[layer, e]]
                weights[has, e] = ratio[has ^ (1 << e)]
            j = weights[layer].sum(axis=1)
        if k < m:
            ratio[layer] = j / omega[layer]
    cdf = np.cumsum(weights, axis=1)
    cdf /= np.maximum(cdf[:, -1:], 1e-300)
    top = np.log2(np.maximum(masks, 1)).astype(np.int64)
    cdf[np.arange(m) >= top[:, None]] = 1.0

    bits = 1 << np.arange(m)
    # the last column is always 1: no draw passes it
    cdf_columns = np.ascontiguousarray(cdf[:, :-1].T)
    loops = float(h1[-1])

    def sampler(rng: np.random.Generator, n: int):
        draws = rng.random((2 * (m - 1), n))
        mask = np.full(n, (1 << m) - 1)
        removed = np.empty((m, n), dtype=np.int64)
        # level[k]: log alpha of the edge removed at step k, the sum of the
        # log scales of the steps before
        level = np.zeros((m, n))
        log_trop = np.zeros(n)
        for step in range(m - 1):
            choice, u = draws[2 * step], draws[2 * step + 1]
            e = np.zeros(n, dtype=np.int64)
            for column in cdf_columns:
                e += column[mask] <= choice
            rest = mask ^ bits[e]
            removed[step] = e
            log_trop += np.where(h1[rest] != h1[mask], level[step], 0.0)
            level[step + 1] = level[step] + np.log(1.0 - u) / omega[rest]
            mask = rest
        removed[m - 1] = np.log2(mask).astype(np.int64)
        level -= log_trop / loops
        log_alpha = np.empty((m, n))
        log_alpha[removed, np.arange(n)] = level
        return log_alpha.T, np.full(n, tables.hepp)
    return sampler
