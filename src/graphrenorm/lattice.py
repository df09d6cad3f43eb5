"""Posets and lattices of subgraphs, building sets, nested sets.

Poset elements are canonicalized by sorted edge-index sets; every
enumeration emits sorted order so reports are stable.

The divergent lattice and the saturated poset come from one bitmask pass
over all edge subsets (capped at 22 edges), which builds a ``Subgraph``
only for the subsets it keeps.  Posets of subgraphs are ordered by
inclusion, so whenever the union (intersection) of two subgraphs is an
element it is their join (meet), found by one dictionary lookup; the
scan over all elements is left for posets that are not closed under
union, such as the saturated one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import GraphError, NotAtMostLogarithmic
from .graphs import (Graph, Subgraph, a_dim, contract_relative,
                     is_connected, positive_divergence_witness)

# Exhaustive edge-subset scans stop here: 2^22 subsets take seconds.
MAX_SCAN_EDGES = 22


def _canonical_key(s: Subgraph):
    return (len(s.edge_set), s.sorted_edges)


@dataclass(frozen=True)
class SubgraphPoset:
    """Finite poset of subgraphs of one graph, ordered by edge inclusion.

    ``elements`` is sorted by (size, edge indices); the empty subgraph o is
    always element 0.  ``kind`` is one of divergent_lattice,
    saturated_poset, generic.
    """

    elements: tuple[Subgraph, ...]
    kind: str = "generic"

    @property
    def parent(self) -> Graph:
        return self.elements[0].parent

    @cached_property
    def _position(self) -> dict[frozenset[int], int]:
        """Edge set -> index of its first element."""
        out: dict[frozenset[int], int] = {}
        for i, s in enumerate(self.elements):
            out.setdefault(s.edge_set, i)
        return out

    def _find(self, s: Subgraph) -> Optional[int]:
        i = self._position.get(s.edge_set)
        return i if i is not None and self.elements[i] == s else None

    def index(self, s: Subgraph) -> int:
        i = self._find(s)
        if i is None:
            raise ValueError(f"{s.label()} is not a poset element")
        return i

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x: Subgraph, y: Subgraph) -> bool:
        return x.edge_set <= y.edge_set

    def contains(self, s: Subgraph) -> bool:
        return self._find(s) is not None

    def tau(self, s: Subgraph) -> int:
        """Grading: dimension of the attached subspace divided by d."""
        dim, ad = self.parent.dim, a_dim(s)
        if ad % dim:
            raise GraphError(f"subspace dimension of {s.label()} not a "
                             f"multiple of d")
        return ad // dim

    def _bound(self, edge_set: frozenset[int]) -> Optional[Subgraph]:
        """The element with this edge set, if the poset has exactly one."""
        i = self._position.get(edge_set)
        if i is None or len(self._position) != len(self.elements):
            return None
        return self.elements[i]

    def join(self, x: Subgraph, y: Subgraph) -> Optional[Subgraph]:
        """Least upper bound inside the poset, None if it does not exist.

        x u y, when it is an element, lies below every upper bound."""
        z = self._bound(x.edge_set | y.edge_set)
        if z is not None:
            return z
        ubs = [z for z in self.elements
               if self.leq(x, z) and self.leq(y, z)]
        mins = [z for z in ubs
                if not any(self.leq(w, z) and w != z for w in ubs)]
        return mins[0] if len(mins) == 1 else None

    def meet(self, x: Subgraph, y: Subgraph) -> Optional[Subgraph]:
        z = self._bound(x.edge_set & y.edge_set)
        if z is not None:
            return z
        lbs = [z for z in self.elements
               if self.leq(z, x) and self.leq(z, y)]
        maxs = [z for z in lbs
                if not any(self.leq(z, w) and w != z for w in lbs)]
        return maxs[0] if len(maxs) == 1 else None

    def join_of(self, xs: Sequence[Subgraph]) -> Optional[Subgraph]:
        out = xs[0]
        for x in xs[1:]:
            out = self.join(out, x)
            if out is None:
                return None
        return out

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with elements[j] covering elements[i]."""
        els = self.elements
        out = []
        for i, x in enumerate(els):
            for j, y in enumerate(els):
                if i == j or not self.leq(x, y):
                    continue
                if not any(self.leq(x, z) and self.leq(z, y)
                           and z != x and z != y for z in els):
                    out.append((i, j))
        return out

    def atoms(self) -> tuple[Subgraph, ...]:
        """Minimal nonempty elements."""
        nonempty = [s for s in self.elements if s.edge_set]
        return tuple(s for s in nonempty
                     if not any(t.edge_set < s.edge_set for t in nonempty))

    def interval_below(self, p: Subgraph) -> list[Subgraph]:
        return [z for z in self.elements if self.leq(z, p)]


@dataclass(frozen=True)
class BuildingSet:
    base: SubgraphPoset
    members: tuple[Subgraph, ...]
    minimal: bool = False

    def __post_init__(self):
        for m in self.members:
            if not m.edge_set or not self.base.contains(m):
                raise GraphError("building set members must be nonempty "
                                 "poset elements")

    @property
    def is_maximal(self) -> bool:
        nonempty = tuple(s for s in self.base.elements if s.edge_set)
        return set(self.members) == set(nonempty)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class NestedSet:
    building: BuildingSet
    members: tuple[Subgraph, ...]

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# poset constructors
# ---------------------------------------------------------------------------

def _scan_edge_subsets(
        graph: Graph, edges: Sequence[int],
        keep: Callable[[int, int, int, Callable[[int, int], bool]], bool],
) -> tuple[Subgraph, ...]:
    """o plus the nonempty subsets of ``edges`` accepted by ``keep``, in
    canonical order.

    One depth-first pass decides the edges in turn and carries the subset
    as an int mask (bit k for ``edges[k]``) with its edge count and its
    rank |V touched| - #components.  A union-find on vertex indices keeps
    the rank and is undone on the way back.  ``keep(mask, n_edges, rank,
    connected)`` is asked once per nonempty subset, where ``connected(a,
    b)`` tells whether two vertices share a component of it.  Only the kept
    subsets become ``Subgraph`` objects; no per-subgraph memo is touched.
    """
    m = len(edges)
    if m > MAX_SCAN_EDGES:
        raise GraphError(f"edge set too large for exhaustive scan ({m})")
    ends = [graph.edges[e] for e in edges]
    up = list(range(graph.n_vertices))

    def find(v: int) -> int:
        while up[v] != v:
            v = up[v]
        return v

    def connected(a: int, b: int) -> bool:
        return find(a) == find(b)

    kept = [0]

    def visit(k: int, mask: int, size: int, rank: int) -> None:
        if k == m:
            if mask and keep(mask, size, rank, connected):
                kept.append(mask)
            return
        visit(k + 1, mask, size, rank)
        a, b = ends[k]
        ra, rb = find(a), find(b)
        if ra == rb:
            visit(k + 1, mask | 1 << k, size + 1, rank)
        else:
            up[rb] = ra
            visit(k + 1, mask | 1 << k, size + 1, rank + 1)
            up[rb] = rb

    visit(0, 0, 0, 0)
    subsets = (frozenset(edges[k] for k in range(m) if mask >> k & 1)
               for mask in kept)
    return tuple(sorted((Subgraph(graph, s) for s in subsets),
                        key=_canonical_key))


def divergent_elements(graph: Graph, edges: Sequence[int],
                       ) -> tuple[Subgraph, ...]:
    """o plus the divergent subsets of ``edges``, in canonical order.

    omega = d*h1 - 2|E| with h1 = |E| - rank, so a subset is divergent
    iff (d - 2)|E| >= d*rank."""
    d = graph.dim
    return _scan_edge_subsets(
        graph, edges,
        lambda _mask, size, rank, _connected: (d - 2) * size >= d * rank)


def divergent_lattice(graph: Graph) -> SubgraphPoset:
    """All divergent edge subsets plus o, ordered by inclusion.

    Requires dimension > 2 (below that divergent subgraphs need not be
    saturated and the chart machinery breaks down) and a connected, at
    most logarithmic graph; join and meet are then realized by union and
    intersection.
    """
    if graph.dim <= 2:
        raise GraphError("divergent-lattice workflows need dimension > 2, "
                         f"got {graph.dim}")
    full = graph.full()
    if not is_connected(full):
        raise GraphError("divergent lattice requires a connected graph")
    witness = positive_divergence_witness(full)
    if witness is not None:
        raise NotAtMostLogarithmic(
            f"graph is not at most logarithmic: subgraph "
            f"{sorted(witness)} has positive degree of divergence",
            witness=witness)
    return SubgraphPoset(divergent_elements(graph, range(graph.n_edges)),
                         kind="divergent_lattice")


def saturated_poset(graph: Graph) -> SubgraphPoset:
    """All saturated subgraphs plus o, ordered by inclusion.

    A subgraph is saturated iff no edge outside it joins two vertices of
    one of its components."""
    ends = graph.edges

    def saturated(mask, _size, _rank, connected) -> bool:
        return not any(connected(a, b) for k, (a, b) in enumerate(ends)
                       if not mask >> k & 1)

    return SubgraphPoset(
        _scan_edge_subsets(graph, range(graph.n_edges), saturated),
        kind="saturated_poset")


# ---------------------------------------------------------------------------
# lattice property report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeReport:
    closed_under_union: bool
    closed_under_intersection: bool
    graded: bool
    distributive: bool
    witness: Optional[str]

    @property
    def ok(self) -> bool:
        return (self.closed_under_union and self.closed_under_intersection
                and self.graded and self.distributive)


def check_lattice_properties(poset: SubgraphPoset) -> LatticeReport:
    """Verify union/intersection closure, grading and distributivity.

    Distributivity is not tested triple by triple: on edge sets u and n
    distribute over each other, so the poset is a distributive lattice
    exactly when it is closed under both, and ``distributive`` reports
    that closure.  Grading is checked twice: tau must be monotone and the
    longest-chain rank must step by one along every cover."""
    if poset.kind != "divergent_lattice":
        raise GraphError("property check expects a divergent lattice")
    els = poset.elements
    elset = {s.edge_set for s in els}
    witness = None

    closed_u = closed_i = True
    for x, y in itertools.combinations(els, 2):
        if (x.edge_set | y.edge_set) not in elset:
            closed_u = False
            witness = witness or f"union of {x.label()} and {y.label()}"
        if (x.edge_set & y.edge_set) not in elset:
            closed_i = False
            witness = witness or f"intersection of {x.label()}, {y.label()}"

    # graded: the longest-chain rank must step by exactly one along every
    # cover (equivalently, all maximal chains between comparable elements
    # have equal length); the dimension grading tau must be monotone.
    graded = True
    try:
        taus = {s: poset.tau(s) for s in els}
    except GraphError as exc:
        graded = False
        witness = witness or str(exc)
        taus = {}
    if graded:
        for x, y in itertools.permutations(els, 2):
            if poset.leq(x, y) and taus[x] > taus[y]:
                graded = False
                witness = witness or f"tau not monotone at {x.label()}"
                break
    if graded:
        covers = poset.covers()
        rank = {0: 0}
        pending = [i for i in range(1, len(els))]
        while pending:
            progressed = False
            for i in list(pending):
                below = [a for a, b in covers if b == i]
                if all(a in rank for a in below):
                    rank[i] = max(rank[a] for a in below) + 1 if below else 0
                    pending.remove(i)
                    progressed = True
            if not progressed:
                break
        for i, j in covers:
            if rank[j] != rank[i] + 1:
                graded = False
                witness = witness or (f"maximal chains through "
                                      f"{els[j].label()} differ in length")
                break

    # join = u and meet = n on a poset closed under both, and u, n
    # distribute over each other on any sets
    distributive = closed_u and closed_i
    return LatticeReport(closed_u, closed_i, graded, distributive, witness)


# ---------------------------------------------------------------------------
# building sets
# ---------------------------------------------------------------------------

def _interval_product_iso(poset: SubgraphPoset, p: Subgraph,
                          factors: Sequence[Subgraph]) -> bool:
    """Check that componentwise join maps prod of [o, q_i] isomorphically
    onto [o, p]."""
    target = poset.interval_below(p)
    intervals = [poset.interval_below(q) for q in factors]
    size = 1
    for iv in intervals:
        size *= len(iv)
    if size != len(target):
        return False
    target_set = {s.edge_set for s in target}
    seen = set()
    images: list[tuple[tuple[Subgraph, ...], Subgraph]] = []
    for combo in itertools.product(*intervals):
        img = poset.join_of(list(combo))
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


def validate_building_set(members: Sequence[Subgraph],
                          poset: SubgraphPoset) -> bool:
    """Combinatorial interval-product condition plus additive dimensions."""
    mem = [m for m in members if m.edge_set]
    if len(mem) != len(members):
        return False
    if not all(poset.contains(m) for m in mem):
        return False
    for p in poset.elements:
        if not p.edge_set:
            continue
        below = [q for q in mem if poset.leq(q, p)]
        factors = [q for q in below
                   if not any(poset.leq(q, r) and q != r for r in below)]
        if not factors:
            return False
        if a_dim(p) != sum(a_dim(q) for q in factors):
            return False
        if not _interval_product_iso(poset, p, factors):
            return False
    return True


def irreducibles(poset: SubgraphPoset) -> BuildingSet:
    """Minimal building set, computed bottom-up by grading.

    An element is reducible iff the attached-subspace dimensions of the
    maximal already-known irreducibles below it add up to its own and the
    canonical interval-product map is an isomorphism; atoms are always
    irreducible.
    """
    irr: list[Subgraph] = []
    for g in sorted((s for s in poset.elements if s.edge_set),
                    key=lambda s: (a_dim(s),) + _canonical_key(s)):
        below = [q for q in irr if q.edge_set < g.edge_set]
        factors = [q for q in below
                   if not any(q.edge_set < r.edge_set for r in below)]
        if factors and a_dim(g) == sum(a_dim(q) for q in factors) \
                and _interval_product_iso(poset, g, factors):
            continue
        irr.append(g)
    members = tuple(sorted(irr, key=_canonical_key))
    return BuildingSet(poset, members, minimal=True)


def maximal_building_set(poset: SubgraphPoset) -> BuildingSet:
    members = tuple(s for s in poset.elements if s.edge_set)
    return BuildingSet(poset, members, minimal=False)


# ---------------------------------------------------------------------------
# nested sets
# ---------------------------------------------------------------------------

def _antichain_join_ok(building: BuildingSet, subset: Sequence[Subgraph],
                       new: Optional[Subgraph] = None) -> bool:
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
            j = poset.join_of(list(combo))
            if j is None or j.edge_set in members:
                return False
    return True


def is_nested(building: BuildingSet, subset: Sequence[Subgraph]) -> bool:
    return _antichain_join_ok(building, list(subset))


def enumerate_nested_sets(building: BuildingSet) -> list[NestedSet]:
    """All nonempty nested subsets of the building set, sorted by size then
    member order.  Nestedness is hereditary, so subsets are grown element
    by element."""
    members = sorted(building.members, key=_canonical_key)
    found: list[tuple[Subgraph, ...]] = []

    def grow(prefix: tuple[Subgraph, ...], start: int) -> None:
        for i in range(start, len(members)):
            if _antichain_join_ok(building, prefix, members[i]):
                cand = prefix + (members[i],)
                found.append(cand)
                grow(cand, i + 1)

    grow((), 0)
    found.sort(key=lambda t: (len(t), tuple(_canonical_key(s) for s in t)))
    return [NestedSet(building, t) for t in found]


@dataclass(frozen=True)
class NestedCardinalityReport:
    max_cardinality: int
    maximal_sizes: tuple[int, ...]
    all_maximal_equal: bool


def max_nested_cardinality(building: BuildingSet) -> NestedCardinalityReport:
    """Largest nested set; for the maximal building set also checks that
    every inclusion-maximal nested set (= maximal chain) has that size."""
    nested = [] if building.is_maximal else enumerate_nested_sets(building)
    return nested_cardinality(building, nested)


def nested_cardinality(building: BuildingSet, nested: Sequence[NestedSet],
                       ) -> NestedCardinalityReport:
    """``max_nested_cardinality`` from the building set's nested sets,
    already enumerated; the maximal building set walks its chains instead
    and ignores ``nested``."""
    if building.is_maximal:
        sizes = _maximal_chain_sizes(building)
    else:
        sets = [frozenset(m.edge_set for m in n.members) for n in nested]
        sizes = tuple(sorted(len(s) for s in sets
                             if not any(s < t for t in sets)))
    report = NestedCardinalityReport(
        max_cardinality=max(sizes) if sizes else 0,
        maximal_sizes=sizes,
        all_maximal_equal=len(set(sizes)) <= 1,
    )
    if building.is_maximal and not report.all_maximal_equal:
        raise GraphError("maximal nested sets of the maximal building set "
                         f"differ in size: {sizes}")
    return report


def _maximal_chain_sizes(building: BuildingSet) -> tuple[int, ...]:
    """Sizes of all maximal chains in the building set (nested sets of the
    maximal building set are exactly the chains)."""
    members = sorted(building.members, key=_canonical_key)
    ups = {m: [u for u in members if m.edge_set < u.edge_set]
           for m in members}
    minimal = [m for m in members
               if not any(m.edge_set > u.edge_set for u in members)]
    sizes: list[int] = []

    def walk(node: Subgraph, depth: int) -> None:
        succ = [u for u in ups[node]
                if not any(v.edge_set < u.edge_set for v in ups[node])]
        if not succ:
            sizes.append(depth)
            return
        for u in succ:
            walk(u, depth + 1)

    for m in minimal:
        walk(m, 1)
    return tuple(sorted(sizes))


# ---------------------------------------------------------------------------
# contraction of nested posets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractedNestedPoset:
    """Poset of relative contractions g // J for g in a nested set.

    Index 0 is the empty graph o.  The order is derived from the Hasse
    diagram of the nested set: lines rising out of members of J are cut and
    orphaned elements are reattached to o.
    """

    source: tuple[Subgraph, ...]
    graphs: tuple[Optional[Graph], ...]
    leq_pairs: frozenset[tuple[int, int]]

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.leq_pairs

    def maximal_indices(self) -> tuple[int, ...]:
        n = len(self.source)
        return tuple(i for i in range(n)
                     if not any(self.leq(i, j) for j in range(n) if j != i))


def contract_nested_poset(nested: NestedSet,
                          sub: Sequence[Subgraph]) -> ContractedNestedPoset:
    """Contract every member of the nested set relative to J = sub."""
    members = sorted(nested.members, key=_canonical_key)
    jset = {s.edge_set for s in sub}
    if not jset <= {m.edge_set for m in members}:
        raise GraphError("J must be a subset of the nested set")
    parent = nested.building.base.parent
    o = parent.empty()
    nodes = [o] + members
    n = len(nodes)

    def node_leq(a: Subgraph, b: Subgraph) -> bool:
        return a.edge_set <= b.edge_set

    covers = []
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            if i == j or not node_leq(x, y) or x.edge_set == y.edge_set:
                continue
            if not any(node_leq(x, z) and node_leq(z, y)
                       and z.edge_set not in (x.edge_set, y.edge_set)
                       for z in nodes):
                covers.append((i, j))
    kept = [(i, j) for (i, j) in covers if nodes[i].edge_set not in jset]
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in kept:
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
    graphs: list[Optional[Graph]] = [None]
    for m in members:
        graphs.append(contract_relative(m, list(sub)))
    return ContractedNestedPoset(tuple(nodes), tuple(graphs),
                                 frozenset(pairs))
