"""Posets and lattices of subgraphs, building sets, nested sets.

Poset elements are canonicalized by sorted edge-index sets; every
enumeration emits sorted order so reports are stable.

The divergent lattice is the memoized edge-subset scan of the whole
graph (``graphs.divergent_subsets``, capped at 22 edges); the saturated
poset runs the same bitmask pass with its own test.  Both build a
``Subgraph`` only for the subsets they keep.  Posets of subgraphs are
ordered by inclusion, so whenever the union (intersection) of two
subgraphs is an element it is their join (meet), found by one dictionary
lookup; the scan over all elements is left for posets that are not
closed under union, such as the saturated one.

The order structure of a family of edge sets is computed in one place:
``cover_pairs`` is the only cover relation (Hasse diagram) and
``maximal_chains`` the only walk over maximal chains; the poset covers,
the rank check, the chain sizes of the maximal building set, the
contracted nested posets and the homology oracle's order complexes all
read them.

The minimal building set is read off the blocks of each element.  On the
two kinds of poset the package builds, the divergent lattice of an at
most logarithmic graph in d > 2 and the saturated poset, every interval
[o, p] is the product of the intervals [o, B_i] over the blocks B_i
(2-connected pieces) of p, so the irreducible elements are exactly those
that are one block: the biconnected building set of
Bergbauer-Brunetti-Kreimer (arXiv:0908.0633) and Feichtner's graphic
building sets (2005).

Nested sets are pairwise.  On the minimal and the maximal building set of
D(G) a family is nested exactly when every two members x, y are
compatible: x <= y, y <= x, or x u y is no member.  Why: elements of D(G)
have omega = 0 and D(G) is closed under union.  Compatible incomparable
blocks share no edge and at most one vertex (else x u y is a block), and
for an antichain A of them omega(u A) = d h1(I), I the block-vertex
incidence graph, so I is a tree and u A is no block.  In the maximal
building set every union is a member, so nested sets are chains.  Other
posets and building sets (the hexagon's saturated poset, the blocks plus
one reducible element) break the rule and are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import GraphError, NotAtMostLogarithmic
# divergent_elements is re-exported: the scan's divergent form is also read
# as lattice.divergent_elements.
from .graphs import (Graph, Subgraph, _canonical_key, _scan_edge_subsets,
                     a_dim, divergent_elements, divergent_subsets, is_block,
                     is_connected, positive_divergence_witness)


def cover_pairs(sets: Sequence[frozenset[int]]) -> list[tuple[int, int]]:
    """Sorted pairs (i, j) with sets[j] covering sets[i]: sets[i] < sets[j]
    and no set lies strictly between.

    The sets above x are visited by size, so every set strictly between x
    and y comes before y; y covers x unless a cover of x already found
    lies strictly below it."""
    by_size = sorted(range(len(sets)), key=lambda i: len(sets[i]))
    out = []
    for i, x in enumerate(sets):
        found: list[frozenset[int]] = []
        for j in by_size:
            y = sets[j]
            if x < y and not any(c < y for c in found):
                found.append(y)
                out.append((i, j))
    out.sort()
    return out


def maximal_chains(sets: Sequence[frozenset[int]]) -> list[tuple[int, ...]]:
    """Maximal chains of the family, ordered by inclusion, as index tuples.

    Each chain starts at a set with no lower cover and follows covers
    upward; starts and covers are taken in index order, depth first."""
    up: list[list[int]] = [[] for _ in sets]
    minimal = [True] * len(sets)
    for i, j in cover_pairs(sets):
        up[i].append(j)
        minimal[j] = False
    chains: list[tuple[int, ...]] = []

    def walk(chain: tuple[int, ...]) -> None:
        succ = up[chain[-1]]
        if not succ:
            chains.append(chain)
        for j in succ:
            walk(chain + (j,))

    for i in range(len(sets)):
        if minimal[i]:
            walk((i,))
    return chains


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

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with elements[j] covering elements[i]."""
        return cover_pairs([s.edge_set for s in self.elements])

    def atoms(self) -> tuple[Subgraph, ...]:
        """Minimal nonempty elements."""
        nonempty = [s for s in self.elements if s.edge_set]
        return tuple(s for s in nonempty
                     if not any(t.edge_set < s.edge_set for t in nonempty))


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

    @cached_property
    def _compatibility(self) -> tuple[dict[Subgraph, int], list[int]]:
        """Each member's index in canonical order and, for member i, the
        bitmask of the members compatible with it; GraphError unless this
        is the minimal or the maximal building set of a divergent lattice."""
        base = self.base
        members = sorted(self.members, key=_canonical_key)
        if base.kind != "divergent_lattice" or all(
                members != list(make(base).members)
                for make in (irreducibles, maximal_building_set)):
            raise GraphError("nested sets are decided pairwise only on the "
                             "minimal or the maximal building set of a "
                             "divergent lattice")
        sets = {m.edge_set for m in members}
        compat = [sum(1 << j for j, y in enumerate(members)
                      if x.edge_set <= y.edge_set or y.edge_set <= x.edge_set
                      or x.edge_set | y.edge_set not in sets)
                  for x in members]
        return {m: i for i, m in enumerate(members)}, compat


@dataclass(frozen=True)
class NestedSet:
    building: BuildingSet
    members: tuple[Subgraph, ...]

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# poset constructors
# ---------------------------------------------------------------------------

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
    require_at_most_logarithmic(full, "graph")
    return SubgraphPoset(divergent_subsets(full), kind="divergent_lattice")


def require_at_most_logarithmic(g: Subgraph, name: str) -> None:
    """Raise NotAtMostLogarithmic, with the witness, unless g is at most
    logarithmic."""
    witness = positive_divergence_witness(g)
    if witness is not None:
        raise NotAtMostLogarithmic(
            f"{name} is not at most logarithmic: subgraph "
            f"{sorted(witness)} has positive degree of divergence",
            witness=witness)


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
        # covers come sorted by their lower end and elements by size, so
        # every cover into i is read before rank[i] is
        covers = poset.covers()
        rank = [0] * len(els)
        for i, j in covers:
            rank[j] = max(rank[j], rank[i] + 1)
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

def irreducibles(poset: SubgraphPoset) -> BuildingSet:
    """Minimal building set: the nonempty elements that are one block
    (``graphs.is_block``), in the poset's canonical order.

    On the divergent lattice of an at most logarithmic graph in d > 2 and
    on the saturated poset, [o, p] is the product of the intervals
    [o, B_i] over the blocks B_i of p, so p is irreducible exactly when it
    is one block.  This is the biconnected building set of
    Bergbauer-Brunetti-Kreimer (arXiv:0908.0633) and of Feichtner's
    graphic building sets (2005).  The criterion is not known to hold on
    other posets, so a generic poset is refused.
    """
    if poset.kind not in ("divergent_lattice", "saturated_poset"):
        raise GraphError("irreducibles expects a divergent lattice or a "
                         f"saturated poset, got a {poset.kind} poset")
    members = tuple(s for s in poset.elements if is_block(s))
    return BuildingSet(poset, members, minimal=True)


def maximal_building_set(poset: SubgraphPoset) -> BuildingSet:
    members = tuple(s for s in poset.elements if s.edge_set)
    return BuildingSet(poset, members, minimal=False)


# ---------------------------------------------------------------------------
# nested sets
# ---------------------------------------------------------------------------

def is_nested(building: BuildingSet, subset: Sequence[Subgraph]) -> bool:
    """Every two of ``subset`` are compatible: comparable, or with a union
    that is no member (the pairwise rule of the module docstring).  Other
    building sets than the minimal and the maximal one of a divergent
    lattice, and non-members, raise GraphError."""
    position, compat = building._compatibility
    idx = [position.get(s) for s in subset]
    if None in idx:
        raise GraphError("nested sets are families of building-set members")
    return all(compat[i] >> j & 1 for i, j in itertools.combinations(idx, 2))


def enumerate_nested_sets(building: BuildingSet) -> list[NestedSet]:
    """All nonempty nested subsets of the building set, sorted by size then
    member (= index) order: the cliques of the compatibility relation of
    ``is_nested``, grown member by member over the members compatible with
    all so far.  Building sets that ``is_nested`` refuses raise here too."""
    position, compat = building._compatibility
    members = list(position)
    found: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], candidates: int) -> None:
        while candidates:
            i = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            found.append(prefix + (i,))
            grow(found[-1], candidates & compat[i])

    grow((), (1 << len(members)) - 1)
    found.sort(key=lambda t: (len(t), t))
    return [NestedSet(building, tuple(members[i] for i in t)) for t in found]


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
        # nested sets of the maximal building set are exactly the chains
        sizes = tuple(sorted(len(c) for c in maximal_chains(
            [m.edge_set for m in building.members])))
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
    leq_pairs: frozenset[tuple[int, int]]

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.leq_pairs

    def maximal_indices(self) -> tuple[int, ...]:
        n = len(self.source)
        return tuple(i for i in range(n)
                     if not any(self.leq(i, j) for j in range(n) if j != i))


def contract_nested_poset(members: Sequence[Subgraph],
                          sub: Sequence[Subgraph]) -> ContractedNestedPoset:
    """Contract every member of a nested set relative to J = sub.

    ``members`` are the members of the nested set (``NestedSet.members`` or
    a chart's ``nested``).  This is the order the RG formula reads: for
    gamma in J, the members j with leq(j, gamma) are the members of the
    chart of gamma // J, and the members below no member of J are those of
    the remainder G // J (``renorm.contract_chart_member`` and
    ``renorm.contract_chart_remainder``)."""
    members = sorted(members, key=_canonical_key)
    jset = {s.edge_set for s in sub}
    if not jset <= {m.edge_set for m in members}:
        raise GraphError("J must be a subset of the nested set")
    o = members[0].parent.empty()
    nodes = [o] + members
    n = len(nodes)

    succ: list[list[int]] = [[] for _ in nodes]
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
