"""The exact layers against the per-subset scans they replaced.

Each oracle (``oracle_utils``) builds a ``Subgraph`` for every edge subset
and asks ``omega`` or ``is_saturated``; join and meet by lookup are
checked against the scan over every element; maximal nested sets are
found by testing every pair;
covers are a triple loop and maximal chains a scan over index subsets;
the minimal building set is found by interval-product splitting;
charts are built one by one through the checking ``Chart`` constructor,
and contracted charts from hand-written index sets, contracted edge unions
and a match of each child member back to a parent member;
``old_dumps`` is the JSON emitter as it was before its scalar fast path;
the chart inventory ``analyze`` renders once per nested set is checked
against ``chart_payload`` of every chart.
"""

import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrenorm import fixtures as fx
from graphrenorm.charts import (Chart, _check_marking, adapted_basis,
                                building_basis, chart_for, charts_of,
                                enumerate_charts, marking_options)
from graphrenorm.errors import GraphError
from graphrenorm.graphs import (Graph, adapted_spanning_tree,
                                at_most_logarithmic, classify, edges_below,
                                is_connected, is_primitive, omega, parse_graph,
                                positive_divergence_witness)
from graphrenorm.lattice import (BuildingSet, SubgraphPoset, cover_pairs,
                                 divergent_elements, divergent_lattice,
                                 enumerate_nested_sets, irreducibles,
                                 is_nested, maximal_building_set,
                                 maximal_chains, nested_cardinality,
                                 saturated_poset)
from graphrenorm.renorm import _divergent_poset_of, contract_chart
from graphrenorm.reports import (chart_inventory, chart_payload, dumps,
                                 format_float)
from conftest import small_multigraphs
from oracle_utils import (_at_most_logarithmic_bruteforce,
                          _relative_contraction_core, charts_by_constructor,
                          contract_chart_member_oracle,
                          contract_chart_remainder_oracle,
                          contract_nested_leq_pairs, contract_nested_poset,
                          covers_scan,
                          divergent_elements_scan,
                          irreducibles_by_splitting,
                          is_nested_by_antichains, join, join_scan,
                          maximal_chains_scan, maximal_nested_sizes_by_pairs,
                          meet, meet_scan,
                          nested_sets_by_antichains,
                          saturated_elements_scan, validate_building_set)


def permuted(graph, seed):
    """The graph with shuffled edge order and shuffled vertex labels."""
    rng = random.Random(seed)
    pos = list(range(graph.n_vertices))
    rng.shuffle(pos)
    order = list(range(graph.n_edges))
    rng.shuffle(order)
    labels = [""] * graph.n_vertices
    for old, new in enumerate(pos):
        labels[new] = f"p{graph.vertices[old]}"
    edges = tuple((pos[graph.edges[e][0]], pos[graph.edges[e][1]])
                  for e in order)
    return Graph(tuple(labels), edges, 0, graph.dim)


# the benchmark's graph family (perfbench/workloads.py), all <= 14 edges
FAMILY = [
    (fx.bubble_chain, (2,)), (fx.bubble_chain, (3,)), (fx.bubble_chain, (4,)),
    (fx.insertion_chain, (3,)), (fx.insertion_chain, (4,)),
    (fx.insertion_chain, (5,)), (fx.insertion_chain, (6,)),
    (fx.insertion_chain, (7,)),
    (fx.two_sided_bubbles, (2, 2)), (fx.two_sided_bubbles, (3, 2)),
    (fx.two_sided_bubbles, (3, 3)), (fx.two_sided_bubbles, (4, 2)),
    (fx.k_complete, (4,)), (fx.k_complete, (5,)),
]

FIXTURES = Path(__file__).parent.parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.glob("*.g"))


# ---------------------------------------------------------------------------
# the bitmask subset scan
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_multigraphs(max_vertices=6, max_edges=9),
       st.integers(min_value=2, max_value=8))
def test_scan_matches_per_subset_scan_random(graph, dim):
    graph = Graph(graph.vertices, graph.edges, 0, dim)
    edges = range(graph.n_edges)
    assert divergent_elements(graph, edges) \
        == divergent_elements_scan(graph, edges)
    assert saturated_poset(graph).elements == saturated_elements_scan(graph)


@st.composite
def at_most_logarithmic_multigraphs(draw, max_vertices=6, max_edges=12):
    """Multigraphs in d = 3..8 grown by greedy insertion: each drawn edge
    is kept when the graph stays at most logarithmic (brute force).
    Random multigraphs seldom are, so they seldom reach the pebble game's
    generators."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    dim = draw(st.integers(min_value=3, max_value=8))
    labels = tuple(str(i) for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = ()
    for pair in draw(st.lists(st.sampled_from(pairs), min_size=max_edges,
                              max_size=3 * max_edges)):
        grown = Graph(labels, edges + (pair,), 0, dim)
        if _at_most_logarithmic_bruteforce(grown.full()):
            edges = grown.edges
            if len(edges) == max_edges:
                break
    return Graph(labels, edges, 0, dim)


@settings(max_examples=80, deadline=None)
@given(at_most_logarithmic_multigraphs(), st.data())
def test_pebble_game_matches_per_subset_scan(graph, data):
    """Every subset of an at most logarithmic edge set is one too, so both
    the whole graph and a drawn subset take the pebble game's path."""
    sub = data.draw(st.permutations(
        [e for e in range(graph.n_edges) if data.draw(st.booleans())]))
    for edges in (range(graph.n_edges), sub):
        assert divergent_elements(graph, edges) \
            == divergent_elements_scan(graph, edges)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("build,args", FAMILY,
                         ids=[f"{b.__name__}{a}" for b, a in FAMILY])
def test_scan_matches_per_subset_scan_family(build, args, seed):
    graph = permuted(build(*args), seed)
    edges = range(graph.n_edges)
    assert divergent_elements(graph, edges) \
        == divergent_elements_scan(graph, edges)
    if graph.n_edges <= 10:
        assert saturated_poset(graph).elements \
            == saturated_elements_scan(graph)


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda f: f.stem)
def test_divergent_elements_match_per_subset_scan_on_fixtures(path):
    """In every dimension 2..8: the pebble game where the fixture is at
    most logarithmic there, the scan where it is not."""
    graph = parse_graph(path.read_text())
    for dim in range(2, 9):
        graph = Graph(graph.vertices, graph.edges, 0, dim)
        edges = range(graph.n_edges)
        assert divergent_elements(graph, edges) \
            == divergent_elements_scan(graph, edges)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(max_vertices=5, max_edges=8), st.data())
def test_divergent_poset_of_edge_subsets(graph, data):
    edges = data.draw(st.sets(st.sampled_from(range(graph.n_edges))))
    sub = graph.subgraph(edges)
    assert _divergent_poset_of(sub).elements \
        == divergent_elements_scan(graph, sub.sorted_edges)


def test_divergent_poset_of_locality_factors():
    graph = fx.two_sided_bubbles(3, 2)
    for edges in ({0, 1}, {2, 3}, {0, 1, 2, 3}, set(range(graph.n_edges))):
        sub = graph.subgraph(edges)
        assert _divergent_poset_of(sub).elements \
            == divergent_elements_scan(graph, sub.sorted_edges)


def test_scan_keeps_the_edge_cap():
    graph = fx.bubble_chain(8)
    assert graph.n_edges > 22
    with pytest.raises(GraphError, match="too large"):
        divergent_elements(graph, range(graph.n_edges))
    with pytest.raises(GraphError, match="too large"):
        saturated_poset(graph)


@settings(max_examples=80, deadline=None)
@given(small_multigraphs(max_vertices=5, max_edges=8),
       st.integers(min_value=2, max_value=8))
def test_witness_is_first_positive_subset_of_scan(graph, dim):
    graph = Graph(graph.vertices, graph.edges, 0, dim)
    full = graph.full()
    scan = divergent_elements_scan(graph, full.sorted_edges)
    first = next((s.edge_set for s in scan if omega(s) > 0), None)
    assert positive_divergence_witness(full) == first


@settings(max_examples=80, deadline=None)
@given(small_multigraphs(max_vertices=5, max_edges=8),
       st.integers(min_value=2, max_value=8), st.data())
def test_is_primitive_matches_scan_definition(graph, dim, data):
    graph = Graph(graph.vertices, graph.edges, 0, dim)
    edges = data.draw(st.sets(st.sampled_from(range(graph.n_edges))))
    sub = graph.subgraph(edges)
    scan = divergent_elements_scan(graph, sub.sorted_edges)
    assert is_primitive(sub) == (scan == (graph.empty(), sub))


def test_scan_cap_fails_fast_for_every_divergence_query():
    graph = fx.bubble_chain(8)
    start = time.perf_counter()
    for query in (classify, at_most_logarithmic, is_primitive,
                  positive_divergence_witness):
        with pytest.raises(GraphError, match="too large"):
            query(graph.full())
    with pytest.raises(GraphError, match="too large"):
        divergent_lattice(graph)
    assert time.perf_counter() - start < 2.0


@st.composite
def forests(draw, max_vertices=12):
    """Forests in shuffled edge order: each vertex after the first hangs
    from an earlier one or starts a new tree."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    for v in range(1, n):
        u = draw(st.one_of(st.none(), st.integers(0, v - 1)))
        if u is not None:
            edges.append((u, v) if draw(st.booleans()) else (v, u))
    edges = draw(st.permutations(edges))
    dim = draw(st.integers(min_value=1, max_value=8))
    return Graph(tuple(str(i) for i in range(n)), tuple(edges), 0, dim)


@settings(max_examples=80, deadline=None)
@given(forests(), st.data())
def test_forests_skip_the_scan(graph, data):
    """omega = -2|E| < 0 on every nonempty edge set with h1 = 0."""
    edges = [e for e in range(graph.n_edges) if data.draw(st.booleans())]
    for sub in (range(graph.n_edges), edges):
        assert divergent_elements(graph, sub) \
            == divergent_elements_scan(graph, sub)


def test_forests_classify_beyond_the_edge_cap():
    start = time.perf_counter()
    rep = classify(fx.star(22).full())
    assert time.perf_counter() - start < 1.0
    assert (rep.divergent, rep.at_most_logarithmic, rep.primitive) \
        == (False, True, False)
    big = fx.star(40)
    assert big.n_edges > 22
    assert classify(big.full()).at_most_logarithmic
    assert divergent_lattice(big).elements == (big.empty(),)


# ---------------------------------------------------------------------------
# join and meet
# ---------------------------------------------------------------------------

def _posets():
    yield saturated_poset(fx.k_complete(4))
    yield saturated_poset(fx.k_complete(5))
    for graph in (fx.dunce_cap(), fx.fish(), fx.bubble_chain(3),
                  fx.insertion_chain(4), fx.two_sided_bubbles(2, 2),
                  fx.k_complete(4)):
        yield divergent_lattice(graph)


@pytest.mark.parametrize("poset", list(_posets()),
                         ids=lambda p: f"{p.kind}{len(p)}")
def test_join_meet_match_scan(poset):
    for x, y in itertools.product(poset.elements, repeat=2):
        assert join(poset, x, y) == join_scan(poset, x, y)
        assert meet(poset, x, y) == meet_scan(poset, x, y)


def test_join_meet_on_non_elements_and_duplicates():
    D = divergent_lattice(fx.bubble_chain(2))
    graph = D.parent
    # arguments need not be elements
    x, y = graph.subgraph({0}), graph.subgraph({4})
    for poset in (D, SubgraphPoset(D.elements + D.elements[1:2])):
        assert join(poset, x, y) == join_scan(poset, x, y)
        assert meet(poset, x, y) == meet_scan(poset, x, y)
        for a, b in itertools.product(poset.elements, repeat=2):
            assert join(poset, a, b) == join_scan(poset, a, b)
            assert meet(poset, a, b) == meet_scan(poset, a, b)


def test_index_and_contains():
    D = divergent_lattice(fx.dunce_cap())
    for i, s in enumerate(D.elements):
        assert D.index(s) == i and D.contains(s)
    outside = D.parent.subgraph({0})
    assert not D.contains(outside)
    with pytest.raises(ValueError):
        D.index(outside)
    # equal edge sets of another graph are not elements
    other = fx.dunce_cap()
    other = Graph(other.vertices, other.edges, 0, 6)
    assert not D.contains(other.full())


# ---------------------------------------------------------------------------
# covers, maximal chains and contracted nested posets
# ---------------------------------------------------------------------------

edge_set_families = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=5), max_size=5),
    max_size=10)


@settings(max_examples=300, deadline=None)
@given(edge_set_families)
def test_cover_pairs_and_chains_match_scan_random(sets):
    """Shuffled families with repeats and no lattice structure."""
    assert cover_pairs(sets) == covers_scan(sets)
    assert maximal_chains(sets) == maximal_chains_scan(sets)


@pytest.mark.parametrize("build,args", FAMILY,
                         ids=[f"{b.__name__}{a}" for b, a in FAMILY])
def test_cover_pairs_match_scan_family(build, args):
    """D(G) as the scan's elements (K5 is not at most logarithmic at d = 4)
    and the saturated poset."""
    graph = permuted(build(*args), 0)
    posets = [SubgraphPoset(divergent_elements(graph, range(graph.n_edges)))]
    if graph.n_edges <= 10:
        posets.append(saturated_poset(graph))
    for poset in posets:
        assert poset.covers() \
            == covers_scan([s.edge_set for s in poset.elements])


@pytest.mark.parametrize("graph", [fx.bubble_chain(3), fx.insertion_chain(4),
                                   fx.two_sided_bubbles(2, 2)],
                         ids=["bubble3", "insertion4", "tsb22"])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_contract_nested_poset_matches_old_order(graph, which):
    for nested in enumerate_nested_sets(which(divergent_lattice(graph))):
        members = nested.members
        for r in range(len(members) + 1):
            for sub in itertools.combinations(members, r):
                assert contract_nested_poset(members, sub).leq_pairs \
                    == contract_nested_leq_pairs(nested, sub)


@pytest.mark.parametrize("graph", [fx.bubble_chain(3), fx.insertion_chain(4),
                                   fx.two_sided_bubbles(2, 2)],
                         ids=["bubble3", "insertion4", "tsb22"])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_rg_member_filters_match_contracted_poset(graph, which):
    """The members the RG charts keep, read off inclusion, are those below
    gamma (below no member of K) in the contracted nested poset."""
    building = which(divergent_lattice(graph))
    for nested in enumerate_nested_sets(building):
        chart = chart_for(building, nested.members)
        members = chart.nested
        full = chart.graph.full()
        for r in range(1, len(members) + 1):
            for K in itertools.combinations(range(len(members)), r):
                family = [members[i] for i in K]
                poset = contract_nested_poset(members, family)
                node = [poset.source.index(m) for m in members]

                def below(i):
                    return [j for j in range(len(members))
                            if poset.leq(node[j], node[i])]

                def kept(base):
                    parents = contract_chart(chart, base, family)[2]
                    return sorted(members.index(p) for p in parents)
                for gamma in K:
                    assert kept(members[gamma]) == below(gamma)
                outside = [j for j in range(len(members))
                           if not any(j in below(i) for i in K)]
                if full in family:
                    assert outside == []
                else:
                    assert kept(full) == outside


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.g")))
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_edges_below_is_the_two_case_contraction_of_a_member(name, which):
    """For a member of a nested set, the two-case relative contraction
    contracts exactly the members strictly inside it."""
    graph = parse_graph((FIXTURES / f"{name}.g").read_text())
    for nested in enumerate_nested_sets(which(divergent_lattice(graph))):
        for gamma in nested.members:
            assert edges_below(gamma, nested.members) == \
                _relative_contraction_core(gamma, nested.members).edge_set


# ---------------------------------------------------------------------------
# irreducibles: blocks against interval-product splitting
# ---------------------------------------------------------------------------

def _check_irreducibles(poset):
    assert irreducibles(poset).members == irreducibles_by_splitting(poset)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(max_vertices=5, max_edges=8),
       st.integers(min_value=3, max_value=8), st.integers(0, 2 ** 16))
def test_irreducibles_match_splitting_on_divergent_lattices(graph, dim,
                                                            seed):
    graph = Graph(graph.vertices, graph.edges, 0, dim)
    if not is_connected(graph.full()) \
            or not at_most_logarithmic(graph.full()):
        return
    for g in (graph, permuted(graph, seed)):
        _check_irreducibles(divergent_lattice(g))


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(max_vertices=5, max_edges=8),
       st.integers(0, 2 ** 16))
def test_irreducibles_match_splitting_on_saturated_posets(graph, seed):
    for g in (graph, permuted(graph, seed)):
        _check_irreducibles(saturated_poset(g))


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("build,args", FAMILY,
                         ids=[f"{b.__name__}{a}" for b, a in FAMILY])
def test_irreducibles_match_splitting_on_family(build, args, seed):
    """D(G) where it exists (not K5 at d = 4) and the saturated poset, on
    the benchmark's graphs and two of their permutations."""
    graph = build(*args)
    if seed is not None:
        graph = permuted(graph, seed)
    if at_most_logarithmic(graph.full()):
        _check_irreducibles(divergent_lattice(graph))
    if graph.n_edges <= 10:
        _check_irreducibles(saturated_poset(graph))


@pytest.mark.parametrize("n,dim", [(4, 3), (4, 4), (5, 3), (5, 4)])
def test_irreducibles_match_splitting_on_complete_graphs(n, dim):
    graph = fx.k_complete(n, dim=dim)
    if at_most_logarithmic(graph.full()):
        _check_irreducibles(divergent_lattice(graph))
    _check_irreducibles(saturated_poset(graph))


# ---------------------------------------------------------------------------
# nested sets: pairwise compatibility against antichain joins
# ---------------------------------------------------------------------------

def _check_nested_sets(building):
    assert [n.members for n in enumerate_nested_sets(building)] \
        == nested_sets_by_antichains(building)


def _check_both_building_sets(graph):
    D = divergent_lattice(graph)
    _check_nested_sets(irreducibles(D))
    _check_nested_sets(maximal_building_set(D))


@st.composite
def log_divergent_multigraphs(draw, max_edges=14):
    """Multigraphs in d = 3..8 with the edge count m at which a connected
    graph on n vertices is log divergent, m (d - 2) = d (n - 1).  Above
    d = 4 a double edge has omega > 0, so edges are distinct pairs."""
    dim = draw(st.integers(min_value=3, max_value=8))
    sizes = [n for n in range(2, max_edges + 2)
             if dim * (n - 1) % (dim - 2) == 0
             and dim * (n - 1) // (dim - 2) <= max_edges]
    n = draw(st.sampled_from(sizes))
    m = dim * (n - 1) // (dim - 2)
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(n)
                             if i != j])
    edges = draw(st.lists(pairs, min_size=m, max_size=m,
                          unique_by=frozenset if dim > 4 else None))
    return Graph(tuple(str(i) for i in range(n)), tuple(edges), 0, dim)


@settings(max_examples=200, deadline=None)
@given(log_divergent_multigraphs())
def test_nested_sets_match_antichains_random(graph):
    if not is_connected(graph.full()) \
            or not at_most_logarithmic(graph.full()):
        return
    _check_both_building_sets(graph)


@pytest.mark.parametrize("graph",
                         [parse_graph(f.read_text()) for f in FIXTURE_FILES],
                         ids=[f.stem for f in FIXTURE_FILES])
def test_nested_sets_match_antichains_on_fixtures(graph):
    _check_both_building_sets(graph)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "build,args",
    [(b, a) for b, a in FAMILY if at_most_logarithmic(b(*a).full())],
    ids=[f"{b.__name__}{a}" for b, a in FAMILY
         if at_most_logarithmic(b(*a).full())])
def test_nested_sets_match_antichains_on_family(build, args, seed):
    _check_both_building_sets(permuted(build(*args), seed))


@pytest.mark.parametrize("which", [
    irreducibles,
    # 439,595 chains: the antichain search takes about 35 s
    pytest.param(maximal_building_set, marks=pytest.mark.slow)])
def test_nested_sets_match_antichains_on_bubble_chain5(which):
    _check_nested_sets(which(divergent_lattice(fx.bubble_chain(5))))


@pytest.mark.parametrize("graph", [fx.bubble_chain(3),
                                   fx.two_sided_bubbles(2, 2)],
                         ids=["bubble3", "two_sided22"])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_is_nested_matches_antichains_on_every_subset(graph, which):
    building = which(divergent_lattice(graph))
    members = building.members
    for r in range(len(members) + 1):
        for subset in itertools.combinations(members, r):
            assert is_nested(building, subset) \
                == is_nested_by_antichains(building, subset)


def _pairwise_families(building):
    """Nonempty families of members in which every two are comparable or
    have a union that is no member, by trying every family."""
    sets = {m.edge_set for m in building.members}

    def compatible(a, b):
        return a.edge_set <= b.edge_set or b.edge_set <= a.edge_set \
            or (a.edge_set | b.edge_set) not in sets

    return [c for r in range(1, len(building.members) + 1)
            for c in itertools.combinations(building.members, r)
            if all(compatible(a, b) for a, b in itertools.combinations(c, 2))]


def test_saturated_posets_are_refused():
    """On the hexagon's saturated poset the six edges join to the cycle,
    a member, although every two of them are compatible."""
    hexagon = Graph(tuple("abcdef"),
                    tuple((i, (i + 1) % 6) for i in range(6)), 0, 4)
    building = irreducibles(saturated_poset(hexagon))
    assert len(nested_sets_by_antichains(building)) == 113
    assert len(_pairwise_families(building)) == 127
    with pytest.raises(GraphError, match="pairwise"):
        enumerate_nested_sets(building)
    with pytest.raises(GraphError, match="pairwise"):
        is_nested(building, building.members[:1])


def test_intermediate_building_sets_are_refused():
    """The blocks of two_sided_bubbles(2, 1) plus {e0..e5} satisfy the
    building-set definition, but their nested sets are not pairwise."""
    D = divergent_lattice(fx.two_sided_bubbles(2, 1))
    extra = D.parent.subgraph(range(6))
    building = BuildingSet(D, irreducibles(D).members + (extra,))
    assert validate_building_set(building.members, D)
    assert len(nested_sets_by_antichains(building)) == 27
    assert len(_pairwise_families(building)) == 31
    with pytest.raises(GraphError, match="pairwise"):
        enumerate_nested_sets(building)
    with pytest.raises(GraphError, match="pairwise"):
        is_nested(building, [extra])


def test_is_nested_refuses_non_members():
    graph = fx.bubble_chain(2)
    D = divergent_lattice(graph)
    building = irreducibles(D)
    reducible = [s for s in D.elements
                 if s.edge_set and s not in building.members]
    assert reducible
    for stranger in (reducible[0], graph.subgraph({0})):
        with pytest.raises(GraphError, match="members"):
            is_nested(building, [building.members[0], stranger])


def test_nested_set_count_of_bubble_chain6():
    building = irreducibles(divergent_lattice(fx.bubble_chain(6)))
    assert len(enumerate_nested_sets(building)) == 25_215


def _check_maximal_nested_sizes(graph):
    building = irreducibles(divergent_lattice(graph))
    nested = enumerate_nested_sets(building)
    report = nested_cardinality(building, nested)
    sizes = maximal_nested_sizes_by_pairs(nested)
    assert report.maximal_sizes == sizes
    assert report.max_cardinality == (max(sizes) if sizes else 0)


@pytest.mark.parametrize("graph",
                         [parse_graph(f.read_text()) for f in FIXTURE_FILES],
                         ids=[f.stem for f in FIXTURE_FILES])
def test_maximal_nested_sets_match_pair_scan_on_fixtures(graph):
    _check_maximal_nested_sizes(graph)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "build,args",
    [(b, a) for b, a in FAMILY if at_most_logarithmic(b(*a).full())],
    ids=[f"{b.__name__}{a}" for b, a in FAMILY
         if at_most_logarithmic(b(*a).full())])
def test_maximal_nested_sets_match_pair_scan_on_family(build, args, seed):
    _check_maximal_nested_sizes(permuted(build(*args), seed))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("graph",
                         [parse_graph(f.read_text()) for f in FIXTURE_FILES],
                         ids=[f.stem for f in FIXTURE_FILES])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_charts_match_checked_construction(graph, which):
    """The chart sequence lists, counts and indexes exactly the charts the
    checking constructor builds one by one."""
    building = which(divergent_lattice(graph))
    charts = enumerate_charts(building)
    listed = list(charts)
    assert listed == charts_by_constructor(building)
    assert len(charts) == len(listed)
    assert all(charts[i] == c for i, c in enumerate(listed))
    for c in charts:
        assert c == Chart(c.nested, c.basis, c.marks)
    for i in (len(listed), -len(listed) - 1):
        with pytest.raises(IndexError):
            charts[i]


@pytest.mark.parametrize("graph", [fx.bubble_chain(3),
                                   fx.two_sided_bubbles(2, 2)],
                         ids=["bubble3", "two_sided22"])
def test_chart_sequence_indices_and_slices(graph):
    """Sampled indices, negative ones included, and slices of the
    maximal building set's charts read like the listed charts."""
    charts = enumerate_charts(maximal_building_set(divergent_lattice(graph)))
    listed = list(charts)
    n = len(listed)
    assert len(charts) == n
    rng = random.Random(19)
    for i in rng.sample(range(-n, n), 400) + [0, n - 1, -1, -n]:
        assert charts[i] == listed[i]
    for _ in range(60):
        step = rng.choice([1, 2, 7, -1, -3])
        start = rng.randrange(-n, n)
        window = slice(start, start + step * rng.randrange(60), step)
        assert charts[window] == listed[window]
    assert charts[:5] == listed[:5] and charts[-5:] == listed[-5:]
    assert charts[n + 3:] == []
    for i in (n, -n - 1, 10 ** 12):
        with pytest.raises(IndexError):
            charts[i]


@pytest.mark.parametrize(
    "build,args",
    [(b, a) for b, a in FAMILY if at_most_logarithmic(b(*a).full())],
    ids=[f"{b.__name__}{a}" for b, a in FAMILY
         if at_most_logarithmic(b(*a).full())])
def test_chart_count_invariant_under_permutation(build, args):
    """The count of a permuted graph comes from its own basis and options
    and equals the unpermuted count."""
    graph = build(*args)
    counts = [len(enumerate_charts(irreducibles(divergent_lattice(g))))
              for g in (graph, permuted(graph, 0), permuted(graph, 1))]
    assert counts == [counts[0]] * 3


def test_marking_options_fail_like_their_markings():
    graph = fx.dunce_cap()
    g, G = graph.subgraph({2, 3}), graph.full()
    basis = adapted_basis(adapted_spanning_tree(graph, [g, G]))
    cases = [
        ((g, g), [[(2, 0), (2, 1)], [(2, 1)]]),   # a shared coordinate
        ((g, G), [[(2, 0)], [(0, 0), (2, 1)]]),   # edge in a lower member
        ((g, G), [[(2, 0)], [(3, 0)]]),           # not a tree edge
        ((g, G), [[(2, 0)], [(0, 4)]]),           # component out of range
    ]
    for nested, options in cases:
        failures = set()
        for marks in itertools.product(*options):
            try:
                Chart(nested, basis, marks)
            except GraphError as exc:
                failures.add(str(exc))
        with pytest.raises(GraphError) as err:
            _check_marking(nested, basis, options)
        assert str(err.value) in failures
    _check_marking((g, G), basis, [[(2, 0), (2, 1)], [(0, 0), (0, 3)]])


# with the maximal building set, bubble3 and two_sided22 render the payload
# of each of their 55,484 and 82,260 charts: 12-21 s each
@pytest.mark.parametrize(
    "graph",
    [pytest.param(parse_graph(f.read_text()),
                  marks=[pytest.mark.slow] if f.stem == "bubble3" else [])
     for f in FIXTURE_FILES]
    + [fx.insertion_chain(4),
       pytest.param(fx.two_sided_bubbles(2, 2), marks=pytest.mark.slow)],
    ids=[f.stem for f in FIXTURE_FILES] + ["insertion4", "two_sided22"])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_chart_inventory_matches_chart_payloads(graph, which):
    building = which(divergent_lattice(graph))
    nested = enumerate_nested_sets(building)
    charts = charts_of(building, nested)
    basis = building_basis(building)
    assert list(charts) == [
        Chart(members, basis, marks)
        for members, options in marking_options(basis, nested)
        for marks in itertools.product(*options)]
    inventory = chart_inventory(building, nested)
    payloads = [chart_payload(c) for c in charts]
    for indent in (0, 1, 3):
        assert dumps(inventory, indent) == dumps(payloads, indent)


@pytest.mark.parametrize("name", ["k3", "star3"])
def test_chart_inventory_without_nested_sets(name):
    graph = parse_graph((FIXTURES / f"{name}.g").read_text())
    building = irreducibles(divergent_lattice(graph))
    assert enumerate_nested_sets(building) == []
    assert dumps(chart_inventory(building, []), 2) == "[]"


def _contracted_parts(contracted):
    child, emap, parents = contracted
    return (child.graph, emap, child.nested, child.marks, child.basis.tree,
            parents)


@pytest.mark.parametrize("graph", [fx.dunce_cap(), fx.two_sided_bubbles(1, 1),
                                   fx.two_sided_bubbles(2, 1),
                                   fx.insertion_chain(4), fx.bubble_chain(3)],
                         ids=["dunce", "nm11", "nm21", "insertion4",
                              "bubble3"])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_contracted_charts_match_hand_built_index_sets(graph, which):
    building = which(divergent_lattice(graph))
    for nested in enumerate_nested_sets(building):
        chart = chart_for(building, nested.members)
        full = chart.graph.full()
        for r in range(1, len(chart.nested) + 1):
            for K in itertools.combinations(range(len(chart.nested)), r):
                family = [chart.nested[i] for i in K]
                for gamma_idx in K:
                    assert _contracted_parts(contract_chart(
                        chart, chart.nested[gamma_idx], family)) \
                        == _contracted_parts(contract_chart_member_oracle(
                            chart, K, gamma_idx))
                if full not in family:
                    assert _contracted_parts(
                        contract_chart(chart, full, family)) \
                        == _contracted_parts(
                            contract_chart_remainder_oracle(chart, K))


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def old_dumps(obj, indent=0):
    """reports.dumps before the scalar fast path."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        parts = [f'{inner}"{k}": {old_dumps(obj[k], indent + 1)}'
                 for k in keys]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{old_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Weird:
    """A value neither emitter can serialize."""


class Label(str):
    """A str subclass: rendered through the isinstance chain."""


class Count(int):
    """An int subclass: rendered through the isinstance chain."""


scalars = st.one_of(
    st.booleans(), st.none(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-5, 5).map(Count),
    st.text(alphabet='a"\\').map(Label),
    st.text(alphabet=st.sampled_from('ab"\\\né ')),
)
unsupported = st.sampled_from([Weird(), {1, 2}, b"x", 1j, np.int64(3)])
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(alphabet="ab\"\\"), inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(values, st.integers(0, 2))
def test_dumps_matches_old_emitter(value, indent):
    assert dumps(value, indent) == old_dumps(value, indent)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.one_of(scalars, unsupported),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(alphabet="ab"), inner, max_size=4)),
    max_leaves=12))
def test_dumps_raises_like_old_emitter(value):
    try:
        want = old_dumps(value)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            dumps(value)
        assert str(got.value) == str(exc)
    else:
        assert dumps(value) == want


def test_dumps_subclass_scalars_render_as_before():
    for value in (np.float64(0.1), np.float64(-2.5e-300), Count(7),
                  Label('q"\\'), True, False, None, 'q"\\', [], {}, (),
                  [np.float64(1.0)]):
        assert dumps(value) == old_dumps(value)
