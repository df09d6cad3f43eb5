import itertools
import time

import pytest
from hypothesis import given, settings

from graphrenorm import fixtures as fx
from graphrenorm.errors import GraphError, NotAtMostLogarithmic
from graphrenorm.graphs import Graph, Subgraph, a_dim, at_most_logarithmic
from graphrenorm.lattice import (SubgraphPoset, check_lattice_properties,
                                 divergent_lattice, enumerate_nested_sets,
                                 irreducibles, is_nested,
                                 max_nested_cardinality,
                                 maximal_building_set, saturated_poset)
from conftest import connected_on_touched, small_multigraphs
from oracle_utils import (_interval_product_iso, contract_nested_poset,
                          contract_relative, irreducibles_by_splitting,
                          join_of, validate_building_set)


def labels(subs):
    return sorted(s.label() for s in subs)


# ---------------------------------------------------------------------------
# poset constructors
# ---------------------------------------------------------------------------

def test_divergent_lattice_dunce(dunce):
    D = divergent_lattice(dunce)
    assert labels(D.elements) == ["o", "{e0,e1,e2,e3}", "{e2,e3}"]


def test_divergent_lattice_fish(fish):
    D = divergent_lattice(fish)
    assert labels(D.elements) == ["o", "{e0,e1}"]


def test_divergent_lattice_insertion_chain():
    for n in (2, 3):
        g = fx.insertion_chain(n)
        D = divergent_lattice(g)
        # a chain: total order
        assert len(D.elements) == n + 1
        for x, y in itertools.combinations(D.elements, 2):
            assert D.leq(x, y) or D.leq(y, x)


@pytest.mark.parametrize("n", range(1, 7))
def test_divergent_lattice_of_bubble_chain_is_fibonacci(n):
    """|D(bubble_chain(n))| = F(2n + 1): the order ideals of a fence of
    2n - 1 generators (n bubbles and n - 1 links between them)."""
    fib = [0, 1]
    while len(fib) <= 2 * n + 1:
        fib.append(fib[-1] + fib[-2])
    assert len(divergent_lattice(fx.bubble_chain(n)).elements) \
        == fib[2 * n + 1]


def test_divergent_lattice_of_bubble_chain6_takes_under_a_second():
    """22 edges, the scan cap: the pebble game's union closure, not 2^22
    subsets."""
    graph = fx.bubble_chain(6)
    assert graph.n_edges == 22
    start = time.perf_counter()
    divergent_lattice(graph)
    assert time.perf_counter() - start < 1.0


def test_divergent_lattice_requires_at_most_log():
    # triple edge between two vertices has a positive-omega subgraph
    g = fx.fish()
    from graphrenorm.graphs import Graph
    bad = Graph(("a", "b"), ((0, 1),) * 3, 0, 4)
    with pytest.raises(NotAtMostLogarithmic) as err:
        divergent_lattice(bad)
    assert err.value.witness is not None


def test_divergent_lattice_rejects_low_dimension():
    # at d = 2 divergent subgraphs need not be saturated
    with pytest.raises(GraphError):
        divergent_lattice(fx.fish(dim=2))
    with pytest.raises(GraphError):
        divergent_lattice(fx.fish(dim=1))
    # the saturated poset remains available in any dimension
    assert len(saturated_poset(fx.fish(dim=2)).elements) == 2


def test_saturated_poset_k3(k3):
    P = saturated_poset(k3)
    assert labels(P.elements) == ["o", "{e0%s}" % "", "{e0,e1,e2}",
                                  "{e1}", "{e2}"] or \
        len(P.elements) == 5


def test_saturated_poset_k4_census(k4):
    P = saturated_poset(k4)
    assert len(P.elements) == 15
    sizes = sorted(len(s.edge_set) for s in P.elements)
    assert sizes == [0] + [1] * 6 + [2] * 3 + [3] * 4 + [6]


def test_saturated_poset_single_edge():
    from graphrenorm.graphs import Graph
    g = Graph(("a", "b"), ((0, 1),), 0, 4)
    P = saturated_poset(g)
    assert len(P.elements) == 2


# ---------------------------------------------------------------------------
# lattice properties
# ---------------------------------------------------------------------------

def test_lattice_properties_dunce(dunce):
    rep = check_lattice_properties(divergent_lattice(dunce))
    assert rep.ok and rep.witness is None


def test_lattice_properties_bubble2():
    rep = check_lattice_properties(divergent_lattice(fx.bubble_chain(2)))
    assert rep.ok


def test_lattice_properties_negative_control():
    D = divergent_lattice(fx.bubble_chain(2))
    # drop the union of the two atoms: closure under union must fail
    broken = SubgraphPoset(
        tuple(s for s in D.elements
              if s.edge_set != frozenset({0, 1, 4, 5})),
        kind="divergent_lattice")
    rep = check_lattice_properties(broken)
    assert not rep.ok and rep.witness is not None


@settings(max_examples=30, deadline=None)
@given(small_multigraphs())
def test_lattice_properties_random(graph):
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    D = divergent_lattice(graph)
    rep = check_lattice_properties(D)
    assert rep.ok, rep.witness
    # submodularity of the grading
    for x, y in itertools.combinations(D.elements, 2):
        join = Subgraph(graph, x.edge_set | y.edge_set)
        meet = Subgraph(graph, x.edge_set & y.edge_set)
        assert D.tau(x) + D.tau(y) >= D.tau(meet) + D.tau(join)


# ---------------------------------------------------------------------------
# irreducibles and building sets
# ---------------------------------------------------------------------------

def test_irreducibles_k4_saturated(k4):
    P = saturated_poset(k4)
    irr = irreducibles(P)
    by_size = {}
    for m in irr.members:
        by_size.setdefault(len(m.edge_set), []).append(m)
    assert len(by_size[1]) == 6
    assert len(by_size[3]) == 4
    assert len(by_size[6]) == 1
    # exactly the three perfect matchings are reducible
    reducible = [s for s in P.elements
                 if s.edge_set and s not in set(irr.members)]
    assert len(reducible) == 3
    assert all(len(s.edge_set) == 2 for s in reducible)


def test_irreducibles_bubble_chain_count():
    for n in range(1, 6):
        D = divergent_lattice(fx.bubble_chain(n))
        assert len(irreducibles(D).members) == n * (n + 1) // 2


def test_irreducibles_fish(fish):
    D = divergent_lattice(fish)
    assert labels(irreducibles(D).members) == ["{e0,e1}"]


def test_irreducibles_two_sided():
    D = divergent_lattice(fx.two_sided_bubbles(1, 1))
    assert labels(irreducibles(D).members) == \
        ["{e0,e1,e2,e3,e4,e5}", "{e0,e1}", "{e2,e3}"]


def test_single_edges_are_blocks(k4):
    """A single edge is one block: the six edges of K4 in its saturated
    poset, and a pendant edge, which is saturated on its own."""
    P = saturated_poset(k4)
    singles = [m for m in irreducibles(P).members if len(m.edge_set) == 1]
    assert labels(singles) == [f"{{e{i}}}" for i in range(6)]
    pendant = Graph(("a", "b", "c", "d"),
                    ((0, 1), (1, 2), (2, 0), (2, 3)), 0, 4)
    P = saturated_poset(pendant)
    irr = irreducibles(P)
    assert pendant.subgraph({3}) in irr.members
    assert pendant.subgraph({0, 1, 2}) in irr.members
    assert pendant.full() not in irr.members
    assert irr.members == irreducibles_by_splitting(P)


def test_irreducibles_refuse_generic_posets(fish):
    generic = SubgraphPoset(divergent_lattice(fish).elements)
    with pytest.raises(GraphError, match="generic"):
        irreducibles(generic)


def test_validate_building_sets(dunce, k4):
    D = divergent_lattice(dunce)
    all_nonempty = [s for s in D.elements if s.edge_set]
    assert validate_building_set(all_nonempty, D)
    GK4 = saturated_poset(k4)
    irr = irreducibles(GK4)
    assert validate_building_set(irr.members, GK4)
    triangle = [m for m in irr.members if len(m.edge_set) == 3][0]
    pruned = [m for m in irr.members if m != triangle]
    assert not validate_building_set(pruned, GK4)


def test_minimal_building_set_is_contained_in_any_valid(dunce):
    D = divergent_lattice(dunce)
    irr = set(irreducibles(D).members)
    nonempty = [s for s in D.elements if s.edge_set]
    for r in range(len(nonempty) + 1):
        for combo in itertools.combinations(nonempty, r):
            if validate_building_set(list(combo), D):
                assert irr <= set(combo)


@settings(max_examples=25, deadline=None)
@given(small_multigraphs())
def test_irreducibles_form_valid_building_set(graph):
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    D = divergent_lattice(graph)
    if len(D.elements) == 1:
        return
    irr = irreducibles(D)
    assert validate_building_set(irr.members, D)


def _reducible_bruteforce(poset, p):
    """Existence search: some antichain of >= 2 smaller elements joins to p
    through an interval-product isomorphism with additive dimensions."""
    below = [q for q in poset.elements
             if q.edge_set and q.edge_set < p.edge_set]
    for r in range(2, len(below) + 1):
        for combo in itertools.combinations(below, r):
            if any(a.edge_set <= b.edge_set or b.edge_set <= a.edge_set
                   for a, b in itertools.combinations(combo, 2)):
                continue
            join = join_of(poset, combo)
            if join is None or join.edge_set != p.edge_set:
                continue
            if a_dim(p) != sum(a_dim(q) for q in combo):
                continue
            if _interval_product_iso(poset, p, list(combo)):
                return True
    return False


@settings(max_examples=20, deadline=None)
@given(small_multigraphs(max_edges=5))
def test_irreducibles_match_bruteforce_decomposition_search(graph):
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    D = divergent_lattice(graph)
    irr = set(irreducibles(D).members)
    for p in D.elements:
        if not p.edge_set:
            continue
        assert (p not in irr) == _reducible_bruteforce(D, p)


def test_irreducibles_match_bruteforce_on_k4_saturated(k4):
    P = saturated_poset(k4)
    irr = set(irreducibles(P).members)
    for p in P.elements:
        if not p.edge_set:
            continue
        assert (p not in irr) == _reducible_bruteforce(P, p)


# ---------------------------------------------------------------------------
# nested sets
# ---------------------------------------------------------------------------

def test_nested_sets_dunce_minimal(dunce):
    D = divergent_lattice(dunce)
    ns = enumerate_nested_sets(irreducibles(D))
    assert [labels(n.members) for n in ns] == [
        ["{e2,e3}"], ["{e0,e1,e2,e3}"], ["{e0,e1,e2,e3}", "{e2,e3}"]]


def test_nested_sets_insertion_chain_all_subsets():
    for n in (2, 3):
        D = divergent_lattice(fx.insertion_chain(n))
        ns = enumerate_nested_sets(maximal_building_set(D))
        assert len(ns) == 2 ** n - 1


def test_nested_sets_two_sided_all_subsets():
    D = divergent_lattice(fx.two_sided_bubbles(1, 1))
    ns = enumerate_nested_sets(irreducibles(D))
    assert len(ns) == 7


def test_nested_subsets_are_nested(dunce):
    D = divergent_lattice(dunce)
    B = maximal_building_set(D)
    for ns in enumerate_nested_sets(B):
        for r in range(1, len(ns.members)):
            for combo in itertools.combinations(ns.members, r):
                assert is_nested(B, combo)


def test_every_chain_in_building_set_is_nested():
    for graph in (fx.dunce_cap(), fx.bubble_chain(2),
                  fx.two_sided_bubbles(1, 1)):
        D = divergent_lattice(graph)
        for B in (irreducibles(D), maximal_building_set(D)):
            members = list(B.members)
            for r in range(1, len(members) + 1):
                for combo in itertools.combinations(members, r):
                    chain = all(a.edge_set <= b.edge_set
                                or b.edge_set <= a.edge_set
                                for a, b in itertools.combinations(combo, 2))
                    if chain:
                        assert is_nested(B, combo)


def test_maximal_building_set_nested_iff_chain():
    D = divergent_lattice(fx.bubble_chain(2))
    B = maximal_building_set(D)
    for ns in enumerate_nested_sets(B):
        for a, b in itertools.combinations(ns.members, 2):
            assert a.edge_set <= b.edge_set or b.edge_set <= a.edge_set


def test_max_nested_cardinality(dunce, fish):
    Dd = divergent_lattice(dunce)
    rep = max_nested_cardinality(maximal_building_set(Dd))
    assert rep.max_cardinality == 2 and rep.all_maximal_equal
    Df = divergent_lattice(fish)
    assert max_nested_cardinality(maximal_building_set(Df)) \
        .max_cardinality == 1
    for n in (2, 3):
        Dn = divergent_lattice(fx.insertion_chain(n))
        assert max_nested_cardinality(maximal_building_set(Dn)) \
            .max_cardinality == n


@settings(max_examples=25, deadline=None)
@given(small_multigraphs())
def test_maximal_nested_sets_equal_cardinality(graph):
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    D = divergent_lattice(graph)
    if len(D.elements) == 1:
        return
    rep = max_nested_cardinality(maximal_building_set(D))
    assert rep.all_maximal_equal


# ---------------------------------------------------------------------------
# contraction of nested posets
# ---------------------------------------------------------------------------

def _contr1_graph():
    """Three bubbles in a row joined by single edges (six vertices)."""
    from graphrenorm.graphs import Graph
    edges = [(0, 1), (0, 1),            # bubble 1
             (2, 3), (2, 3),            # bubble 2
             (4, 5), (4, 5),            # bubble 3
             (1, 2), (0, 3),            # link bubbles 1-2
             (3, 4), (2, 5)]            # link bubbles 2-3
    return Graph(tuple(str(i) for i in range(6)), tuple(edges), 0, 4)


def test_contract_nested_poset_example():
    graph = fx.bubble_chain(3)
    D = divergent_lattice(graph)
    B = irreducibles(D)
    g1 = graph.subgraph({0, 1})
    g2 = graph.subgraph({4, 5})
    g3 = graph.subgraph({8, 9})
    g12 = graph.subgraph({0, 1, 2, 3, 4, 5})
    G = graph.full()
    members = (g1, g2, g3, g12, G)
    ns = [n for n in enumerate_nested_sets(B)
          if set(n.members) == set(members)]
    assert ns, "expected the five-member nested set to exist"
    nested = ns[0]
    out = contract_nested_poset(nested.members, [g1, g3, g12])
    idx = {s.edge_set: i for i, s in enumerate(out.source)}
    i_g1, i_g2, i_g3 = idx[g1.edge_set], idx[g2.edge_set], idx[g3.edge_set]
    i_g12, i_G, i_o = idx[g12.edge_set], idx[G.edge_set], 0
    maximal = set(out.maximal_indices())
    assert maximal == {i_g1, i_g3, i_g12, i_G}
    assert out.leq(i_g2, i_g12)
    assert not out.leq(i_g2, i_G)
    assert not out.leq(i_g12, i_G)


def test_contract_nested_poset_empty_j(dunce):
    D = divergent_lattice(dunce)
    B = irreducibles(D)
    nested = [n for n in enumerate_nested_sets(B) if len(n.members) == 2][0]
    out = contract_nested_poset(nested.members, [])
    # order unchanged: fish below full graph
    i_fish = [i for i, s in enumerate(out.source)
              if s.edge_set == frozenset({2, 3})][0]
    i_full = [i for i, s in enumerate(out.source)
              if len(s.edge_set) == 4][0]
    assert out.leq(i_fish, i_full)


def test_contract_nested_poset_full_j_chain():
    D = divergent_lattice(fx.insertion_chain(3))
    B = maximal_building_set(D)
    chain = max(enumerate_nested_sets(B), key=lambda n: len(n.members))
    out = contract_nested_poset(chain.members, list(chain.members))
    maximal = set(out.maximal_indices())
    assert maximal == set(range(1, len(out.source)))


def test_contract_nested_poset_requires_subset(dunce):
    D = divergent_lattice(dunce)
    B = irreducibles(D)
    nested = [n for n in enumerate_nested_sets(B) if len(n.members) == 1][0]
    stranger = dunce.subgraph({0})
    with pytest.raises(GraphError):
        contract_nested_poset(nested.members, [stranger])


def test_building_set_member_validation(dunce):
    from graphrenorm.lattice import BuildingSet
    D = divergent_lattice(dunce)
    with pytest.raises(GraphError):
        BuildingSet(D, (dunce.empty(),))          # empty member
    with pytest.raises(GraphError):
        BuildingSet(D, (dunce.subgraph({0}),))    # not a lattice element


def test_contract_nested_poset_contracted_graphs(dunce):
    D = divergent_lattice(dunce)
    B = irreducibles(D)
    nested = [n for n in enumerate_nested_sets(B) if len(n.members) == 2][0]
    sub = [dunce.subgraph({2, 3})]
    out = contract_nested_poset(nested.members, sub)
    graphs = {s.label(): contract_relative(s, sub) for s in out.source[1:]}
    contracted_full = graphs["{e0,e1,e2,e3}"]
    assert contracted_full.n_edges == 2 and contracted_full.n_vertices == 2


def test_distributive_is_closure_under_union_and_intersection():
    D = divergent_lattice(fx.bubble_chain(2))
    broken = SubgraphPoset(
        tuple(s for s in D.elements
              if s.edge_set != frozenset({0, 1, 4, 5})),
        kind="divergent_lattice")
    rep = check_lattice_properties(broken)
    # union and intersection distribute on any sets; what fails here is
    # that the union of the two atoms is no element, so no join exists
    assert not rep.closed_under_union and rep.closed_under_intersection
    assert rep.distributive is False
    assert check_lattice_properties(D).distributive is True
