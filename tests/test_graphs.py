import itertools

import pytest
from hypothesis import given, settings

from graphrenorm import fixtures as fx
from graphrenorm.errors import AdaptedTreeNotFound, GraphError, ParseError
from graphrenorm.graphs import (Graph, Subgraph, a_dim, adapted_spanning_tree,
                                at_most_logarithmic, classify,
                                contract_mapped, first_betti, is_block,
                                is_connected, is_spanning_forest_of, omega,
                                parse_graph, touched_vertices)
from oracle_utils import (_at_most_logarithmic_bruteforce, contract_relative,
                          is_saturated)
from conftest import all_subgraphs, connected_on_touched, small_multigraphs


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_dunce_file():
    text = "# comment\nd 4\nv v1 v2 v3\ne v1 v2\ne v1 v3\ne v2 v3\ne v2 v3\n"
    g = parse_graph(text)
    assert g.n_vertices == 3 and g.n_edges == 4 and g.dim == 4
    assert g.edges == ((0, 1), (0, 2), (1, 2), (1, 2))


def test_parse_single_vertex_no_edges():
    g = parse_graph("d 4\nv only\n")
    assert g.n_edges == 0 and g.n_vertices == 1


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError) as err:
        parse_graph("d 4\ne 0 0\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text,fragment", [
    ("e 0 1\n", "missing dimension"),
    ("d 0\ne 0 1\n", "positive"),
    ("d 4\nd 4\n", "duplicate dimension"),
    ("d 4\nv a\ne a b\n", "undeclared"),
    ("d 4\ne 0\n", "edge line"),
    ("d 4\nx 1 2\n", "unknown directive"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_fixture_files_round_trip(tmp_path):
    for build in (fx.fish, fx.dunce_cap, lambda: fx.k_complete(4),
                  lambda: fx.bubble_chain(3),
                  lambda: fx.two_sided_bubbles(2, 1)):
        g = build()
        assert parse_graph(fx.graph_file_text(g)) == g


# ---------------------------------------------------------------------------
# Betti numbers and classification
# ---------------------------------------------------------------------------

def test_first_betti_examples(dunce, fish):
    assert first_betti(dunce.full()) == 2
    assert first_betti(dunce.empty()) == 0
    assert first_betti(fish.full()) == 1


def test_classify_fish(fish):
    rep = classify(fish.full())
    assert rep.omega == 0 and rep.divergent and rep.primitive
    assert rep.at_most_logarithmic and rep.h1 == 1 and rep.a_dim == 4


def test_classify_dunce(dunce):
    rep = classify(dunce.full())
    assert rep.omega == 0 and rep.divergent and not rep.primitive
    assert rep.at_most_logarithmic


def test_classify_k3(k3):
    rep = classify(k3.full())
    assert rep.omega == -2 and not rep.divergent


def test_a_dim_identity_for_divergent(dunce):
    # d*(|V|-c) agrees with d*(|E|-h1)
    for sub in all_subgraphs(dunce):
        if omega(sub) >= 0:
            d = dunce.dim
            assert a_dim(sub) == d * (len(sub.edge_set) - first_betti(sub))


@settings(max_examples=60, deadline=None)
@given(small_multigraphs())
def test_at_most_log_pruned_equals_bruteforce(graph):
    full = graph.full()
    assert at_most_logarithmic(full) == _at_most_logarithmic_bruteforce(full)


@settings(max_examples=40, deadline=None)
@given(small_multigraphs())
def test_at_most_log_monotone(graph):
    full = graph.full()
    if at_most_logarithmic(full):
        for sub in all_subgraphs(graph):
            assert at_most_logarithmic(sub)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def _is_block_by_splits(g):
    """Connected and no split of the edges into two nonempty parts that
    share fewer than two vertices."""
    if not g.edge_set or not is_connected(g):
        return False
    edges = g.sorted_edges
    for r in range(1, len(edges)):
        for part in itertools.combinations(edges, r):
            a = Subgraph(g.parent, frozenset(part))
            b = Subgraph(g.parent, g.edge_set - a.edge_set)
            if len(touched_vertices(a) & touched_vertices(b)) < 2:
                return False
    return True


def test_block_examples(dunce, fish, k4):
    assert is_block(fish.subgraph({0}))            # one edge
    assert is_block(fish.full())                   # parallel bundle
    assert is_block(k4.full())
    assert is_block(fx.bubble_chain(2).full())
    assert not is_block(fish.empty())
    assert not is_block(k4.subgraph({0, 1}))       # a path: cut vertex
    assert not is_block(k4.subgraph({0, 2}))       # disconnected
    eight = Graph(("a", "b", "c"), ((0, 1), (0, 1), (1, 2), (1, 2)), 0, 4)
    assert not is_block(eight.full())              # two bubbles at b


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(max_vertices=5, max_edges=6))
def test_block_matches_split_definition(graph):
    for sub in all_subgraphs(graph):
        assert is_block(sub) == _is_block_by_splits(sub)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def _spanning_trees(graph: Graph, edges: frozenset) -> list:
    sub = Subgraph(graph, edges)
    verts = touched_vertices(sub)
    size = len(verts) - 1
    out = []
    for combo in itertools.combinations(sorted(edges), size):
        cand = frozenset(combo)
        if is_spanning_forest_of(cand, sub):
            out.append(cand)
    return out


def saturated_by_tree_definition(g: Subgraph) -> bool:
    """Literal definition: no spanning tree of a component also spans the
    component with an outside edge added."""
    parent = g.parent
    if not g.edge_set:
        return True
    # split into components
    from graphrenorm.graphs import _component_map
    comp = _component_map(g)
    blocks = {}
    for e in g.edge_set:
        rep = comp[parent.edges[e][0]]
        blocks.setdefault(rep, set()).add(e)
    for edges in blocks.values():
        component = Subgraph(parent, frozenset(edges))
        outside = [e for e in range(parent.n_edges) if e not in g.edge_set]
        for tree in _spanning_trees(parent, frozenset(edges)):
            for e in outside:
                extended = Subgraph(parent, frozenset(edges) | {e})
                if is_spanning_forest_of(tree, extended) \
                        and is_connected(extended):
                    return False
    return True


def test_saturation_k3_examples(k3):
    assert is_saturated(k3.subgraph({0}))
    assert is_saturated(k3.full())
    assert not is_saturated(k3.subgraph({0, 1}))


def test_saturation_dunce_single_parallel_edge(dunce):
    assert not is_saturated(dunce.subgraph({2}))


@settings(max_examples=40, deadline=None)
@given(small_multigraphs(max_edges=5))
def test_saturation_component_criterion_matches_definition(graph):
    for sub in all_subgraphs(graph):
        assert is_saturated(sub) == saturated_by_tree_definition(sub)


@settings(max_examples=40, deadline=None)
@given(small_multigraphs())
def test_divergent_implies_saturated(graph):
    # holds for d > 2 on at most logarithmic graphs
    full = graph.full()
    if not at_most_logarithmic(full):
        return
    for sub in all_subgraphs(graph):
        if sub.edge_set and omega(sub) >= 0:
            assert is_saturated(sub)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contract_dunce_by_fish(dunce, fish):
    out = contract_mapped(dunce.full(), dunce.subgraph({2, 3}))[0]
    assert out.n_vertices == 2 and out.n_edges == 2
    assert out.edges == ((0, 1), (0, 1))


def test_contract_by_empty_is_relabeling(dunce):
    out = contract_mapped(dunce.full(), dunce.empty())[0]
    assert out.n_edges == dunce.n_edges
    assert out.edges == dunce.edges


def test_contract_whole_graph(dunce):
    out = contract_mapped(dunce.full(), dunce.full())[0]
    assert out.n_vertices == 1 and out.n_edges == 0


def test_contract_requires_subset(dunce, fish):
    with pytest.raises(GraphError):
        contract_mapped(dunce.subgraph({0}), dunce.subgraph({1}))


def _canon(graph: Graph):
    relabel = {}
    edges = []
    for a, b in graph.edges:
        for v in (a, b):
            if v not in relabel:
                relabel[v] = len(relabel)
        edges.append((relabel[a], relabel[b]))
    return graph.n_vertices, tuple(edges)


@settings(max_examples=40, deadline=None)
@given(small_multigraphs())
def test_contract_chain_associativity(graph):
    subs = [s for s in all_subgraphs(graph)]
    full = graph.full()
    for g1 in subs:
        for g2 in subs:
            if not (g1.edge_set <= g2.edge_set):
                continue
            try:
                direct = contract_mapped(full, g2)[0]
            except GraphError:
                continue
            step1, emap = contract_mapped(full, g1)
            image = frozenset(emap[e] for e in g2.edge_set - g1.edge_set)
            try:
                two_step = contract_mapped(step1.full(),
                                           Subgraph(step1, image))[0]
            except GraphError:
                continue
            assert _canon(direct) == _canon(two_step)
            break
        break


def test_contract_relative_two_case(dunce):
    g = dunce.subgraph({2, 3})
    G = dunce.full()
    # member case: G in the family, fish below it
    out = contract_relative(G, [g, G])
    assert _canon(out) == _canon(fx.fish())
    # member with no lower bounds: unchanged
    out2 = contract_relative(g, [g, G])
    assert out2.n_edges == 2 and _canon(out2) == _canon(fx.fish())


def test_contract_relative_non_member(dunce):
    # g not in family: contract proper overlaps
    g = dunce.subgraph({0, 2, 3})
    fam = [dunce.subgraph({2, 3})]
    out = contract_relative(g, fam)
    assert out.n_edges == 1


def test_contract_relative_three_bubble_example():
    """Whole graph relative to J = {left bubble, right bubble, left block}:
    everything except the right connector pair collapses, leaving a
    two-vertex double edge."""
    graph = fx.bubble_chain(3)
    gamma1 = graph.subgraph({0, 1})
    gamma3 = graph.subgraph({8, 9})
    block = graph.subgraph({0, 1, 2, 3, 4, 5})
    out = contract_relative(graph.full(), [gamma1, gamma3, block])
    assert out.n_vertices == 2 and out.n_edges == 2
    assert out.edges[0] == out.edges[1]


# ---------------------------------------------------------------------------
# adapted spanning trees
# ---------------------------------------------------------------------------

def test_adapted_tree_dunce(dunce):
    fam = [dunce.empty(), dunce.subgraph({2, 3}), dunce.full()]
    tree = adapted_spanning_tree(dunce, fam)
    assert tree.sorted_edges == (0, 2)


def test_adapted_tree_rejects_unadapted_spanning_tree(dunce):
    # {e0, e1} spans the graph but does not span the divergent subgraph
    cand = frozenset({0, 1})
    assert is_spanning_forest_of(cand, dunce.full())
    assert not is_spanning_forest_of(cand, dunce.subgraph({2, 3}))


def test_adapted_tree_fish(fish):
    tree = adapted_spanning_tree(fish, [fish.empty(), fish.full()])
    assert tree.sorted_edges == (0,)


def test_adapted_tree_failure_on_k4_saturated(k4):
    from graphrenorm.lattice import saturated_poset
    family = [s for s in saturated_poset(k4).elements if s.edge_set]
    with pytest.raises(AdaptedTreeNotFound) as err:
        adapted_spanning_tree(k4, family)
    assert err.value.witness is not None


@settings(max_examples=40, deadline=None)
@given(small_multigraphs())
def test_adapted_tree_satisfies_definition(graph):
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    family = [s for s in all_subgraphs(graph) if omega(s) >= 0]
    tree = adapted_spanning_tree(graph, family)
    for member in family:
        assert is_spanning_forest_of(tree.edge_set, member)


def test_subgraph_as_graph(dunce):
    sub = dunce.subgraph({2, 3})
    g, emap = contract_mapped(sub, dunce.empty())
    assert g.n_vertices == 2 and g.n_edges == 2
    assert emap == {2: 0, 3: 1}
