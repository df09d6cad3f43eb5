"""The exact layers against the per-subset scans they replaced.

Each oracle (``oracle_utils``) builds a ``Subgraph`` for every edge subset
and asks ``omega`` or ``is_saturated``; join and meet scan every element;
charts are built one by one through the checking ``Chart`` constructor;
``old_dumps`` is the JSON emitter as it was before its scalar fast path.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrenorm import fixtures as fx
from graphrenorm.charts import (Chart, _check_marking, adapted_basis,
                                enumerate_charts)
from graphrenorm.errors import GraphError
from graphrenorm.graphs import Graph, adapted_spanning_tree
from graphrenorm.lattice import (SubgraphPoset, divergent_elements,
                                 divergent_lattice, irreducibles,
                                 maximal_building_set, saturated_poset)
from graphrenorm.renorm import _divergent_poset_of
from graphrenorm.reports import dumps, format_float
from conftest import small_multigraphs
from oracle_utils import (charts_by_constructor, divergent_elements_scan,
                          join_scan, meet_scan, saturated_elements_scan)


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


# ---------------------------------------------------------------------------
# the bitmask subset scan
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(small_multigraphs(max_vertices=6, max_edges=9),
       st.integers(min_value=2, max_value=6))
def test_scan_matches_per_subset_scan_random(graph, dim):
    graph = Graph(graph.vertices, graph.edges, 0, dim)
    edges = range(graph.n_edges)
    assert divergent_elements(graph, edges) \
        == divergent_elements_scan(graph, edges)
    assert saturated_poset(graph).elements == saturated_elements_scan(graph)


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
        assert poset.join(x, y) == join_scan(poset, x, y)
        assert poset.meet(x, y) == meet_scan(poset, x, y)


def test_join_meet_on_non_elements_and_duplicates():
    D = divergent_lattice(fx.bubble_chain(2))
    graph = D.parent
    # arguments need not be elements
    x, y = graph.subgraph({0}), graph.subgraph({4})
    for poset in (D, SubgraphPoset(D.elements + D.elements[1:2])):
        assert poset.join(x, y) == join_scan(poset, x, y)
        assert poset.meet(x, y) == meet_scan(poset, x, y)
        for a, b in itertools.product(poset.elements, repeat=2):
            assert poset.join(a, b) == join_scan(poset, a, b)
            assert poset.meet(a, b) == meet_scan(poset, a, b)


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
# charts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("graph", [fx.dunce_cap(), fx.fish(),
                                   fx.bubble_chain(3)],
                         ids=["dunce", "fish", "bubble3"])
@pytest.mark.parametrize("which", [irreducibles, maximal_building_set])
def test_charts_match_checked_construction(graph, which):
    building = which(divergent_lattice(graph))
    charts = enumerate_charts(building)
    assert charts == charts_by_constructor(building)
    for c in charts:
        assert c == Chart(c.nested, c.basis, c.marks)


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
