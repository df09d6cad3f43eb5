"""Multigraphs, subgraph algebra, divergence counting, spanning trees.

Vertices are referred to by index into ``Graph.vertices``; edges by index
into ``Graph.edges``.  Edge order is significant everywhere: it defines
edge indices, tie-breaking and all deterministic output.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import AdaptedTreeNotFound, GraphError, ParseError


@dataclass(frozen=True)
class Graph:
    """Labeled multigraph with ordered, oriented edges (tail, head)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    base_vertex: int = 0
    dim: int = 4

    def __post_init__(self):
        if self.dim <= 0:
            raise GraphError(f"dimension must be positive, got {self.dim}")
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex labels")
        for k, (a, b) in enumerate(self.edges):
            if a == b:
                raise GraphError(f"edge {k} is a self-loop")
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge {k} uses an undeclared vertex")
        if n and not (0 <= self.base_vertex < n):
            raise GraphError("base vertex out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def subgraph(self, edges: Iterable[int]) -> "Subgraph":
        return Subgraph(self, frozenset(edges))

    def full(self) -> "Subgraph":
        return Subgraph(self, frozenset(range(self.n_edges)))

    def empty(self) -> "Subgraph":
        return Subgraph(self, frozenset())


@dataclass(frozen=True)
class Subgraph:
    """An edge subset of a parent graph; vertices are implied.

    Two subgraphs are equal iff their parents and edge sets are equal.
    """

    parent: Graph
    edge_set: frozenset[int]

    def __post_init__(self):
        if not all(0 <= e < self.parent.n_edges for e in self.edge_set):
            raise GraphError("edge index out of range for parent graph")

    @property
    def sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set))

    def __len__(self) -> int:
        return len(self.edge_set)

    def union(self, other: "Subgraph") -> "Subgraph":
        return Subgraph(self.parent, self.edge_set | other.edge_set)

    def intersection(self, other: "Subgraph") -> "Subgraph":
        return Subgraph(self.parent, self.edge_set & other.edge_set)

    def issubset(self, other: "Subgraph") -> bool:
        return self.edge_set <= other.edge_set

    def label(self) -> str:
        if not self.edge_set:
            return "o"
        return "{" + ",".join(f"e{i}" for i in self.sorted_edges) + "}"


@dataclass(frozen=True)
class DivergenceReport:
    omega: int
    divergent: bool
    at_most_logarithmic: bool
    primitive: bool
    h1: int
    a_dim: int


@dataclass(frozen=True)
class SpanningTree:
    parent: Graph
    edge_set: frozenset[int]
    adapted_for: tuple[Subgraph, ...] = ()

    @property
    def sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_set))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph file format.

    ``#`` starts a comment, ``d <int>`` sets the dimension (required, once),
    ``v <label>...`` declares vertices, ``e <tail> <head>`` appends an edge.
    Without any ``v`` line, vertices are registered in order of first use.
    """
    dim: Optional[int] = None
    vertices: list[str] = []
    vindex: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    declared = False

    def vertex_id(label: str, lineno: int) -> int:
        if label in vindex:
            return vindex[label]
        if declared:
            raise ParseError(f"undeclared vertex {label!r}", lineno)
        vindex[label] = len(vertices)
        vertices.append(label)
        return vindex[label]

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "d":
            if dim is not None:
                raise ParseError("duplicate dimension line", lineno)
            if len(parts) != 2:
                raise ParseError("dimension line must be 'd <int>'", lineno)
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None
            if dim <= 0:
                raise ParseError(f"dimension must be positive, got {dim}", lineno)
        elif kw == "v":
            declared = True
            for label in parts[1:]:
                if label in vindex:
                    raise ParseError(f"duplicate vertex {label!r}", lineno)
                vindex[label] = len(vertices)
                vertices.append(label)
        elif kw == "e":
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <tail> <head>'", lineno)
            if parts[1] == parts[2]:
                raise ParseError(f"self-loop at vertex {parts[1]!r}", lineno)
            a = vertex_id(parts[1], lineno)
            b = vertex_id(parts[2], lineno)
            edges.append((a, b))
        else:
            raise ParseError(f"unknown directive {kw!r}", lineno)

    if dim is None:
        raise ParseError("missing dimension line 'd <int>'")
    if not vertices:
        raise ParseError("graph has no vertices")
    return Graph(tuple(vertices), tuple(edges), 0, dim)


# ---------------------------------------------------------------------------
# components, Betti numbers, divergence
# ---------------------------------------------------------------------------

def touched_vertices(g: Subgraph) -> frozenset[int]:
    return frozenset(v for e in g.edge_set for v in g.parent.edges[e])


class _UnionFind:
    def __init__(self, items: Iterable[int]):
        self.up = {i: i for i in items}

    def find(self, x: int) -> int:
        up = self.up
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.up[rb] = ra
        return True


def _component_map(g: Subgraph) -> dict[int, int]:
    """Map every touched vertex to a component representative."""
    uf = _UnionFind(touched_vertices(g))
    for e in g.edge_set:
        a, b = g.parent.edges[e]
        uf.union(a, b)
    return {v: uf.find(v) for v in uf.up}


@lru_cache(maxsize=None)
def component_count(g: Subgraph) -> int:
    return len(set(_component_map(g).values()))


@lru_cache(maxsize=None)
def first_betti(g: Subgraph) -> int:
    """h1 = |E| - |V touched| + number of components."""
    return len(g.edge_set) - len(touched_vertices(g)) + component_count(g)


def omega(g: Subgraph) -> int:
    """Degree of divergence: d*h1 - 2|E|.  Nonnegative means divergent."""
    return g.parent.dim * first_betti(g) - 2 * len(g.edge_set)


def a_dim(g: Subgraph) -> int:
    """Dimension of the subspace attached to g: d*(|V touched| - components)."""
    return g.parent.dim * (len(touched_vertices(g)) - component_count(g))


def is_connected(g: Subgraph) -> bool:
    return component_count(g) <= 1


# ---------------------------------------------------------------------------
# cycle enumeration and at-most-logarithmic test
# ---------------------------------------------------------------------------

def _simple_cycles(parent: Graph, edges: frozenset[int]) -> list[frozenset[int]]:
    """All simple cycles (as edge sets) inside the given edge subset."""
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i in edges:
        a, b = parent.edges[i]
        adj[a].append((b, i))
        adj[b].append((a, i))
    cycles: set[frozenset[int]] = set()

    by_pair: dict[frozenset[int], list[int]] = defaultdict(list)
    for i in edges:
        a, b = parent.edges[i]
        by_pair[frozenset((a, b))].append(i)
    for group in by_pair.values():
        for i, j in itertools.combinations(group, 2):
            cycles.add(frozenset((i, j)))

    def dfs(start: int, current: int, visited: frozenset[int],
            path: frozenset[int]) -> None:
        for nb, ei in adj[current]:
            if ei in path:
                continue
            if nb == start:
                if len(path) >= 2:
                    cycles.add(path | {ei})
            elif nb not in visited and nb > start:
                dfs(start, nb, visited | {nb}, path | {ei})

    for s in sorted(adj):
        dfs(s, s, frozenset((s,)), frozenset())
    return sorted(cycles, key=lambda c: (len(c), sorted(c)))


def _cycle_unions(parent: Graph, edges: frozenset[int]) -> set[frozenset[int]]:
    """All unions of simple cycles.  These are exactly the subgraphs in which
    every edge lies on a cycle, the only candidates for positive divergence."""
    cycles = _simple_cycles(parent, edges)
    closed: set[frozenset[int]] = {frozenset()}
    for c in cycles:
        closed |= {c | s for s in closed}
    closed.discard(frozenset())
    return closed


def positive_divergence_witness(g: Subgraph) -> Optional[frozenset[int]]:
    """Edge set of a subgraph with omega > 0, or None.

    Scans connected cycle unions only: deleting a bridge raises omega by 2,
    so any positive-omega subgraph contains a positive-omega cycle union.
    """
    parent = g.parent
    for cand in sorted(_cycle_unions(parent, g.edge_set),
                       key=lambda c: (len(c), sorted(c))):
        sub = Subgraph(parent, cand)
        if is_connected(sub) and omega(sub) > 0:
            return cand
    return None


@lru_cache(maxsize=None)
def at_most_logarithmic(g: Subgraph) -> bool:
    return positive_divergence_witness(g) is None


def _at_most_logarithmic_bruteforce(g: Subgraph) -> bool:
    """Full 2^|E| scan; correctness oracle for the pruned default."""
    parent = g.parent
    for r in range(1, len(g.edge_set) + 1):
        for combo in itertools.combinations(sorted(g.edge_set), r):
            if omega(Subgraph(parent, frozenset(combo))) > 0:
                return False
    return True


@lru_cache(maxsize=None)
def is_primitive(g: Subgraph) -> bool:
    """Divergent with no proper nonempty divergent subgraph (o excluded)."""
    if not g.edge_set or omega(g) < 0:
        return False
    for cand in _cycle_unions(g.parent, g.edge_set):
        if cand != g.edge_set and omega(Subgraph(g.parent, cand)) >= 0:
            return False
    return True


def classify(g: Subgraph) -> DivergenceReport:
    om = omega(g)
    return DivergenceReport(
        omega=om,
        divergent=om >= 0,
        at_most_logarithmic=at_most_logarithmic(g),
        primitive=is_primitive(g),
        h1=first_betti(g),
        a_dim=a_dim(g),
    )


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def subgraph_as_graph(g: Subgraph) -> tuple[Graph, dict[int, int]]:
    """Extract a Subgraph as a standalone Graph on its touched vertices.

    Returns the graph and the map {parent edge index -> new edge index}.
    """
    parent = g.parent
    verts = sorted(touched_vertices(g))
    vmap = {v: i for i, v in enumerate(verts)}
    edge_map: dict[int, int] = {}
    edges = []
    for e in g.sorted_edges:
        a, b = parent.edges[e]
        edge_map[e] = len(edges)
        edges.append((vmap[a], vmap[b]))
    labels = tuple(parent.vertices[v] for v in verts)
    return Graph(labels, tuple(edges), 0, parent.dim), edge_map


def contract_mapped(h: Subgraph, g: Subgraph) -> tuple[Graph, dict[int, int]]:
    """h with the edges of g removed and their endpoints identified.

    Merged vertex classes keep the label of the smallest parent vertex index.
    Returns the contracted graph and {parent edge index -> new edge index}.
    Raises if contraction would create a self-loop (never happens when g is
    saturated in h).
    """
    if not g.issubset(h):
        raise GraphError("contraction requires g to be a subgraph of h")
    parent = h.parent
    verts = sorted(touched_vertices(h))
    uf = _UnionFind(verts)
    for e in g.edge_set:
        a, b = parent.edges[e]
        uf.union(a, b)
    reps = sorted({uf.find(v) for v in verts})
    vmap = {r: i for i, r in enumerate(reps)}
    edges = []
    edge_map: dict[int, int] = {}
    for e in h.sorted_edges:
        if e in g.edge_set:
            continue
        a, b = parent.edges[e]
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            raise GraphError(
                f"contracting would turn edge {e} into a self-loop")
        edge_map[e] = len(edges)
        edges.append((vmap[ra], vmap[rb]))
    labels = tuple(parent.vertices[r] for r in reps)
    return Graph(labels, tuple(edges), 0, parent.dim), edge_map


def contract(h: Subgraph, g: Subgraph) -> Graph:
    return contract_mapped(h, g)[0]


def edges_below(g: Subgraph, family: Iterable[Subgraph]) -> frozenset[int]:
    """Union of the edge sets of the family members strictly below g."""
    below: frozenset[int] = frozenset()
    for m in family:
        if m.edge_set < g.edge_set:
            below |= m.edge_set
    return below


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


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

def is_spanning_forest_of(tree_edges: frozenset[int], g: Subgraph) -> bool:
    """tree_edges restricted to g must span every component of g."""
    restricted = tree_edges & g.edge_set
    verts = touched_vertices(g)
    uf = _UnionFind(verts)
    for e in restricted:
        a, b = g.parent.edges[e]
        if not uf.union(a, b):
            return False
    return len(restricted) == len(verts) - component_count(g)


def adapted_spanning_tree(graph: Graph, family: Sequence[Subgraph],
                          ) -> SpanningTree:
    """Spanning tree whose restriction to every family member spans it.

    Construction is bottom-up: members with inclusion-minimal images are
    given greedy spanning forests, then contracted; the process repeats
    layer by layer and ends with a spanning tree of the contracted graph.
    Edge choice is always lowest-index-first.  The result is verified against
    the definition; failure raises AdaptedTreeNotFound naming a witness.
    """
    members = sorted({m.edge_set for m in family if m.edge_set},
                     key=lambda s: (len(s), sorted(s)))
    uf = _UnionFind(range(graph.n_vertices))
    chosen: set[int] = set()
    remaining = list(members)
    while remaining:
        images = {}
        still = []
        for m in remaining:
            img = frozenset(e for e in m
                            if uf.find(graph.edges[e][0])
                            != uf.find(graph.edges[e][1]))
            if img:
                images[m] = img
                still.append(m)
        if not still:
            break
        minimal = [m for m in still
                   if not any(images[o] < images[m] for o in still)]
        for m in minimal:
            for e in sorted(images[m]):
                a, b = graph.edges[e]
                if uf.union(a, b):
                    chosen.add(e)
        remaining = [m for m in still if m not in minimal]
    for e in range(graph.n_edges):
        a, b = graph.edges[e]
        if uf.union(a, b):
            chosen.add(e)

    tree = frozenset(chosen)
    subs = tuple(Subgraph(graph, m) for m in members)
    for m in subs:
        if not is_spanning_forest_of(tree, m):
            raise AdaptedTreeNotFound(
                f"no adapted spanning tree found; restriction to {m.label()} "
                f"does not span it", witness=m)
    return SpanningTree(graph, tree, subs)


def tree_path(graph: Graph, tree_edges: frozenset[int], e: int,
              ) -> list[tuple[int, int]]:
    """Path in the tree from tail(e) to head(e) as (edge, sign) pairs.

    The sign is +1 when the tree edge is traversed along its own orientation.
    """
    tail, head = graph.edges[e]
    adj: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for t in tree_edges:
        a, b = graph.edges[t]
        adj[a].append((b, t, +1))
        adj[b].append((a, t, -1))
    # BFS from tail to head
    prev: dict[int, tuple[int, int, int]] = {}
    frontier = [tail]
    seen = {tail}
    while frontier and head not in seen:
        nxt = []
        for v in frontier:
            for nb, t, sgn in adj[v]:
                if nb not in seen:
                    seen.add(nb)
                    prev[nb] = (v, t, sgn)
                    nxt.append(nb)
        frontier = nxt
    if head not in seen:
        raise GraphError(f"edge {e} endpoints not connected by the tree")
    path = []
    v = head
    while v != tail:
        u, t, sgn = prev[v]
        path.append((t, sgn))
        v = u
    path.reverse()
    return path
