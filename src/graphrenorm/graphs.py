"""Multigraphs, subgraph algebra, divergence counting, spanning trees.

Whether a subgraph is divergent is decided in one place,
``divergent_elements``, memoized per subgraph by ``divergent_subsets``.
A forest has no divergent subset, nor has any graph in d <= 2.  Otherwise
a pebble game decides whether the subgraph is at most logarithmic; if it
is, its divergent subsets are the unions of at most |E| generators, the
smallest divergent subset holding each edge.  If it is not, a bitmask
scan over the edge subsets lists them.  Every subgraph but a forest is
refused above 22 edges.  The at-most-logarithmic test, its witness,
primitivity and the divergent lattice all read that memo.

Vertices are referred to by index into ``Graph.vertices``; edges by index
into ``Graph.edges``.  Edge order is significant everywhere: it defines
edge indices, tie-breaking and all deterministic output.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: every subgraph hash, so every
        per-subgraph memo lookup, hashes the parent graph."""
        return hash((self.vertices, self.edges, self.base_vertex, self.dim))

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


def is_block(g: Subgraph) -> bool:
    """g is nonempty, connected, and stays connected on its other touched
    vertices when any one touched vertex is deleted (no cut vertex).

    A single edge, or a bundle of parallel edges, is one block."""
    if not g.edge_set or not is_connected(g):
        return False
    ends = [g.parent.edges[e] for e in g.edge_set]
    verts = touched_vertices(g)
    for v in verts:
        uf = _UnionFind(verts - {v})
        for a, b in ends:
            if v not in (a, b):
                uf.union(a, b)
        if len({uf.find(w) for w in uf.up}) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# divergence, at most logarithmic, primitivity
# ---------------------------------------------------------------------------

# Exhaustive edge-subset scans stop here: 2^22 subsets take seconds.  The
# pebble game needs no cap, but keeps this one until the passes over D(G)
# stop being quadratic.
MAX_SCAN_EDGES = 22


def _canonical_key(s: Subgraph):
    return (len(s.edge_set), s.sorted_edges)


def _refuse_above_cap(m: int) -> None:
    if m > MAX_SCAN_EDGES:
        raise GraphError(f"edge set too large for exhaustive scan ({m})")


def _subgraphs_of_masks(graph: Graph, edges: Sequence[int],
                        masks: Iterable[int]) -> tuple[Subgraph, ...]:
    """The subsets of ``edges`` named by int masks (bit k for
    ``edges[k]``), as subgraphs in canonical order."""
    subsets = (frozenset(e for k, e in enumerate(edges) if mask >> k & 1)
               for mask in masks)
    return tuple(sorted((Subgraph(graph, s) for s in subsets),
                        key=_canonical_key))


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
    _refuse_above_cap(m)
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
    return _subgraphs_of_masks(graph, edges, kept)


def _tight_set_generators(graph: Graph, edges: Sequence[int],
                          ) -> Optional[list[int]]:
    """For each k, the smallest set of ``edges`` with omega = 0 that holds
    ``edges[k]`` (an int mask, bit j for ``edges[j]``; 0 when none holds
    it), or None when ``edges`` is not at most logarithmic.  Needs d > 2.

    omega(S) = (d - 2)|S| - d*rank(S).  With d/(d - 2) = p/q in lowest
    terms, S is at most logarithmic iff the multigraph with q copies of
    each edge is (p, p)-sparse, and omega(S) = 0 iff S is tight there.
    The (p, p) pebble game (Lee and Streinu, Pebble game algorithms and
    sparse graphs, 2008) accepts an edge copy iff p + 1 pebbles can be
    gathered on its ends.  Once every copy is in, a failed gathering of
    p + 1 pebbles on the ends of e leaves exactly p on them and none on
    the other vertices it reached; those vertices span a tight set, and
    every tight set that holds e holds all of them, so their span is the
    smallest one."""
    d = graph.dim
    common = math.gcd(d, d - 2)
    p, q = d // common, (d - 2) // common
    ends = [graph.edges[e] for e in edges]
    pebbles = [p] * graph.n_vertices
    out: list[list[int]] = [[] for _ in range(graph.n_vertices)]

    def gather(u: int, v: int) -> Optional[dict[int, Optional[int]]]:
        """Move free pebbles onto u and v until they hold p + 1; None on
        success, else the vertices the last search reached."""
        while pebbles[u] + pebbles[v] <= p:
            reached: dict[int, Optional[int]] = {u: None, v: None}
            stack = [u, v]
            found = None
            while stack and found is None:
                x = stack.pop()
                for y in out[x]:
                    if y not in reached:
                        reached[y] = x
                        if pebbles[y]:
                            found = y
                            break
                        stack.append(y)
            if found is None:
                return reached
            pebbles[found] -= 1
            y = found
            while (x := reached[y]) is not None:
                out[x].remove(y)
                out[y].append(x)
                y = x
            pebbles[y] += 1
        return None

    for u, v in ends:
        for _ in range(q):
            if gather(u, v) is not None:
                return None
            if not pebbles[u]:
                u, v = v, u
            pebbles[u] -= 1
            out[u].append(v)
    generators = []
    for u, v in ends:
        reached = gather(u, v)
        generators.append(0 if reached is None else sum(
            1 << j for j, (a, b) in enumerate(ends)
            if a in reached and b in reached))
    return generators


def divergent_elements(graph: Graph, edges: Sequence[int],
                       ) -> tuple[Subgraph, ...]:
    """o plus the divergent subsets of ``edges``, in canonical order.

    omega = d*h1 - 2|E| with h1 = |E| - rank, so a subset is divergent
    iff (d - 2)|E| >= d*rank.  On a forest h1 = 0, so omega = -2|E| < 0
    for every nonempty subset, and for d <= 2 omega < 0 on every nonempty
    subset too.  Otherwise the pebble game decides whether ``edges`` is
    at most logarithmic.  If it is, its divergent subsets are the sets
    with omega = 0; these are closed under union and intersection (rank
    is submodular), so they are o plus the unions of the generators of
    ``_tight_set_generators``.  If it is not, the edge-subset scan lists
    them, so the first subset with omega > 0 in canonical order stays the
    witness.  Above ``MAX_SCAN_EDGES`` edges every graph but a forest is
    refused."""
    uf = _UnionFind(range(graph.n_vertices))
    if all(uf.union(*graph.edges[e]) for e in edges):
        return (graph.empty(),)
    _refuse_above_cap(len(edges))
    d = graph.dim
    if d <= 2:
        return (graph.empty(),)
    generators = _tight_set_generators(graph, edges)
    if generators is None:
        return _scan_edge_subsets(
            graph, edges,
            lambda _mask, size, rank, _connected: (d - 2) * size >= d * rank)
    closure = {0}
    for g in set(generators) - {0}:
        closure |= {x | g for x in closure}
    return _subgraphs_of_masks(graph, edges, closure)


@lru_cache(maxsize=None)
def divergent_subsets(g: Subgraph) -> tuple[Subgraph, ...]:
    """o plus the divergent subgraphs of g, in canonical order: the memo
    of ``divergent_elements`` (pebble game, or the scan when g is not at
    most logarithmic).

    The one place where divergence of subgraphs is decided; the witness,
    the at-most-logarithmic test, primitivity and the divergent lattice
    all read it."""
    return divergent_elements(g.parent, g.sorted_edges)


def positive_divergence_witness(g: Subgraph) -> Optional[frozenset[int]]:
    """Edge set of the first subgraph of g, in canonical order, with
    omega > 0, or None.

    Deleting a bridge raises omega by 2 and omega adds over components,
    so this witness is a connected union of cycles."""
    return next((s.edge_set for s in divergent_subsets(g) if omega(s) > 0),
                None)


def at_most_logarithmic(g: Subgraph) -> bool:
    return positive_divergence_witness(g) is None


def is_primitive(g: Subgraph) -> bool:
    """Divergent with no proper nonempty divergent subgraph (o excluded)."""
    return (bool(g.edge_set) and omega(g) >= 0
            and divergent_subsets(g) == (g.parent.empty(), g))


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
# contraction
# ---------------------------------------------------------------------------

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


def edges_below(g: Subgraph, family: Iterable[Subgraph]) -> frozenset[int]:
    """Union of the edge sets of the family members strictly below g."""
    below: frozenset[int] = frozenset()
    for m in family:
        if m.edge_set < g.edge_set:
            below |= m.edge_set
    return below


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
