"""Builders for the standard example graphs used in tests and fixtures.

All builders default to dimension 4.  Vertex numbering follows the layout
that makes the lowest-index adapted spanning tree come out in the expected
deterministic form.
"""

from __future__ import annotations

from .graphs import Graph


def fish(dim: int = 4) -> Graph:
    """Two vertices joined by two parallel edges; the smallest divergent
    graph."""
    return Graph(("v1", "v2"), ((0, 1), (0, 1)), 0, dim)


def dunce_cap(dim: int = 4) -> Graph:
    """Double edge v2-v3 plus the path v2-v1-v3; one divergent subgraph."""
    edges = ((0, 1), (0, 2), (1, 2), (1, 2))
    return Graph(("v1", "v2", "v3"), edges, 0, dim)


def k_complete(n: int, dim: int = 4) -> Graph:
    """Complete graph on n vertices, edges in lexicographic vertex order
    except K4, which uses the conventional a..f labeling order."""
    if n == 4:
        # a=(1,2) b=(2,3) c=(3,4) d=(1,4) e=(1,3) f=(2,4), zero-based
        edges = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))
        return Graph(("1", "2", "3", "4"), edges, 0, dim)
    labels = tuple(str(i + 1) for i in range(n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(labels, edges, 0, dim)


def wheel(k: int, dim: int = 4) -> Graph:
    """Wheel W_k: a hub joined to every vertex of a k-cycle.  The spokes
    (hub, rim i) come first, then the rim edges (rim i, rim i+1 mod k).
    Primitive and logarithmically divergent in d = 4; W_3 is K4."""
    if k < 3:
        raise ValueError("a wheel needs a rim of at least three vertices")
    labels = ("hub",) + tuple(f"rim{i}" for i in range(k))
    spokes = tuple((0, i + 1) for i in range(k))
    rim = tuple((i + 1, (i + 1) % k + 1) for i in range(k))
    return Graph(labels, spokes + rim, 0, dim)


def circulant(n: int, steps: tuple[int, ...], dim: int = 4) -> Graph:
    """Circulant C^n_steps: vertex i joined to i + s mod n for each step s,
    the edges of the first step first.  Each step lies in [1, n/2), so
    that no edge is doubled; C^5_{1,2} is K5 and C^6_{1,2} the
    octahedron."""
    if not steps or len(set(steps)) != len(steps) or \
            not all(1 <= s < n / 2 for s in steps):
        raise ValueError("steps must be distinct and in [1, n/2)")
    labels = tuple(str(i) for i in range(n))
    edges = tuple((i, (i + s) % n) for s in steps for i in range(n))
    return Graph(labels, edges, 0, dim)


def decompletion(graph: Graph, v: int) -> Graph:
    """The graph with vertex v and its edges deleted; the other vertices
    and edges keep their labels and order.  The zigzag Z_n is the
    decompletion of C^(n+2)_{1,2} at any vertex."""
    if not 0 <= v < graph.n_vertices:
        raise ValueError(f"no vertex {v}")
    labels = graph.vertices[:v] + graph.vertices[v + 1:]
    edges = tuple((a - (a > v), b - (b > v)) for a, b in graph.edges
                  if v not in (a, b))
    return Graph(labels, edges, 0, graph.dim)


def bubble_chain(n: int, dim: int = 4) -> Graph:
    """n bubbles (double edges) linked pairwise by two single edges.

    Bubble l sits on vertices (2l-2, 2l-1); bubbles l and l+1 are joined by
    the edges (2l-1, 2l) and (2l-2, 2l+1), forming one new cycle per link.
    """
    if n < 1:
        raise ValueError("need at least one bubble")
    labels = tuple(str(i) for i in range(2 * n))
    edges: list[tuple[int, int]] = []
    for l in range(1, n + 1):
        a, b = 2 * l - 2, 2 * l - 1
        edges += [(a, b), (a, b)]
        if l < n:
            edges += [(b, b + 1), (a, b + 2)]
    return Graph(labels, tuple(edges), 0, dim)


def insertion_chain(n: int, dim: int = 4) -> Graph:
    """n-fold self-insertion of the fish: vertex i joins i-1 and i-2.

    The divergent subgraphs form a chain g_1 < g_2 < ... < g_n, where g_i is
    the full subgraph on vertices {0..i}.
    """
    if n < 1:
        raise ValueError("need at least one insertion")
    labels = tuple(str(i) for i in range(n + 1))
    edges: list[tuple[int, int]] = [(0, 1), (0, 1)]
    for i in range(2, n + 1):
        edges += [(i - 2, i), (i - 1, i)]
    return Graph(labels, tuple(edges), 0, dim)


def two_sided_bubbles(n: int, m: int, dim: int = 4) -> Graph:
    """Fish with n bubbles inserted on one side and m on the other.

    Left chain: vertices 0..n with bubbles (i-1, i); right chain: vertices
    n+1..n+m+1 with bubbles (n+j, n+j+1); closed up by the single edges
    (n, n+1) and (0, n+m+1).
    """
    if n < 1 or m < 1:
        raise ValueError("need at least one bubble per side")
    labels = tuple(str(i) for i in range(n + m + 2))
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        edges += [(i - 1, i), (i - 1, i)]
    for j in range(1, m + 1):
        edges += [(n + j, n + j + 1), (n + j, n + j + 1)]
    edges += [(n, n + 1), (0, n + m + 1)]
    return Graph(labels, tuple(edges), 0, dim)


def star(n_leaves: int, dim: int = 4) -> Graph:
    """A tree: one hub joined to n leaves.  No cycles, nothing divergent."""
    labels = ("hub",) + tuple(f"leaf{i}" for i in range(n_leaves))
    edges = tuple((0, i + 1) for i in range(n_leaves))
    return Graph(labels, edges, 0, dim)


def graph_file_text(graph: Graph) -> str:
    """Serialize a graph in the external file format."""
    lines = [f"d {graph.dim}", "v " + " ".join(graph.vertices)]
    for a, b in graph.edges:
        lines.append(f"e {graph.vertices[a]} {graph.vertices[b]}")
    return "\n".join(lines) + "\n"
