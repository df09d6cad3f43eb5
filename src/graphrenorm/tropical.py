"""Periods of primitive graphs by tropical (Hepp-sector) sampling.

The period integral of a primitive logarithmically divergent graph G with
edge set E is P(G) = int Omega / Psi_G^(d/2) over the positive projective
simplex, where Psi_G = sum over spanning trees T of prod_{e not in T}
alpha_e is the Kirchhoff polynomial.  Its tropical approximation Psi^tr =
max_T prod_{e not in T} alpha_e is a single monomial on each Hepp sector
(an order alpha_{s1} > ... > alpha_{sE} of the edges): the cotree of the
sector's minimal spanning tree, read off the order by the rule that an
edge is in the cotree exactly when removing it, after every larger edge,
lowers h1.

With omega(g) = |g| - (d/2) h1(g), positive on every nonempty proper
subset g exactly when G is primitive, and

    J({e}) = 1,    J(g) = sum_{e in g} J(g \\ e) / omega(g \\ e),

the measure Omega / (Psi^tr)^(d/2) has total mass J(E), the Hepp bound
(Panzer, arXiv:1908.09820), and is sampled exactly (Borinsky,
arXiv:2008.12310): remove the largest remaining edge e of g with
probability J(g \\ e) / (omega(g \\ e) J(g)), then scale the smaller edges
by u^(1/omega(g \\ e)), u uniform on (0, 1].  One draw takes 2(|E| - 1)
uniforms.  Weighted by J(E) (Psi^tr / Psi)^(d/2), which lies in
[J(E) / N_T^(d/2), J(E)] for N_T spanning trees, the draws estimate P(G)
with finite variance by construction.

The sampler returns log alpha shifted per row so that Psi^tr = 1 (Psi is
homogeneous of degree h1(G)), with the constant weight J(E); the integrand
is then Psi^(-d/2), a sum over the spanning-tree monomials in which every
term is at most 1.

The tables are indexed by edge-subset bitmask (bit k for edge k), so
graphs above ``MAX_PERIOD_EDGES`` edges are refused before anything is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GraphError
from .graphs import Graph, _scan_edge_subsets
from .mc import Sampler

# 2^16 subset tables, and at most C(16, 8) = 12,870 spanning-tree monomials
# per integrand value.
MAX_PERIOD_EDGES = 16

# rows of a batch summed over the monomials at once: at most this many
# gathered log-monomial terms in memory
_CHUNK_TERMS = 1 << 20


def require_period_size(graph: Graph) -> None:
    """GraphError when the graph has more edges than the period tables
    allow."""
    if graph.n_edges > MAX_PERIOD_EDGES:
        raise GraphError(f"graph too large for the period tables "
                         f"({graph.n_edges} edges, at most "
                         f"{MAX_PERIOD_EDGES})")


@dataclass(frozen=True)
class HeppTables:
    """Per-subset tables of one primitive graph, indexed by edge bitmask."""

    dim: int
    n_edges: int
    h1: np.ndarray       # first Betti number of each edge subset
    omega: np.ndarray    # |g| - (d/2) h1(g)
    hepp: float          # J(E)
    # (2^|E|, |E|): for each g the cumulative probabilities, over the edges
    # in index order, that the largest edge of g is that edge; exactly 1
    # from the last edge of g on
    largest_cdf: np.ndarray
    cotrees: np.ndarray  # (N_T, h1(G)) edges outside each spanning tree


def hepp_tables(graph: Graph) -> HeppTables:
    """The tables of a connected graph that is primitive and at most
    logarithmic, which the caller checks."""
    require_period_size(graph)
    m = graph.n_edges
    h1 = np.zeros(1 << m, dtype=np.int64)
    trees: list[int] = []
    n_tree = graph.n_vertices - 1

    def record(mask, size, rank, _connected):
        h1[mask] = size - rank
        if size == rank == n_tree:
            trees.append(mask)
        return False

    _scan_edge_subsets(graph, range(m), record)
    masks = np.arange(1 << m)
    inside = (masks[:, None] >> np.arange(m) & 1).astype(bool)
    size = inside.sum(axis=1)
    omega = size - 0.5 * graph.dim * h1
    # J(g \ e) / omega(g \ e) for every g and edge e of g, layer by layer
    ratio = np.zeros(1 << m)
    weights = np.zeros((1 << m, m))
    hepp = 1.0
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
        else:
            hepp = float(j[0])
    # the sampler reads the rows of two or more edges only; the guard keeps
    # the others finite
    cdf = np.cumsum(weights, axis=1)
    cdf /= np.maximum(cdf[:, -1:], 1e-300)
    top = np.log2(np.maximum(masks, 1)).astype(np.int64)
    cdf[np.arange(m) >= top[:, None]] = 1.0
    cotrees = np.array([[e for e in range(m) if not t >> e & 1]
                        for t in sorted(trees)], dtype=np.int64)
    return HeppTables(graph.dim, m, h1, omega, hepp, cdf,
                      cotrees.reshape(len(trees), int(h1[-1])))


def tropical_sampler(tables: HeppTables) -> Sampler:
    """Sampler (rng, n) -> (log alpha with Psi^tr = 1, weights J(E)) of the
    tropical measure; see the module docstring."""
    m = tables.n_edges
    bits = 1 << np.arange(m)
    h1, omega = tables.h1, tables.omega
    # the last column is always 1: no draw passes it
    cdf_columns = np.ascontiguousarray(tables.largest_cdf[:, :-1].T)
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


def kirchhoff_power(tables: HeppTables,
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """x -> Psi(exp x)^(-d/2), row by row, for points with Psi^tr = 1, so
    that every monomial is at most 1."""
    cotrees = tables.cotrees.T
    power = -0.5 * tables.dim
    rows = max(1, _CHUNK_TERMS // cotrees.shape[1])

    def integrand(x: np.ndarray) -> np.ndarray:
        psi = np.empty(len(x))
        for start in range(0, len(x), rows):
            part = x[start:start + rows].T
            log_mono = part[cotrees[0]]
            for edges in cotrees[1:]:
                log_mono += part[edges]
            np.exp(log_mono, out=log_mono)
            psi[start:start + rows] = log_mono.sum(axis=0)
        return psi ** power
    return integrand
