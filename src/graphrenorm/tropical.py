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
built.  The member table holds, for each edge set g, the cumulative
probabilities at g's own edges in index order and g's edges by rank, so
that step s of a draw compares its uniform with the |E| - s - 1 cdfs of
the current set below its top edge: sum_s (|E| - s - 1) comparisons per
draw rather than (|E| - 1)^2 over every edge.  The cdf is flat across the
edges outside g, so the chosen edge, and every float of the draw, is the
one the scan over every edge picks.
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
    # (|E| - 1, 2^|E|): member_cdf[r, g] is the probability that the
    # largest edge of g is one of its r + 1 smallest edges, for r below
    # |g| - 1 (the top edge closes at 1); the entries past that are never
    # read
    member_cdf: np.ndarray
    # (|E|, 2^|E|) int8: member_edges[r, g] is the edge of g of rank r in
    # index order, for r below |g|
    member_edges: np.ndarray
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
    full = (1 << m) - 1
    masks = np.arange(1 << m)
    # |g| and the edges of g by rank, for g with top edge k from the sets
    # below 2^k
    size = np.zeros(1 << m, dtype=np.int64)
    member_edges = np.zeros((m, 1 << m), dtype=np.int8)
    for k in range(m):
        low = masks[:1 << k]
        size[1 << k:2 << k] = size[:1 << k] + 1
        member_edges[:, 1 << k:2 << k] = member_edges[:, :1 << k]
        member_edges.reshape(-1)[(size[low] << m) + (1 << k) + low] = k
    omega = size - 0.5 * graph.dim * h1
    # J(g \ e) / omega(g \ e) for every g and edge e of g, layer by layer;
    # for e outside g it reads g + e, whose ratio is still 0
    ratio = np.zeros(1 << m)
    weights = np.zeros((1 << m, m))
    hepp = 1.0
    for k in range(1, m + 1):
        layer = masks[size == k]
        if k == 1:
            j = np.ones(len(layer))
        else:
            weights[layer] = ratio[layer[:, None] ^ (1 << np.arange(m))]
            j = weights[layer].sum(axis=1)
        if k < m:
            ratio[layer] = j / omega[layer]
        else:
            hepp = float(j[0])
    # the sampler reads the sets of two or more edges only; the guard keeps
    # the others finite
    cdf = np.cumsum(weights, axis=1, out=weights)
    cdf /= np.maximum(cdf[:, -1:], 1e-300)
    member_cdf = np.empty((m - 1, 1 << m))
    rows = masks * m
    for r, row in enumerate(member_cdf):
        row[:] = cdf.reshape(-1)[rows + member_edges[r]]
    # the cotree of a spanning tree t: the edges of E \ t
    cotrees = member_edges[:int(h1[-1]), full ^ np.sort(trees)].T
    return HeppTables(graph.dim, m, h1, omega, hepp, member_cdf,
                      member_edges, cotrees.astype(np.int64))


def tropical_sampler(tables: HeppTables) -> Sampler:
    """Sampler (rng, n) -> (log alpha with Psi^tr = 1, weights J(E)) of the
    tropical measure; see the module docstring."""
    m = tables.n_edges
    full = (1 << m) - 1
    omega, member_cdf = tables.omega, tables.member_cdf
    full_cdf = member_cdf[:, full].tolist()
    by_rank = tables.member_edges.reshape(-1)
    loops = float(tables.h1[-1])

    def sampler(rng: np.random.Generator, n: int):
        draws = rng.random((2 * (m - 1), n))
        log_scale = draws[1::2]
        np.subtract(1.0, log_scale, out=log_scale)
        np.log(log_scale, out=log_scale)
        rows = np.arange(n)
        # log_alpha[e, row], written through its flat view at e n + row
        log_alpha = np.empty((m, n))
        flat = log_alpha.reshape(-1)
        # the log alpha of the edge removed next: the sum of the log
        # scales of the steps before
        level = np.zeros(n)
        log_trop = np.zeros(n)
        mask = np.full(n, full)
        omega_mask = omega[full]
        for step in range(m - 1):
            choice = draws[2 * step]
            # the largest edge of g is its first edge whose cdf passes
            # choice: count the cdfs at or below it, top edge excluded
            if step == 0:
                # g = E on every row: the cdfs are scalars, ranks are edges
                rank = np.zeros(n, dtype=np.int8)
                for cdf in full_cdf:
                    rank += cdf <= choice
            else:
                rank = (member_cdf[0][mask] <= choice).view(np.int8)
                for cdf in member_cdf[1:m - step - 1]:
                    rank += cdf[mask] <= choice
                rank = by_rank[rank.astype(np.intp) << m | mask]
            e = rank.astype(np.intp)
            mask ^= 1 << e
            e *= n
            e += rows
            flat[e] = level
            # |g| falls by 1, so omega falls by 1 exactly when h1 keeps:
            # the removed edge is in the tropical cotree when it does not
            omega_rest = omega[mask]
            log_trop += level * (omega_rest != omega_mask - 1.0)
            level = level + log_scale[step] / omega_rest
            omega_mask = omega_rest
        flat[by_rank[mask].astype(np.intp) * n + rows] = level
        log_alpha -= log_trop / loops
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
