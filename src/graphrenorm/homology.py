"""Homology of the arrangement complement, two independent ways.

``homology_from_atoms`` applies the closed-form rank table driven by the
atom counts of the divergent lattice.  ``homology_gm_oracle`` rebuilds the
intersection lattice of the atom subspaces and assembles the ranks from
reduced simplicial homology of order complexes (the maximal chains of
``lattice.maximal_chains``), serving as the oracle; it
is limited to ``ORACLE_MAX_ATOMS`` (6) atoms and raises ``GraphError``
above that.  Both accept divergent lattices only.  Simplicial ranks are
exact rational ranks by fraction-free sparse elimination on integer
boundary rows; torsion is out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

from .errors import GraphError
from .graphs import Subgraph, a_dim
from .lattice import SubgraphPoset, maximal_chains

# The oracle visits every subset of atoms and builds an order complex for
# each.  Six atoms take 0.2 s, seven 2.6 s and eight about a minute, and
# ``analyze`` and ``homology`` always run the oracle.
ORACLE_MAX_ATOMS = 6


@dataclass(frozen=True)
class BettiTable:
    """Sparse map k -> rank H_k, stored as sorted (k, rank) pairs."""

    ranks: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: dict[int, int]) -> "BettiTable":
        return BettiTable(tuple(sorted((k, r) for k, r in d.items() if r)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.ranks)

    def rank(self, k: int) -> int:
        return dict(self.ranks).get(k, 0)


def _require_divergent_lattice(poset: SubgraphPoset) -> None:
    """Both methods take the atoms' subspaces to form a Boolean
    arrangement, which holds on divergent lattices only."""
    if poset.kind != "divergent_lattice":
        raise GraphError("homology expects a divergent lattice")


def _atom_dimensions(poset: SubgraphPoset) -> list[int]:
    _require_divergent_lattice(poset)
    d = poset.parent.dim
    dims = []
    for atom in poset.atoms():
        ad = a_dim(atom)
        if ad % d:
            raise GraphError("atom subspace dimension not a multiple of d")
        dims.append(ad // d)
    return dims


def homology_from_atoms(poset: SubgraphPoset) -> BettiTable:
    """Closed-form Betti table of the arrangement complement.

    Atoms with subspace dimension d*i are counted by n_i; every choice of
    alpha_i <= n_i atoms per class contributes prod C(n_i, alpha_i)
    generators in degree d*sum(alpha_i * i) - sum(alpha_i).
    """
    d = poset.parent.dim
    counts: dict[int, int] = {}
    for i in _atom_dimensions(poset):
        counts[i] = counts.get(i, 0) + 1
    ranks: dict[int, int] = {0: 1}
    classes = sorted(counts)
    choices = [range(counts[i] + 1) for i in classes]
    for alpha in itertools.product(*choices):
        if not any(alpha):
            continue
        k = d * sum(a * i for a, i in zip(alpha, classes)) - sum(alpha)
        mult = 1
        for a, i in zip(alpha, classes):
            mult *= comb(counts[i], a)
        ranks[k] = ranks.get(k, 0) + mult
    return BettiTable.from_dict(ranks)


# ---------------------------------------------------------------------------
# simplicial machinery for the oracle
# ---------------------------------------------------------------------------

def _rank(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of a matrix given as sparse integer rows.

    Fraction-free elimination: each row is reduced against the pivot row
    of its highest column by ``row = b*row - a*pivot`` and divided by the
    gcd of its entries, until it vanishes or opens a new pivot column.
    No floating point and no modular arithmetic, so the rank is the rank
    over Q, not a lower bound for it.  (Pivoting on the highest column
    fills in less than on the lowest for lexicographically indexed
    boundary rows: the six-atom oracle runs 2.5x faster.)
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = row[col], pivot[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = {c: b * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - a * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return len(pivots)


def reduced_betti_numbers(facets: list[tuple[int, ...]],
                          n_vertices: int) -> dict[int, int]:
    """Reduced Betti numbers (over Q) of an abstract simplicial complex.

    The vertices are ``range(n_vertices)``, isolated ones included;
    ``facets`` lists faces as vertex tuples and all subfaces are filled
    in.  The empty complex has reduced Betti number 1 in degree -1.
    """
    # faces[k] holds the k-simplices (k+1 vertices) as sorted tuples
    faces: list[set[tuple[int, ...]]] = [{(v,) for v in range(n_vertices)}]
    for f in facets:
        f = tuple(sorted(f))
        if f and (f[0] < 0 or f[-1] >= n_vertices):
            raise GraphError(f"facet {f} has a vertex outside "
                             f"0..{n_vertices - 1}")
        for r in range(2, len(f) + 1):
            while len(faces) < r:
                faces.append(set())
            faces[r - 1].update(itertools.combinations(f, r))
    if n_vertices == 0:
        return {-1: 1}
    indexed = [sorted(level) for level in faces]
    index_of = [{s: i for i, s in enumerate(level)} for level in indexed]

    # ranks[k] = rank of the boundary of the k-simplices, one sparse
    # {face index: +-1} row per simplex; the augmentation has rank 1
    ranks = [1]
    for k in range(1, len(indexed)):
        lower = index_of[k - 1]
        ranks.append(_rank([
            {lower[s[:i] + s[i + 1:]]: -1 if i % 2 else 1
             for i in range(len(s))} for s in indexed[k]]))
    ranks.append(0)
    betti: dict[int, int] = {}
    for k, level in enumerate(indexed):
        b = len(level) - ranks[k] - ranks[k + 1]
        if b:
            betti[k] = b
    return betti


def homology_gm_oracle(poset: SubgraphPoset) -> BettiTable:
    """Betti table assembled from the intersection lattice of the atom
    subspaces: one contribution per lattice element, given by reduced
    cohomology of the order complex of its open lower interval.  Every
    union of atoms is taken as an element with a Boolean lower interval,
    so posets other than divergent lattices raise ``GraphError``."""
    _require_divergent_lattice(poset)
    atoms = poset.atoms()
    if len(atoms) > ORACLE_MAX_ATOMS:
        raise GraphError(f"homology oracle limited to {ORACLE_MAX_ATOMS} "
                         f"atoms, lattice has {len(atoms)}")
    parent = poset.parent
    ranks: dict[int, int] = {0: 1}  # the bottom element
    atom_sets = [a.edge_set for a in atoms]
    for r in range(1, len(atoms) + 1):
        for combo in itertools.combinations(range(len(atoms)), r):
            union = frozenset().union(*(atom_sets[i] for i in combo))
            rk = a_dim(Subgraph(parent, union))
            if r == 1:
                ranks[rk - 1] = ranks.get(rk - 1, 0) + 1
                continue
            interior = []
            for rr in range(1, r):
                for sub in itertools.combinations(combo, rr):
                    interior.append(
                        frozenset().union(*(atom_sets[i] for i in sub)))
            interior = sorted(set(interior), key=lambda s: (len(s), sorted(s)))
            betti = reduced_betti_numbers(maximal_chains(interior),
                                          len(interior))
            for j, b in betti.items():
                k = rk - j - 2
                if b:
                    ranks[k] = ranks.get(k, 0) + b
    return BettiTable.from_dict(ranks)
