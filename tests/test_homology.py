import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from graphrenorm import fixtures as fx
from graphrenorm.errors import GraphError
from graphrenorm.graphs import at_most_logarithmic
from graphrenorm.homology import (ORACLE_MAX_ATOMS, BettiTable, _rank,
                                  homology_from_atoms, homology_gm_oracle,
                                  reduced_betti_numbers)
from graphrenorm.lattice import divergent_lattice
from conftest import connected_on_touched, small_multigraphs


def test_reduced_betti_circle():
    # triangle boundary = S^1
    facets = [(0, 1), (1, 2), (0, 2)]
    assert reduced_betti_numbers(facets, 3) == {1: 1}


def test_reduced_betti_two_points():
    assert reduced_betti_numbers([(0,), (1,)], 2) == {0: 1}


def test_reduced_betti_filled_simplex():
    assert reduced_betti_numbers([(0, 1, 2)], 3) == {}


def test_reduced_betti_empty_complex():
    assert reduced_betti_numbers([], 0) == {-1: 1}


def test_reduced_betti_isolated_vertex():
    assert reduced_betti_numbers([(0, 1)], 3) == {0: 1}


def test_reduced_betti_vertices_only():
    assert reduced_betti_numbers([], 3) == {0: 2}


def test_reduced_betti_vertex_out_of_range():
    with pytest.raises(GraphError, match="outside"):
        reduced_betti_numbers([(0, 3)], 3)


# the 6-vertex triangulation of the real projective plane
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5)]


def _betti_mod2(facets):
    """Reduced Betti numbers over GF(2), rows as bitmasks."""
    faces = [sorted({s for f in facets for s in itertools.combinations(f, r)})
             for r in range(1, 4)]
    index = [{s: i for i, s in enumerate(level)} for level in faces]
    ranks = [1]
    for k in (1, 2):
        pivots = {}
        for s in faces[k]:
            row = 0
            for i in range(len(s)):
                row |= 1 << index[k - 1][s[:i] + s[i + 1:]]
            while row and row.bit_length() in pivots:
                row ^= pivots[row.bit_length()]
            if row:
                pivots[row.bit_length()] = row
        ranks.append(len(pivots))
    ranks.append(0)
    betti = {k: len(faces[k]) - ranks[k] - ranks[k + 1] for k in range(3)}
    return {k: b for k, b in betti.items() if b}


def test_reduced_betti_rp2_is_rational():
    # H_1(RP^2; Z) = Z/2 is torsion: invisible over Q, seen over GF(2)
    assert reduced_betti_numbers(RP2, 6) == {}
    assert _betti_mod2(RP2) == {1: 1, 2: 1}


def _fraction_rank(rows):
    """Dense Gaussian elimination over Fraction, the reference rank."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_fraction_elimination(seed):
    rng = random.Random(seed)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)]
                for _ in range(nrows)]
        # multiples of primes: a rank modulo that prime would drop them
        for p in (2 ** 31 - 1, 2 ** 61 - 1):
            rows.append([p * rng.randint(-2, 2) for _ in range(ncols)])
            rows.append([p * a + b for a, b in zip(rows[0], rows[-1])])
        rng.shuffle(rows)
        sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
        assert _rank(sparse) == _fraction_rank(rows)


def test_fish_table(fish):
    table = homology_from_atoms(divergent_lattice(fish))
    assert table.as_dict() == {0: 1, 3: 1}


def test_dunce_table(dunce):
    table = homology_from_atoms(divergent_lattice(dunce))
    assert table.as_dict() == {0: 1, 3: 1}


def test_bubble2_table():
    table = homology_from_atoms(divergent_lattice(fx.bubble_chain(2)))
    assert table.as_dict() == {0: 1, 3: 2, 6: 1}


def test_bubble3_table():
    table = homology_from_atoms(divergent_lattice(fx.bubble_chain(3)))
    assert table.as_dict() == {0: 1, 3: 3, 6: 3, 9: 1}


@pytest.mark.parametrize("build", [
    fx.fish, fx.dunce_cap,
    lambda: fx.bubble_chain(2), lambda: fx.bubble_chain(3),
    lambda: fx.two_sided_bubbles(1, 1), lambda: fx.two_sided_bubbles(2, 1),
    lambda: fx.insertion_chain(3), lambda: fx.k_complete(4),
    lambda: fx.bubble_chain(4), lambda: fx.two_sided_bubbles(3, 2),
    lambda: fx.two_sided_bubbles(3, 3),
])
def test_oracle_equivalence_fixtures(build):
    lattice = divergent_lattice(build())
    assert homology_from_atoms(lattice) == homology_gm_oracle(lattice)


def test_oracle_atom_limit():
    lattice = divergent_lattice(fx.two_sided_bubbles(4, 3))
    assert len(lattice.atoms()) == ORACLE_MAX_ATOMS + 1
    with pytest.raises(GraphError, match="lattice has 7"):
        homology_gm_oracle(lattice)


@settings(max_examples=25, deadline=None)
@given(small_multigraphs())
def test_oracle_equivalence_random(graph):
    if not connected_on_touched(graph):
        return
    if not at_most_logarithmic(graph.full()):
        return
    lattice = divergent_lattice(graph)
    assert homology_from_atoms(lattice) == homology_gm_oracle(lattice)


def test_rank_zero_is_one(fish):
    table = homology_from_atoms(divergent_lattice(fish))
    assert table.rank(0) == 1
