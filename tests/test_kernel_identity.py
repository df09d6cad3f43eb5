"""The column-wise chart kernel against the (n, d) assembly it replaced:
``f`` and ``v_edges`` must agree bit for bit, NaN and infinities
included, and the row sums must follow numpy's own reduction order."""

import itertools

import numpy as np
import pytest

from graphrenorm import fixtures as fx
from graphrenorm.charts import ChartKernel, _row_sum, enumerate_charts
from graphrenorm.graphs import Graph
from graphrenorm.lattice import divergent_lattice, irreducibles

from oracle_utils import f_oracle, v_edges_oracle

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

S_VALUES = (0.9, 1.0, 1.1)


def _theta():
    """d = 3: three parallel edges, a 3-coordinate chart."""
    return Graph(("0", "1"), ((0, 1),) * 3, 0, 3)


def _doubled_triangle():
    """d = 3: every edge of a triangle doubled, 6 coordinates."""
    edges = ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2))
    return Graph(("0", "1", "2"), edges, 0, 3)


GRAPHS = {
    "fish": fx.fish,
    "dunce": fx.dunce_cap,
    "nm11": lambda: fx.two_sided_bubbles(1, 1),
    "K4": lambda: fx.k_complete(4),
    "bubble3": lambda: fx.bubble_chain(3),
    "theta_d3": _theta,
    "doubled_triangle_d3": _doubled_triangle,
}


def _points(kern, rng, n=16):
    """Random rows with magnitudes over many decades, then rows whose
    marked coordinates are exactly 0 and rows that give inf or NaN."""
    m = kern.n_coords
    x = rng.normal(size=(n, m)) * np.exp(rng.uniform(-8, 8, size=(n, m)))
    special = np.tile(rng.normal(size=m), (8, 1))
    special[0, kern.marked] = 0.0            # every marked scale 0
    special[1, kern.marked[0]] = 0.0         # the innermost scale 0
    special[2] = 0.0                         # every argument 0: inf
    special[3, 0] = np.inf
    special[4, -1] = -np.inf
    special[5, m // 2] = np.nan
    special[6] *= 1e200                      # squares overflow
    special[7] *= 1e-200                     # squares underflow
    return np.vstack([x, special])


def _check_chart(kern, rng, s, zero_members):
    x = _points(kern, rng)
    assert np.array_equal(kern.f(x, s), f_oracle(kern, x, s), equal_nan=True)
    assert np.array_equal(kern.f(x, s, zero_members),
                          f_oracle(kern, x, s, zero_members), equal_nan=True)
    n_edges = kern.chart.graph.n_edges
    edges = sorted(rng.choice(n_edges, size=rng.integers(1, n_edges + 1),
                              replace=False))
    assert np.array_equal(kern.v_edges(x, edges, s),
                          v_edges_oracle(kern, x, edges, s), equal_nan=True)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kernel_bit_identical_on_every_chart(name):
    """Every chart of the irreducible building set; s and the zeroed
    members cycle over the charts."""
    rng = np.random.default_rng(20261019)
    charts = enumerate_charts(irreducibles(divergent_lattice(
        GRAPHS[name]())))
    assert charts
    for i, chart in enumerate(charts):
        kern = ChartKernel(chart)
        k = len(chart.nested)
        subsets = [c for r in range(1, k + 1)
                   for c in itertools.combinations(range(k), r)]
        _check_chart(kern, rng, S_VALUES[i % 3], subsets[i % len(subsets)])


@pytest.mark.parametrize("name", ["fish", "dunce", "nm11", "K4",
                                  "theta_d3", "doubled_triangle_d3"])
def test_kernel_bit_identical_all_s_and_zero_members(name):
    """Every s and every subset of zeroed members on the smaller graphs."""
    rng = np.random.default_rng(7)
    charts = enumerate_charts(irreducibles(divergent_lattice(
        GRAPHS[name]())))
    for chart in charts[:24]:
        kern = ChartKernel(chart)
        k = len(chart.nested)
        for s in S_VALUES:
            for r in range(k + 1):
                for zero in itertools.combinations(range(k), r):
                    _check_chart(kern, rng, s, zero)


def test_kernel_single_point_and_empty_batch():
    chart = enumerate_charts(irreducibles(divergent_lattice(
        fx.dunce_cap())))[-1]
    kern = ChartKernel(chart)
    x = np.random.default_rng(1).normal(size=kern.n_coords)
    assert np.array_equal(kern.f(x), f_oracle(kern, x))
    assert kern.f(np.empty((0, kern.n_coords))).shape == (0,)
    assert kern.v(np.empty((0, kern.n_coords))).shape == (0,)
    edges = range(kern.chart.graph.n_edges)
    assert np.array_equal(kern.v(x), v_edges_oracle(kern, x, edges))


@pytest.mark.parametrize("k", range(1, 41))
def test_row_sum_matches_numpy_reduction_order(k):
    """Guard: ``_row_sum`` of the columns of y * y equals
    ``np.sum(y * y, axis=1)`` bitwise.  A numpy whose row reduction adds
    in another order fails here, not silently in the estimates."""
    rng = np.random.default_rng(k)
    for n in (1, 7, 1000):
        y = rng.normal(size=(n, k)) \
            * np.exp(rng.uniform(-30.0, 30.0, size=(n, k)))
        sq = y * y
        assert np.array_equal(_row_sum(list(sq.T), n), np.sum(sq, axis=1))
