import math

import numpy as np
import pytest

from graphrenorm.mc import (MCParams, exact_estimate, mc_integrate,
                            mc_product, mc_scale, mc_sum, sample_coordinates,
                            substream_seed, _batch_generator)


def gaussian(x):
    return np.exp(-np.sum(x * x, axis=1))


def test_determinism():
    p = MCParams(samples=100_000, batches=10, seed=99)
    a = mc_integrate(gaussian, 2, p)
    b = mc_integrate(gaussian, 2, p)
    assert a == b


def test_seed_changes_result():
    a = mc_integrate(gaussian, 2, MCParams(samples=100_000, batches=10,
                                           seed=1))
    b = mc_integrate(gaussian, 2, MCParams(samples=100_000, batches=10,
                                           seed=2))
    assert a.value != b.value


def test_gaussian_value_within_errors():
    p = MCParams(samples=800_000, batches=40, seed=5)
    est = mc_integrate(gaussian, 3, p, powers=[1, 1, 1])
    assert est.agrees_with(math.pi ** 1.5, n_sigma=4.0)


def test_heavy_tail_integrand():
    fn = lambda x: (2.0 + np.sum(x * x, axis=1)) ** -2.0
    p = MCParams(samples=800_000, batches=40, seed=8)
    est = mc_integrate(fn, 3, p)
    assert est.agrees_with(math.pi ** 2 / math.sqrt(2), n_sigma=4.0)


def test_trace_rows_accumulate():
    trace = []
    p = MCParams(samples=50_000, batches=5, seed=1)
    mc_integrate(gaussian, 2, p, trace=trace)
    assert len(trace) == 5
    assert trace[-1][0] == 50_000


def test_params_validation():
    with pytest.raises(ValueError):
        MCParams(samples=5, batches=10)


def test_substream_seeds_distinct():
    seeds = {substream_seed(7, f"tag{i}") for i in range(50)}
    assert len(seeds) == 50


def test_batch_streams_independent():
    g0 = _batch_generator(11, 0).uniform(size=4)
    g1 = _batch_generator(11, 1).uniform(size=4)
    assert not np.allclose(g0, g1)


@pytest.mark.parametrize("seed", [0, 11, 20240001, 2**63 + 5])
@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 4), (1000, 8),
                                   (20000, 12)])
def test_sampler_draw_matches_uniform(seed, shape):
    """``random() * 2 - 1`` reads the same stream as ``uniform(-1, 1)``
    and gives the same bits, so the sampler's points are those of the
    uniform draw (q = 1 maps u to tan(pi u / 2))."""
    n, k = shape
    for batch in (0, 3):
        want = _batch_generator(seed, batch).uniform(-1.0, 1.0, size=shape)
        got = _batch_generator(seed, batch).random(size=shape) * 2.0 - 1.0
        assert np.array_equal(got, want)
        x, _w = sample_coordinates(_batch_generator(seed, batch), n, [1] * k)
        assert np.array_equal(x, np.tan(0.5 * np.pi * want))


def test_sample_weights_match_density():
    # integral of 1_{|x|<c} via weights reproduces 2c
    rng = _batch_generator(3, 0)
    x, w = sample_coordinates(rng, 400_000, [4])
    val = np.mean((np.abs(x[:, 0]) < 1.5) * w)
    assert abs(val - 3.0) < 0.05


def test_error_propagation_helpers():
    a = exact_estimate(2.0)
    b = mc_scale(a, 3.0)
    assert b.value == 6.0 and b.stderr == 0.0
    c = mc_product(
        mc_scale(exact_estimate(2.0), 1.0),
        mc_scale(exact_estimate(5.0), 1.0))
    assert c.value == 10.0
    s = mc_sum([exact_estimate(1.0), exact_estimate(2.0)], [1.0, -1.0])
    assert s.value == -1.0
