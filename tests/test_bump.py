import numpy as np
import pytest

from graphrenorm.bump import (BumpSpec, ShellSpec, beta_cutoff, radial_bump,
                              smooth_step)


def test_smooth_step_endpoints():
    assert smooth_step(np.array([-1.0, 0.0]))[0] == 1.0
    assert smooth_step(np.array([0.0]))[0] == 1.0
    assert smooth_step(np.array([1.0, 2.0]))[1] == 0.0
    mid = smooth_step(np.array([0.5]))[0]
    assert 0.0 < mid < 1.0


def test_beta_cutoff_flat_then_zero():
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    vals = beta_cutoff(t)
    assert vals[0] == vals[1] == vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[4] == vals[5] == 0.0


def test_radial_bump_support():
    vals = radial_bump(np.array([0.0, 0.5, 0.999, 1.0, 3.0]))
    assert vals[0] == pytest.approx(np.exp(-1.0))
    assert vals[1] > 0 and vals[2] > 0
    assert vals[3] == vals[4] == 0.0


def test_bumpspec_slice_value_is_one():
    spec = BumpSpec(0.7, kind="subtraction_nu")
    marked = np.zeros(5)
    own = np.array([[0.0] * 3, [10.0, 0, 0], [100.0, 5, 2],
                    [0.5, 0.5, 0.5], [1e6, 0, 0]])
    assert np.all(spec.nu_values(marked, own) == 1.0)


def test_bumpspec_compact_in_other_directions():
    spec = BumpSpec(1.0, kind="subtraction_nu")
    marked = np.full(4, 0.5)        # fixed nonzero marked value
    own = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [50.0, 0, 0]])
    vals = spec.nu_values(marked, own)
    assert vals[0] > 0
    assert vals[-1] == 0.0          # support bounded once marked != 0


def test_bumpspec_validation():
    with pytest.raises(ValueError):
        BumpSpec(0.0)
    with pytest.raises(ValueError):
        BumpSpec(1.0, kind="bogus")
    # a non-finite centre makes psi vanish everywhere
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            BumpSpec(3.0, center=(bad,) * 12)
        with pytest.raises(ValueError):
            BumpSpec(3.0, center=(0.0,) * 11 + (bad,))


def test_shell_vanishes_near_origin():
    shell = ShellSpec(3.0, 2.0)
    y = np.zeros((1, 12))
    assert shell.test_values(y)[0] == 0.0
    on_shell = np.zeros((1, 12))
    on_shell[0, 0] = 3.0
    assert shell.test_values(on_shell)[0] == pytest.approx(np.exp(-1.0))
    with pytest.raises(ValueError):
        ShellSpec(1.0, 2.0)


def test_shell_refuses_infinite_mid_and_overflowing_width():
    # mid = inf makes psi vanish identically; 1 / 1e-320 overflows
    for mid, width in ((np.inf, 1.0), (np.nan, 1.0), (3.0, 1e-320)):
        with pytest.raises(ValueError):
            ShellSpec(mid, width)


@pytest.mark.parametrize("spec", [
    ShellSpec(3.0, 2.0),
    BumpSpec(7.0),
    BumpSpec(7.0, center=tuple(np.linspace(-1.0, 1.0, 12))),
])
def test_sq_radius_values_equal_test_values_bit_for_bit(spec):
    y = np.random.default_rng(5).normal(scale=2.0, size=(2000, 12))
    d = y - np.asarray(spec.center) if spec.center else y
    vals = spec.test_values(y)
    assert 0 < np.count_nonzero(vals) < len(vals)
    assert np.array_equal(spec.sq_radius_values(np.sum(d * d, axis=1)),
                          vals)
