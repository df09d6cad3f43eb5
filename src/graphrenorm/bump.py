"""Smooth compactly supported cutoff and test functions."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np


def _exp_bump(u: np.ndarray) -> np.ndarray:
    """exp(-1/u) for u > 0, else 0; smooth across u = 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_step(t) -> np.ndarray:
    """C^infinity step: 1 for t <= 0, 0 for t >= 1, monotone between."""
    t = np.asarray(t, dtype=float)
    a = _exp_bump(1.0 - t)
    b = _exp_bump(t)
    return a / (a + b + 1e-300)


def beta_cutoff(t) -> np.ndarray:
    """Smooth cutoff equal to 1 on [0, 1/2] with support in [0, 1]."""
    return smooth_step(2.0 * np.asarray(t, dtype=float) - 1.0)


def radial_bump(r) -> np.ndarray:
    """exp(-1/(1-r^2)) inside |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class BumpSpec:
    """One-parameter smooth bump, either a test function or a subtraction
    cutoff attached to a nested-set member.

    As a test function on R^k it is radial_bump(|y - center| / radius).
    As a subtraction cutoff for member g it is
    beta_cutoff(|x_g| * sqrt(1 + |xhat_g|^2) / radius), which equals 1 on
    the locus x_g = 0 and is compactly supported in every other direction.
    """

    radius: float
    kind: str = "test_function"
    center: tuple[float, ...] = ()

    def __post_init__(self):
        # a subnormal radius is positive and finite, but dividing by it
        # overflows
        if not (0 < self.radius < math.inf and 1.0 / self.radius < math.inf):
            raise ValueError("bump radius must be positive and finite, "
                             "and so must its reciprocal")
        if self.kind not in ("test_function", "subtraction_nu"):
            raise ValueError(f"unknown bump kind {self.kind!r}")
        # a non-finite centre makes psi vanish (or NaN) everywhere
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("bump center must be finite")

    def test_values(self, y: np.ndarray) -> np.ndarray:
        """Evaluate as a test function at points y of shape (n, k)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.center:
            if len(self.center) != y.shape[1]:
                raise ValueError("center dimension mismatch")
            y = y - np.asarray(self.center)
        return self.sq_radius_values(np.sum(y * y, axis=1))

    def sq_radius_values(self, r2: np.ndarray) -> np.ndarray:
        """Evaluate as a test function from squared distances to the
        centre, any shape."""
        return radial_bump(np.sqrt(r2) / self.radius)

    def nu_values(self, marked: np.ndarray, own: np.ndarray) -> np.ndarray:
        """Evaluate as a subtraction cutoff.

        ``marked`` is the member's marked coordinate (n,), ``own`` the
        member's remaining own coordinates (n, j).
        """
        scale = np.sqrt(1.0 + np.sum(own * own, axis=1)) if own.size else \
            np.ones(len(marked))
        return beta_cutoff(np.abs(marked) * scale / self.radius)


@dataclass(frozen=True)
class ShellSpec:
    """Radial shell test function: smooth bump in |y| around ``mid`` of
    half-width ``width``.  Vanishes identically near the origin."""

    mid: float
    width: float
    center = ()  # radial about the origin; not a field

    def __post_init__(self):
        if not (0 < self.width < self.mid < math.inf):
            raise ValueError("need 0 < width < mid < inf so the shell "
                             "avoids 0 and is not empty")
        # a subnormal width is positive, but dividing by it overflows
        if not 1.0 / self.width < math.inf:
            raise ValueError("shell width must have a finite reciprocal")

    def test_values(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return self.sq_radius_values(np.sum(y * y, axis=1))

    def sq_radius_values(self, r2: np.ndarray) -> np.ndarray:
        """Evaluate from squared distances to the origin, any shape."""
        return radial_bump((np.sqrt(r2) - self.mid) / self.width)
