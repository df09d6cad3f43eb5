"""One-dimensional extension operators for kernels |x|^(-1+a(1-s)).

The pairing of the regularized kernel with a test function splits into a
simple pole at s = 1 with coefficient -(2/a) phi(0) and a regular part.
``toy_renormalize`` evaluates the two standard renormalized pairings:

  ms:     int |x|^(-1+a(1-s)) (phi(x) - theta(cutoff - |x|) phi(0)) dx
  fixed:  int |x|^(-1+a(1-s)) (phi(x) - phi(0) nu(x)) dx
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GraphError


@dataclass(frozen=True)
class TestFunction1D:
    """Callable with an explicit compact support interval."""

    __test__ = False  # not a pytest class

    fn: Callable[[float], float]
    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise GraphError("test function must have a finite support "
                             "interval")

    def __call__(self, x: float) -> float:
        lo, hi = self.support
        if x < lo or x > hi:
            return 0.0
        return float(self.fn(x))


def standard_bump_1d(radius: float = 1.0,
                     center: float = 0.0) -> TestFunction1D:
    """exp(-1/(1-((x-c)/r)^2)) on (c-r, c+r)."""

    def fn(x: float) -> float:
        t = (x - center) / radius
        if abs(t) >= 1.0:
            return 0.0
        return float(np.exp(-1.0 / (1.0 - t * t)))

    return TestFunction1D(fn, (center - radius, center + radius))


@dataclass(frozen=True)
class ToyPairing:
    value: float
    pole_coefficient: float
    quad_error: float


def toy_pole_coefficient(a_dim_g: int, phi_at_zero: float) -> float:
    """Coefficient of 1/(s-1) in the raw pairing: -(2/a) phi(0)."""
    return -2.0 * phi_at_zero / a_dim_g


def toy_renormalize(scheme: str, a_dim_g: int, phi: TestFunction1D,
                    s: float = 1.0, cutoff: float = 1.0,
                    nu: Optional[TestFunction1D] = None) -> ToyPairing:
    """Renormalized pairing of |x|^(-1+a(1-s)) against phi.

    scheme "ms" subtracts theta(cutoff-|x|) phi(0); scheme "fixed"
    subtracts phi(0) nu(x) for a smooth nu with nu(0) = 1.
    """
    # imported here: scipy.integrate takes about a second to load, and
    # every other command of the package runs without it
    from scipy.integrate import quad

    if a_dim_g <= 0:
        raise GraphError("need a positive scaling dimension")
    alpha = -1.0 + a_dim_g * (1.0 - s)
    if alpha <= -2.0:
        raise GraphError(f"pairing undefined: exponent {alpha} <= -2 "
                         "(outside the holomorphy strip)")
    phi0 = phi(0.0)
    lo, hi = phi.support
    outer = max(abs(lo), abs(hi), cutoff)

    if scheme == "ms":
        if cutoff <= 0:
            raise GraphError("cutoff must be positive")

        def even_part(x: float) -> float:
            return (phi(x) + phi(-x) - 2.0 * phi0) * x ** alpha

        def tail(x: float) -> float:
            return (phi(x) + phi(-x)) * x ** alpha

        inner, err1 = quad(even_part, 0.0, cutoff, limit=200,
                           epsabs=1e-12, epsrel=1e-12)
        rest, err2 = quad(tail, cutoff, outer + 1.0, limit=200,
                          epsabs=1e-12, epsrel=1e-12)
        return ToyPairing(inner + rest, toy_pole_coefficient(a_dim_g, phi0),
                          err1 + err2)

    if scheme == "fixed":
        if nu is None:
            raise GraphError("scheme 'fixed' needs a cutoff function nu")
        if abs(nu(0.0) - 1.0) > 1e-12:
            raise GraphError("nu must equal 1 at the origin")
        bound = max(outer, abs(nu.support[0]), abs(nu.support[1]))

        def even_sub(x: float) -> float:
            return (phi(x) + phi(-x) - phi0 * (nu(x) + nu(-x))) * x ** alpha

        val, err = quad(even_sub, 0.0, bound + 1.0, limit=400,
                        points=[cutoff, 1.0], epsabs=1e-12, epsrel=1e-12)
        return ToyPairing(val, toy_pole_coefficient(a_dim_g, phi0), err)

    raise GraphError(f"unknown scheme {scheme!r}")
