"""Deterministic quadrature oracles for the fish graph in d = 4.

These are written independently of the package (only numpy and scipy), so
the benchmark checks Monte Carlo output against values it computes itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad


def _bump(r: float) -> float:
    """exp(-1/(1-r^2)) for |r| < 1, else 0."""
    return math.exp(-1.0 / (1.0 - r * r)) if abs(r) < 1.0 else 0.0


def _exp_bump(u: float) -> float:
    return math.exp(-1.0 / u) if u > 0.0 else 0.0


def _beta(t: float) -> float:
    """Smooth cutoff: 1 on [0, 1/2], 0 beyond 1."""
    s = 2.0 * t - 1.0
    a, b = _exp_bump(1.0 - s), _exp_bump(s)
    return a / (a + b + 1e-300)


def fish_kernel_integral() -> float:
    """4 pi int_0^inf r^2 / (1 + r^2)^2 dr, the fish divisor integral."""
    val, _ = quad(lambda r: r * r * (1.0 + r * r) ** -2.0, 0.0, np.inf)
    return 4.0 * math.pi * val


def fish_period() -> float:
    """-(2/d) times the divisor integral; equals -pi^2/2."""
    return -0.5 * fish_kernel_integral()


def dunce_leading() -> float:
    """Leading Laurent coefficient of the dunce's cap: the product of two
    fish periods, pi^4/4."""
    return fish_period() ** 2


def fish_ms_shift(c_small: float, c_large: float) -> float:
    """Change of the minimally subtracted fish pairing between two sharp
    cutoffs: -psi(0) 2 log(c_large/c_small) times the divisor integral,
    for a radial bump psi of any radius (psi(0) = e^-1)."""
    return -math.exp(-1.0) * 2.0 * math.log(c_large / c_small) \
        * fish_kernel_integral()


def fish_fixed(psi_radius: float, nu_radius: float) -> float:
    """Fish pairing subtracted at fixed conditions, in radial form:
    2 pi^2 int (Psi(r) - beta(r / nu_radius) Psi(0)) dr / r."""
    psi0 = math.exp(-1.0)

    def integrand(r):
        return (_bump(r / psi_radius) - _beta(r / nu_radius) * psi0) / r

    hi = max(psi_radius, nu_radius)
    val, _ = quad(integrand, 1e-12, hi, limit=400,
                  points=[nu_radius / 2, nu_radius, psi_radius / 2])
    return 2.0 * math.pi ** 2 * val
