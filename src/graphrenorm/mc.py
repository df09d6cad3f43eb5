"""Plain Monte Carlo over R^n with deterministic counter-based streams.

Sampling is per-coordinate: u uniform on (-1,1) maps through
x = sign(t)|t|^q with t = tan(pi*u/2).  q = 1 recovers plain Cauchy
sampling (the tan compactification); the default q = 4 stretches the tails
enough that the marginally-decaying chart integrands keep finite variance.
Marked coordinates of renormalization integrands use q = 1 so that no
excess sample mass piles up at the subtraction locus.

Every estimate is reproducible from (seed, samples, batches): batch b
draws from Philox keyed by (seed, b), and the estimate is the mean of
batch means with the batch-variance standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_SEED = 20240001


@dataclass(frozen=True)
class MCParams:
    samples: int = 1_000_000
    batches: int = 50
    seed: int = DEFAULT_SEED
    stretch: int = 4

    def __post_init__(self):
        if not (self.samples >= self.batches >= 1):
            raise ValueError("need samples >= batches >= 1")

    def with_seed(self, seed: int) -> "MCParams":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    batches: int

    def agrees_with(self, other: float, n_sigma: float = 3.0,
                    extra_stderr: float = 0.0) -> bool:
        tol = n_sigma * math.hypot(self.stderr, extra_stderr)
        return abs(self.value - other) <= tol


def substream_seed(seed: int, tag: str) -> int:
    """Derived 64-bit seed for an auxiliary stream, stable across runs."""
    h = 0xCBF29CE484222325
    for ch in f"{seed}:{tag}".encode():
        h = ((h ^ ch) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _batch_generator(seed: int, batch: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, batch], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_coordinates(rng: np.random.Generator, n: int,
                       powers: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Draw n points of R^len(powers); returns (points, importance weights)."""
    k = len(powers)
    # the bits of rng.uniform(-1.0, 1.0, ...): it computes -1 + 2 * d
    u = rng.random(size=(n, k)) * 2.0 - 1.0
    t = np.tan(0.5 * np.pi * u)
    x = np.empty_like(t)
    weight = np.ones(n)
    for j, q in enumerate(powers):
        tj = t[:, j]
        if q == 1:
            x[:, j] = tj
            weight *= np.pi * (1.0 + tj * tj)
        else:
            a = np.abs(tj)
            x[:, j] = np.sign(tj) * a ** q
            weight *= np.pi * q * a ** (q - 1) * (1.0 + tj * tj)
    return x, weight


def mc_integrate(fn: Callable[[np.ndarray], np.ndarray], ndim: int,
                 params: MCParams,
                 powers: Optional[Sequence[int]] = None,
                 trace: Optional[list] = None) -> MCEstimate:
    """Integrate fn over R^ndim.  fn maps (n, ndim) arrays to (n,) values.

    Non-finite integrand values (events of measure zero, e.g. exact hits
    of a subtraction locus) are dropped as zeros.  When ``trace`` is a
    list, rows (samples_so_far, running_mean, running_stderr) are appended
    per batch.
    """
    if powers is None:
        powers = [params.stretch] * ndim
    if len(powers) != ndim:
        raise ValueError("one tail power per coordinate required")
    per_batch = params.samples // params.batches
    sizes = [per_batch] * params.batches
    sizes[-1] += params.samples - per_batch * params.batches
    means = np.empty(params.batches)
    for b, size in enumerate(sizes):
        rng = _batch_generator(params.seed, b)
        x, w = sample_coordinates(rng, size, powers)
        vals = fn(x) * w
        np.nan_to_num(vals, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        means[b] = vals.mean()
        if trace is not None:
            done = means[: b + 1]
            run_err = (done.std(ddof=1) / math.sqrt(b + 1)) if b else 0.0
            trace.append((sum(sizes[: b + 1]), float(done.mean()),
                          float(run_err)))
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(params.batches)) \
        if params.batches > 1 else 0.0
    return MCEstimate(value, stderr, sum(sizes), params.seed, params.batches)


# ---------------------------------------------------------------------------
# first-order error propagation for derived quantities
# ---------------------------------------------------------------------------

def mc_scale(est: MCEstimate, factor: float) -> MCEstimate:
    return MCEstimate(est.value * factor, abs(factor) * est.stderr,
                      est.samples, est.seed, est.batches)


def mc_product(a: MCEstimate, b: MCEstimate) -> MCEstimate:
    value = a.value * b.value
    stderr = math.hypot(a.value * b.stderr, b.value * a.stderr)
    return MCEstimate(value, stderr, a.samples + b.samples, a.seed,
                      a.batches + b.batches)


def mc_sum(parts: Sequence[MCEstimate],
           coefficients: Optional[Sequence[float]] = None) -> MCEstimate:
    if coefficients is None:
        coefficients = [1.0] * len(parts)
    value = sum(c * p.value for c, p in zip(coefficients, parts))
    stderr = math.sqrt(sum((c * p.stderr) ** 2
                           for c, p in zip(coefficients, parts)))
    return MCEstimate(value, stderr, sum(p.samples for p in parts),
                      parts[0].seed if parts else 0,
                      sum(p.batches for p in parts))


def exact_estimate(value: float, seed: int = 0) -> MCEstimate:
    """Wrap an analytically known scalar as a zero-error estimate."""
    return MCEstimate(value, 0.0, 0, seed, 0)
