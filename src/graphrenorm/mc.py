"""Plain Monte Carlo with deterministic counter-based streams.

``mc_integrate`` runs one batch loop for any sampler: a function
``sampler(rng, n) -> (points, weights)`` that draws n points from the
batch's generator together with their importance weights (the reciprocal
of the sampling density), so that the batch mean of fn(points) * weights
estimates the integral.  Two samplers exist:

* ``coordinate_sampler(powers)`` over R^n, per coordinate: u uniform on
  (-1,1) maps through x = sign(t)|t|^q with t = tan(pi*u/2).  q = 1
  recovers plain Cauchy sampling (the tan compactification); the default
  q = 4 stretches the tails enough that the marginally-decaying chart
  integrands keep finite variance.  Marked coordinates of renormalization
  integrands use q = 1 so that no excess sample mass piles up at the
  subtraction locus.
* ``tropical.tropical_sampler`` over the Hepp sectors of a primitive
  graph, for periods.

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

# sampler(rng, n) -> (points, importance weights), one call per batch
Sampler = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MCParams:
    samples: int = 1_000_000
    batches: int = 50
    seed: int = DEFAULT_SEED
    stretch: int = 4

    def __post_init__(self):
        if not (self.samples >= self.batches >= 1):
            raise ValueError("need samples >= batches >= 1")
        # the weight's Jacobian q|t|^(q-1) is 0 at q = 0 and negative
        # below; q in (0, 1) gives tails lighter than Cauchy
        if not self.stretch >= 1:
            raise ValueError(f"need stretch >= 1, got {self.stretch}")

    def with_seed(self, seed: int) -> "MCParams":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    batches: int
    # integrand values that were not finite, zeroed in the estimate
    nonfinite: int = 0

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


def coordinate_sampler(powers: Sequence[int]) -> Sampler:
    """``sample_coordinates`` with these tail powers, one per coordinate."""
    powers = list(powers)

    def sampler(rng: np.random.Generator, n: int):
        return sample_coordinates(rng, n, powers)
    return sampler


def mc_integrate(fn: Callable[[np.ndarray], np.ndarray], sampler: Sampler,
                 params: MCParams,
                 trace: Optional[list] = None) -> MCEstimate:
    """Integrate fn against the sampler's measure.  fn maps the sampler's
    (n, k) points to (n,) values; batch b calls ``sampler`` once, with
    the generator keyed by (seed, b).

    Non-finite integrand values (events of measure zero, e.g. exact hits
    of a subtraction locus) are zeroed and counted.  When ``trace`` is a
    list, rows (samples_so_far, running_mean, running_stderr) are appended
    per batch.
    """
    per_batch = params.samples // params.batches
    sizes = [per_batch] * params.batches
    sizes[-1] += params.samples - per_batch * params.batches
    means = np.empty(params.batches)
    nonfinite = 0
    for b, size in enumerate(sizes):
        x, w = sampler(_batch_generator(params.seed, b), size)
        vals = fn(x) * w
        bad = ~np.isfinite(vals)
        vals[bad] = 0.0
        nonfinite += int(np.count_nonzero(bad))
        means[b] = vals.mean()
        if trace is not None:
            done = means[: b + 1]
            run_err = (done.std(ddof=1) / math.sqrt(b + 1)) if b else 0.0
            trace.append((sum(sizes[: b + 1]), float(done.mean()),
                          float(run_err)))
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(params.batches)) \
        if params.batches > 1 else 0.0
    return MCEstimate(value, stderr, sum(sizes), params.seed, params.batches,
                      nonfinite)


# ---------------------------------------------------------------------------
# first-order error propagation for derived quantities
# ---------------------------------------------------------------------------

def mc_scale(est: MCEstimate, factor: float) -> MCEstimate:
    return replace(est, value=est.value * factor,
                   stderr=abs(factor) * est.stderr)


def mc_product(a: MCEstimate, b: MCEstimate) -> MCEstimate:
    value = a.value * b.value
    stderr = math.hypot(a.value * b.stderr, b.value * a.stderr)
    return MCEstimate(value, stderr, a.samples + b.samples, a.seed,
                      a.batches + b.batches, a.nonfinite + b.nonfinite)


def mc_sum(parts: Sequence[MCEstimate],
           coefficients: Optional[Sequence[float]] = None) -> MCEstimate:
    if coefficients is None:
        coefficients = [1.0] * len(parts)
    value = sum(c * p.value for c, p in zip(coefficients, parts))
    stderr = math.sqrt(sum((c * p.stderr) ** 2
                           for c, p in zip(coefficients, parts)))
    return MCEstimate(value, stderr, sum(p.samples for p in parts),
                      parts[0].seed if parts else 0,
                      sum(p.batches for p in parts),
                      sum(p.nonfinite for p in parts))


def exact_estimate(value: float) -> MCEstimate:
    """Wrap an analytically known scalar as a zero-error estimate."""
    return MCEstimate(value, 0.0, 0, 0, 0)
