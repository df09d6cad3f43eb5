"""Reference probe: a fixed piece of work that tracks the machine's speed.

On a shared host the speed of one core drifts by a quarter or more over
tens of seconds to minutes, in step for interpreted loops and numpy kernels
alike, and between the runs of one benchmark set that drift is larger than
any in-run median can absorb.  A run therefore times this probe about once
a second between program calls and reports its times scaled to the probe's
nominal duration:

    normalized = measured * NOMINAL_S / (time-weighted mean probe time)

NOMINAL_S is fixed in meta.json, so normalized seconds compare across runs
and commits on one machine; the measured seconds are printed to stderr.
The probe uses only the interpreter and numpy, never the package under
test, so no change to the package moves it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

NOMINAL_S = json.loads(
    (Path(__file__).resolve().parent / "meta.json").read_text()
)["reference_probe_s"]

_X = np.linspace(-1.4, 1.4, 300_000)


def probe() -> tuple[float, float]:
    """(midpoint, seconds) of a fixed mix of interpreted and numpy work."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    y = _X
    for _ in range(4):
        y = np.tan(0.5 * y) * np.sqrt(1.0 + y * y) ** -0.5
    float(y.sum())
    end = time.perf_counter()
    return 0.5 * (start + end), end - start


def scale(series: list[list[tuple[float, float]]]) -> float:
    """NOMINAL_S over the time-weighted mean probe time of one or more
    probe series (each spanning one stretch of work)."""
    area = span = 0.0
    for probes in series:
        for (t0, p0), (t1, p1) in zip(probes, probes[1:]):
            area += (t1 - t0) * 0.5 * (p0 + p1)
            span += t1 - t0
    return NOMINAL_S * span / area
