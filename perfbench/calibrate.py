"""Seed sweep: are the Monte Carlo error bars calibrated?

    python3 perfbench/calibrate.py

Runs the fish period and the fish fixed-conditions pairing (nu radius 1,
psi radius 2) through the CLI at SAMPLES samples for SEEDS consecutive
seeds from FIRST_SEED, computes
z = (value - oracle) / stderr against the quadrature oracles, and prints
one JSON object with the fractions of seeds with |z| < 1, 2 and 3 next to
the Gaussian fractions 0.683, 0.954 and 0.997.  It is not part of the timed
benchmark runs.
"""

from __future__ import annotations

import json
import math
import sys

from run import ROOT, _cap_blas_threads, _import_package

GAUSSIAN = {"1": 0.6827, "2": 0.9545, "3": 0.9973}
SEEDS = 200
FIRST_SEED = 1
SAMPLES = 200_000


def fractions(zs: list[float]) -> dict:
    return {k: sum(abs(z) < float(k) for z in zs) / len(zs)
            for k in GAUSSIAN}


def main() -> int:
    _cap_blas_threads()
    _import_package()
    import oracles
    from workloads import cli

    fish = str(ROOT / "fixtures" / "fish.g")
    cases = {
        "fish_period": (["period", fish], oracles.fish_period()),
        "fish_fixed": (["renorm", fish, "--scheme", "fixed",
                        "--nu-radius", "1.0", "--psi-radius", "2.0"],
                       oracles.fish_fixed(2.0, 1.0)),
    }
    report = {"seeds": SEEDS, "first_seed": FIRST_SEED, "samples": SAMPLES,
              "gaussian": GAUSSIAN}
    for name, (command, oracle) in cases.items():
        zs = []
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            code, text = cli(command + ["--samples", str(SAMPLES),
                                        "--seed", str(seed)])
            if code != 0:
                print(f"error: {name} seed {seed} exited {code}",
                      file=sys.stderr)
                return 1
            est = json.loads(text)
            zs.append((est["value"] - oracle) / est["stderr"]
                      if est["stderr"] > 0 else math.inf)
        report[name] = {"oracle": oracle, "within": fractions(zs),
                        "max_abs_z": max(abs(z) for z in zs)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
