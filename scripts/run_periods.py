#!/usr/bin/env python3
"""Monte Carlo periods of the primitive fixtures and the leading Laurent
coefficients of the dunce's cap and the two-sided bubble, each printed next
to its closed form and its distance from it in standard errors (z)."""

import argparse
import math

from graphrenorm import fixtures as fx
from graphrenorm.mc import MCParams
from graphrenorm.renorm import leading_coefficient, period

ZETA3 = 1.2020569031595942
ZETA5 = 1.0369277551433699
ZETA7 = 1.0083492773819228


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=float, default=2e6)
    parser.add_argument("--batches", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    mc = MCParams(samples=int(args.samples), batches=args.batches,
                  seed=args.seed)

    rows = [
        ("P(fish)", period(fx.fish(), mc), "-pi^2/2", -math.pi ** 2 / 2),
        ("P(K4)", period(fx.k_complete(4), mc), "-pi^6 zeta(3)",
         -math.pi ** 6 * ZETA3),
        ("P(W4)", period(fx.wheel(4), mc), "-(5/2) pi^8 zeta(5)",
         -2.5 * math.pi ** 8 * ZETA5),
        # the zigzag Z5, a decompletion of C^7_{1,2}: P = (441/8) zeta(7)
        ("P(Z5)", period(fx.decompletion(fx.circulant(7, (1, 2)), 0), mc),
         "-(441/80) pi^10 zeta(7)", -441 / 80 * math.pi ** 10 * ZETA7),
        ("dunce leading coefficient", leading_coefficient(fx.dunce_cap(), mc),
         "pi^4/4", math.pi ** 4 / 4),
        ("two-sided bubble leading",
         leading_coefficient(fx.two_sided_bubbles(1, 1), mc), "-pi^6/8",
         -math.pi ** 6 / 8),
    ]
    for label, est, form, exact in rows:
        z = (est.value - exact) / est.stderr if est.stderr else math.nan
        print(f"{label} = {est.value:.6g} +/- {est.stderr:.2g}   "
              f"({form} = {exact:.6g}, z = {z:+.2f})")


if __name__ == "__main__":
    main()
