#!/usr/bin/env python3
"""Sweep the hidden-variable distribution and watch what survives.

Every distribution over the binary hidden variable reproduces the
defining relation and the maximal CHSH value, but the observable
marginals stay no-signaling only at the balanced point.  The sweep
prints, per p0, the CHSH combination, the no-signaling verdict, and the
size of the largest marginal leak (how far B's marginal moves when the
remote setting flips), read off the no-signaling witnesses.
"""

from __future__ import annotations

import argparse

from prbox import LambdaDist, lambda_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=21, help="grid points in [0, 1]")
    args = parser.parse_args()

    grid = [round(k / (args.steps - 1), 12) for k in range(args.steps)]
    points = lambda_sweep([LambdaDist.from_p0(p0) for p0 in grid])

    print("p0,chsh,constraint_ok,no_signaling,max_marginal_leak")
    for p0, point in zip(grid, points):
        leak = max((abs(w.lhs - w.rhs) for w in point.no_signaling.witnesses), default=0)
        print(
            f"{p0:.4f},{point.chsh:.6f},{point.constraint_ok},"
            f"{point.no_signaling.status},{leak:.6f}"
        )


if __name__ == "__main__":
    main()
