"""Compare two sets of benchmark result files.

    python3 bench/diff.py OLD NEW

OLD and NEW are result files written by ``bench/run.py`` or directories of
them.  For every workload and metric it prints each side's median over
its runs, the spread (distance between the first and third quartile as a
share of the median) and the change of the median.  An end-to-end metric
whose median got worse by more than its bound in ``BENCHMARK.json`` is
marked WORSE.  Runs of one workload and seed on both sides must emit the
same output digest.  Exits 1 if a metric got worse beyond its bound, a
digest differs or a run was not correct; 0 otherwise.  Passing the same
directory twice reports its spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"error: no result files in {path}")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def group(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for run in runs:
        for metric, m in run["result"]["metrics"].items():
            values[(run["details"]["workload"], metric)].append(m["value"])
    return values


def digests(runs: list[dict]) -> dict[tuple[str, int], set[str]]:
    found = defaultdict(set)
    for run in runs:
        d = run["details"]
        found[(d["workload"], d["seed"])].add(d["output_sha256"])
    return found


def fmt(v: float | None, pct: bool = False) -> str:
    if v is None:
        return "-"
    return f"{100 * v:+.1f}%" if pct else f"{v:.6g}"


def compare(old: list[dict], new: list[dict], bounds: dict) -> tuple[list[str], bool]:
    lines = []
    bad = False
    for side, runs in (("old", old), ("new", new)):
        for run in runs:
            r, d = run["result"], run["details"]
            if not r["correct"]:
                bad = True
                lines.append(f"{side}: {d['workload']} seed {d['seed']} not correct: "
                             f"{r['failed']} of {r['attempted']} failed")
    old_v, new_v = group(old), group(new)
    lines.append(f"{'workload':9} {'metric':40} {'old':>12} {'spread':>7} "
                 f"{'new':>12} {'spread':>7} {'change':>8}  verdict")
    for key in sorted(old_v.keys() & new_v.keys()):
        o, n = statistics.median(old_v[key]), statistics.median(new_v[key])
        change = (n - o) / abs(o) if o else None
        verdict = ""
        bound = bounds.get(key[1])
        if bound is not None and change is not None:
            worse = change if bound["better"] == "lower" else -change
            verdict = f"WORSE (bound {bound['bound']:g})" if worse > bound["bound"] else "ok"
            bad |= worse > bound["bound"]
        lines.append(f"{key[0]:9} {key[1]:40} {fmt(o):>12} {fmt(spread(old_v[key]), True):>7} "
                     f"{fmt(n):>12} {fmt(spread(new_v[key]), True):>7} "
                     f"{fmt(change, True):>8}  {verdict}")
    old_d, new_d = digests(old), digests(new)
    for key in sorted(old_d.keys() & new_d.keys()):
        if len(old_d[key] | new_d[key]) > 1:
            bad = True
            lines.append(f"output digest differs: {key[0]} seed {key[1]}")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, bad = compare(load(args.old), load(args.new), bounds)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
