"""prbox benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Run from the repository root.  It imports prbox from ``src/`` of the
checkout it sits in and nowhere else.  The last line of stdout is the
result, ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The line
before it holds the details (machine, output digest, tail percentile,
failures), and both go to ``<out>/<workload>-seed<seed>-trace<t>.json``;
a traced run also writes its spans next to it.  Compare two sets of
result files with ``bench/diff.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("analyze", "search", "sample", "cli")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="directory for result files (default bench/out)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_prbox() -> None:
    """Put this checkout's ``src/`` first on the path and make sure prbox
    comes from there, so the benchmark never measures another copy."""
    src = ROOT / "src"
    if not (src / "prbox" / "__init__.py").is_file():
        sys.exit(f"error: no prbox sources at {src}; run from a prbox checkout")
    sys.path.insert(0, str(src))
    import prbox

    if Path(prbox.__file__).resolve().parent != (src / "prbox").resolve():
        sys.exit(f"error: imported prbox from {prbox.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        sys.exit("error: --seconds must be positive")
    import_prbox()
    import harness

    out_dir = args.out.resolve()
    if args.setup_probe:
        harness.make(args.workload, args.seed, out_dir).warm_up()
        print("ready", flush=True)
        return 0
    result, details = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(
        json.dumps({"result": result, "details": details}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
