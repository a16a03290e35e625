"""Command-line front end.

Subcommands: build, analyze, chsh, table1, sample, sweep.  They share one
pipeline in :func:`main`: check ``--eps``, parse ``--box`` once, run the
subcommand's handler on the parsed box or model, emit.  Output is JSON
except where the data is tabular: table1 writes CSV unless ``--format json``,
sample counts are JSON unless ``--format csv``, and sample records are CSV
only, so only table1 and sample take ``--format``.
Exit codes: 0 success, 2 box-spec grammar error (at its position counted from
the start of the whole spec, mix components included), unknown constructor or
flag conflict (argparse usage errors also exit 2), 3 semantic validation failure,
including any NaN or infinite number and an ``--eps`` that is not positive
and finite, 4 file I/O failure.

Box-spec grammar::

    pr
    local:f0,f1,g0,g1          four bits, a = f[x] and b = g[y]
    hv:p0=<real>               hidden-variable model with P(lambda=0) = p0
    singlet:t0,t1,t2,t3        planar analyzer angles in radians
    file:<path>                box table JSON (re-validated on load)
    mix:<spec>@<w>+<spec>@<w>  convex mixture; components may not nest mix
                               and must not contain '+' (write exponents
                               without it)
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys
from itertools import accumulate
from typing import Callable

from . import sampler
from .box import (
    DEFAULT_EPS,
    BoxTable,
    _check_eps,
    _require_valid,
    convex_mix,
    deterministic_local_box,
    from_json,
    pr_box,
)
from .chsh import chsh_value
from .hidden_variable import (
    HVModel,
    LambdaDist,
    hv_to_box,
    lambda_sweep,
    pr_hv_model,
    truth_table,
    truth_table_csv,
)
from .locality import locality_report
from .quantum import MeasurementAngles, singlet_box


class BoxSpecError(ValueError):
    """An exit-2 error.  A box-spec grammar error carries the offending
    position, counted from the start of the whole spec, mix components
    included; a conflict between flags has no position."""

    def __init__(self, reason: str, position: int | None = None):
        super().__init__(reason if position is None else f"{reason} (at position {position})")
        self.position = position


def _parse_float(text: str, what: str, position: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise BoxSpecError(f"expected a number for {what}, got {text!r}", position) from None


def _parse_bit(text: str, what: str, position: int) -> int:
    if text not in ("0", "1"):
        raise BoxSpecError(f"expected 0 or 1 for {what}, got {text!r}", position)
    return int(text)


def _parts(body: str, at: int, sep: str) -> list[tuple[str, int]]:
    """The ``sep``-separated parts of ``body``, which starts at position ``at``,
    each with its own position."""
    parts = body.split(sep)
    return list(zip(parts, accumulate((len(part) + 1 for part in parts), initial=at)))


def _parse_fields(
    body: str, at: int, kind: str, noun: str, parse: Callable[[str, str, int], float], what: str
) -> list[float]:
    """The four comma-separated fields of ``kind``'s ``body``, which starts at
    position ``at``, each parsed by ``parse`` with its own position."""
    parts = _parts(body, at, ",")
    if len(parts) != 4:
        raise BoxSpecError(f"{kind} takes four comma-separated {noun}, got {body!r}", at)
    return [parse(part, what, pos) for part, pos in parts]


def parse_box_spec(spec: str, eps: float = DEFAULT_EPS) -> BoxTable | HVModel:
    """Parse a box spec; hv specs return the model, everything else a table."""
    return _parse(spec, eps, 0)


def _parse(spec: str, eps: float, at: int) -> BoxTable | HVModel:
    """``spec``, which starts at position ``at`` of the whole spec, with every
    grammar error raised at its position in the whole spec."""
    kind, _, body = spec.partition(":")
    start = at + len(kind) + 1
    if spec == "pr":
        return pr_box()
    if spec.startswith("local:"):
        bits = _parse_fields(body, start, "local", "bits", _parse_bit, "local response")
        return deterministic_local_box(bits[:2], bits[2:])
    if spec.startswith("hv:"):
        if not body.startswith("p0="):
            raise BoxSpecError(f"hv takes p0=<real>, got {body!r}", start)
        p0 = _parse_float(body[len("p0="):], "p0", start + len("p0="))
        return pr_hv_model(LambdaDist.from_p0(p0))
    if spec.startswith("singlet:"):
        angles = _parse_fields(body, start, "singlet", "angles", _parse_float, "angle")
        return singlet_box(MeasurementAngles(*angles))
    if spec.startswith("file:"):
        if not body:
            raise BoxSpecError("file takes a path", start)
        with open(body, "r", encoding="utf-8") as fh:
            return from_json(fh.read(), eps)
    if spec.startswith("mix:"):
        boxes, weights = [], []
        for component, pos in _parts(body, start, "+"):
            if "@" not in component:
                raise BoxSpecError(f"mix component needs <spec>@<weight>, got {component!r}", pos)
            sub, _, weight_text = component.rpartition("@")
            if sub.startswith("mix:"):
                raise BoxSpecError("mix components cannot nest mix", pos)
            boxes.append(as_box(_parse(sub, eps, pos)))
            weights.append(_parse_float(weight_text, "weight", pos + len(sub) + 1))
        return convex_mix(boxes, weights, eps, label=spec)
    raise BoxSpecError(f"unknown box spec {spec!r}", at)


def as_box(obj: BoxTable | HVModel) -> BoxTable:
    return hv_to_box(obj) if isinstance(obj, HVModel) else obj


def _json_dumps(obj: object) -> str:
    """Standard JSON only: a NaN or infinity raises ValueError (exit 3)."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _cmd_build(args: argparse.Namespace, obj: BoxTable | HVModel) -> str:
    return _json_dumps(_require_valid(as_box(obj), args.eps).to_dict())


def _cmd_analyze(args: argparse.Namespace, obj: BoxTable | HVModel) -> str:
    return _json_dumps(locality_report(as_box(obj), args.eps).as_dict())


def _cmd_chsh(args: argparse.Namespace, obj: BoxTable | HVModel) -> str:
    return _json_dumps(chsh_value(as_box(obj)).as_dict())


def _cmd_table1(args: argparse.Namespace, _: None) -> str:
    model = pr_hv_model(LambdaDist.from_p0(0.5))
    if args.format == "json":
        return _json_dumps({"rows": [list(row) for row in truth_table(model)]})
    return truth_table_csv(model)


def _cmd_sample(args: argparse.Namespace, obj: BoxTable | HVModel) -> str:
    if args.records:
        if args.format == "json":
            raise BoxSpecError("record dumps are CSV only; drop --format json")
        return sampler.records_to_csv(sampler._records(obj, args.trials, args.seed))
    table = sampler._counts(obj, args.trials, args.seed)
    if args.format == "csv":
        return table.to_csv()
    return _json_dumps(
        {
            "label": obj.label,
            "seed": table.seed,
            "trials_per_setting": table.trials_per_setting.tolist(),
            "counts": table.counts.tolist(),
        }
    )


_MAX_GRID_POINTS = 10**6


def _parse_grid(text: str) -> tuple[Callable[[int], float], int]:
    """The grid's k-th point as a function of k, and the number of points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid must be numeric start:stop:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")

    def point(k: int) -> float:
        return round(start + k * step, 12)

    # point(k) never decreases in k, so bisect counts the points at or below
    # stop without walking them.
    count = bisect.bisect_right(range(_MAX_GRID_POINTS + 1), stop + step * 1e-9, key=point)
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    if count == 0:
        raise ValueError(f"grid {text!r} contains no points")
    return point, count


def _cmd_sweep(args: argparse.Namespace, _: None) -> str:
    point, count = _parse_grid(args.grid)
    # The points never decrease and LambdaDist accepts the p0 of an interval,
    # so the two ends decide the grid before any other point is rounded.
    for p0 in point(0), point(count - 1):
        try:
            LambdaDist.from_p0(p0)
        except ValueError as exc:
            raise ValueError(f"grid {args.grid!r} has point p0 = {p0!r}: {exc}") from None
    dists = map(LambdaDist.from_p0, map(point, range(count)))
    return _json_dumps([p.as_dict() for p in lambda_sweep(dists, args.eps)])


_BOX = ("--box",), dict(required=True, help="box spec (see module help)")
_EPS = ("--eps",), dict(type=float, default=DEFAULT_EPS,
                        help="comparison tolerance (default 1e-9)")
_FORMAT = ("--format",), dict(choices=("json", "csv"), help="output format")
_OUTPUT = ("-o", "--output"), dict(help="write output to a file")

# subcommand: its help, its handler and its options, in the order --help lists them
_COMMANDS = {
    "build": ("construct a box and emit its JSON", _cmd_build, (_BOX, _EPS, _OUTPUT)),
    "analyze": ("run all locality analyses", _cmd_analyze, (_BOX, _EPS, _OUTPUT)),
    "chsh": ("correlations and CHSH combination", _cmd_chsh, (_BOX, _EPS, _OUTPUT)),
    "table1": ("hidden-variable truth table", _cmd_table1, (_FORMAT, _OUTPUT)),
    "sample": ("seeded Monte Carlo sampling", _cmd_sample, (
        _BOX, _EPS, _FORMAT, _OUTPUT,
        (("--seed",), dict(type=int, required=True, help="stream seed")),
        (("--trials",), dict(type=int, required=True, help="trials per setting pair")),
        (("--records",), dict(action="store_true", help="dump per-trial records (CSV only)")),
    )),
    "sweep": ("hidden-variable distribution sweep", _cmd_sweep, (
        (("--grid",), dict(required=True, help="p0 grid as start:stop:step")), _EPS, _OUTPUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbox",
        description="Construct and analyze bipartite correlation boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, settings in options:
            command.add_argument(*flags, **settings)
        command.set_defaults(handler=handler)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "eps" in args:
            _check_eps(args.eps)
        obj = parse_box_spec(args.box, args.eps) if "box" in args else None
        _emit(args.handler(args, obj), args.output)
    except BoxSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def entry_point() -> None:
    sys.exit(main())
