"""Command-line front end.

Subcommands: build, analyze, chsh, table1, sample, sweep.  They share one
pipeline in :func:`main`: check ``--eps``, parse ``--box`` once, run the
subcommand's handler on the parsed box or model, emit.  Output is JSON
except where the data is tabular: table1 writes CSV unless ``--format json``,
sample counts are JSON unless ``--format csv``, and sample records are CSV
only, so only table1 and sample take ``--format``.
Exit codes: 0 success, 2 box-spec grammar error or unknown constructor
(argparse usage errors also exit 2), 3 semantic validation failure,
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
    to_json,
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
    """Box-spec grammar error; carries its reason and the offending position,
    counted from the start of the whole spec, mix components included."""

    def __init__(self, reason: str, position: int = 0):
        super().__init__(f"{reason} (at position {position})")
        self.reason = reason
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


def _parts(spec: str, kind: str, sep: str) -> list[tuple[str, int]]:
    """The ``sep``-separated parts after ``kind:``, each with its position in
    ``spec``."""
    parts = spec[len(kind) + 1:].split(sep)
    starts = accumulate((len(part) + 1 for part in parts), initial=len(kind) + 1)
    return list(zip(parts, starts))


def _parse_fields(
    spec: str, kind: str, noun: str, parse: Callable[[str, str, int], float], what: str
) -> list[float]:
    """The four comma-separated fields after ``kind:``, each parsed by
    ``parse`` with its position in ``spec``."""
    parts = _parts(spec, kind, ",")
    if len(parts) != 4:
        body = spec[len(kind) + 1:]
        raise BoxSpecError(
            f"{kind} takes four comma-separated {noun}, got {body!r}", len(kind) + 1
        )
    return [parse(part, what, pos) for part, pos in parts]


def parse_box_spec(spec: str, eps: float = DEFAULT_EPS) -> BoxTable | HVModel:
    """Parse a box spec; hv specs return the model, everything else a table."""
    if spec == "pr":
        return pr_box()
    if spec.startswith("local:"):
        bits = _parse_fields(spec, "local", "bits", _parse_bit, "local response")
        return deterministic_local_box(bits[:2], bits[2:])
    if spec.startswith("hv:"):
        body = spec[len("hv:"):]
        if not body.startswith("p0="):
            raise BoxSpecError(f"hv takes p0=<real>, got {body!r}", len("hv:"))
        p0 = _parse_float(body[len("p0="):], "p0", len("hv:p0="))
        return pr_hv_model(LambdaDist.from_p0(p0))
    if spec.startswith("singlet:"):
        angles = _parse_fields(spec, "singlet", "angles", _parse_float, "angle")
        return singlet_box(MeasurementAngles(*angles))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not path:
            raise BoxSpecError("file takes a path", len("file:"))
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(fh.read(), eps)
    if spec.startswith("mix:"):
        boxes, weights = [], []
        for component, pos in _parts(spec, "mix", "+"):
            if "@" not in component:
                raise BoxSpecError(
                    f"mix component needs <spec>@<weight>, got {component!r}", pos
                )
            sub, _, weight_text = component.rpartition("@")
            if sub.startswith("mix:"):
                raise BoxSpecError("mix components cannot nest mix", pos)
            try:
                box = parse_box_spec(sub, eps)
            except BoxSpecError as exc:
                raise BoxSpecError(exc.reason, pos + exc.position) from None
            boxes.append(as_box(box))
            weights.append(_parse_float(weight_text, "weight", pos + len(sub) + 1))
        return convex_mix(boxes, weights, eps, label=spec)
    raise BoxSpecError(f"unknown box spec {spec!r}", 0)


def as_box(obj: BoxTable | HVModel) -> BoxTable:
    return hv_to_box(obj) if isinstance(obj, HVModel) else obj


def _json_dumps(obj: object) -> str:
    """Standard JSON only: a NaN or infinity raises ValueError (exit 3)."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _cmd_build(args: argparse.Namespace, obj: BoxTable | HVModel) -> str:
    return to_json(_require_valid(as_box(obj), args.eps)) + "\n"


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
