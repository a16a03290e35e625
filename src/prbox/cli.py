"""Command-line front end.

Subcommands: build, analyze, chsh, table1, sample, sweep.  JSON is the
default output; CSV is offered where the data is tabular (table1, sample
counts, sample records), so only table1 and sample take ``--format``.
Exit codes: 0 success, 2 box-spec grammar error or unknown constructor
(argparse usage errors also exit 2), 3 semantic validation failure,
including any NaN or infinite number, 4 file I/O failure.

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
import json
import math
import sys

from .box import (
    DEFAULT_EPS,
    BoxTable,
    convex_mix,
    deterministic_local_box,
    from_json,
    pr_box,
    validate,
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
from .sampler import (
    records_to_csv,
    sample_box,
    sample_box_records,
    sample_hv,
    sample_hv_records,
)


class BoxSpecError(ValueError):
    """Box-spec grammar error; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
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


def parse_box_spec(spec: str, eps: float = DEFAULT_EPS) -> BoxTable | HVModel:
    """Parse a box spec; hv specs return the model, everything else a table."""
    if spec == "pr":
        return pr_box()
    if spec.startswith("local:"):
        body = spec[len("local:"):]
        parts = body.split(",")
        if len(parts) != 4:
            raise BoxSpecError(
                f"local takes four comma-separated bits, got {body!r}", len("local:")
            )
        pos = len("local:")
        bits = []
        for part in parts:
            bits.append(_parse_bit(part, "local response", pos))
            pos += len(part) + 1
        return deterministic_local_box(bits[:2], bits[2:])
    if spec.startswith("hv:"):
        body = spec[len("hv:"):]
        if not body.startswith("p0="):
            raise BoxSpecError(f"hv takes p0=<real>, got {body!r}", len("hv:"))
        p0 = _parse_float(body[len("p0="):], "p0", len("hv:p0="))
        return pr_hv_model(LambdaDist.from_p0(p0))
    if spec.startswith("singlet:"):
        body = spec[len("singlet:"):]
        parts = body.split(",")
        if len(parts) != 4:
            raise BoxSpecError(
                f"singlet takes four comma-separated angles, got {body!r}",
                len("singlet:"),
            )
        pos = len("singlet:")
        angles = []
        for part in parts:
            angles.append(_parse_float(part, "angle", pos))
            pos += len(part) + 1
        return singlet_box(MeasurementAngles(*angles))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if not path:
            raise BoxSpecError("file takes a path", len("file:"))
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(fh.read(), eps)
    if spec.startswith("mix:"):
        body = spec[len("mix:"):]
        components = body.split("+")
        boxes = []
        weights = []
        pos = len("mix:")
        for component in components:
            if "@" not in component:
                raise BoxSpecError(
                    f"mix component needs <spec>@<weight>, got {component!r}", pos
                )
            sub, _, weight_text = component.rpartition("@")
            if sub.startswith("mix:"):
                raise BoxSpecError("mix components cannot nest mix", pos)
            boxes.append(as_box(parse_box_spec(sub, eps)))
            weights.append(_parse_float(weight_text, "weight", pos + len(sub) + 1))
            pos += len(component) + 1
        return convex_mix(boxes, weights, eps, label=spec)
    raise BoxSpecError(f"unknown box spec {spec!r}", 0)


def as_box(obj: BoxTable | HVModel) -> BoxTable:
    return hv_to_box(obj) if isinstance(obj, HVModel) else obj


def _json_dumps(obj: object) -> str:
    """Standard JSON only: a NaN or infinity raises ValueError (exit 3)."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _cmd_build(args: argparse.Namespace) -> str:
    box = as_box(parse_box_spec(args.box, args.eps))
    result = validate(box, args.eps)
    if not result.ok:
        raise ValueError(
            "box fails validation: " + "; ".join(str(i) for i in result.issues)
        )
    return _json_dumps(box.to_dict())


def _cmd_analyze(args: argparse.Namespace) -> str:
    box = as_box(parse_box_spec(args.box, args.eps))
    return _json_dumps(locality_report(box, args.eps).as_dict())


def _cmd_chsh(args: argparse.Namespace) -> str:
    box = as_box(parse_box_spec(args.box, args.eps))
    return _json_dumps(chsh_value(box).as_dict())


def _cmd_table1(args: argparse.Namespace) -> str:
    model = pr_hv_model(LambdaDist.from_p0(0.5))
    if args.format == "json":
        return _json_dumps({"rows": [list(row) for row in truth_table(model)]})
    return truth_table_csv(model)


def _cmd_sample(args: argparse.Namespace) -> str:
    obj = parse_box_spec(args.box, args.eps)
    if args.records:
        if args.format == "json":
            raise BoxSpecError("record dumps are CSV only; drop --format json")
        if isinstance(obj, HVModel):
            return records_to_csv(sample_hv_records(obj, args.trials, args.seed))
        return records_to_csv(sample_box_records(obj, args.trials, args.seed))
    if isinstance(obj, HVModel):
        table = sample_hv(obj, args.trials, args.seed)
        label = obj.label
    else:
        table = sample_box(obj, args.trials, args.seed)
        label = obj.label
    if args.format == "csv":
        return table.to_csv()
    return _json_dumps(
        {
            "label": label,
            "seed": table.seed,
            "trials_per_setting": table.trials_per_setting.tolist(),
            "counts": table.counts.tolist(),
        }
    )


def _parse_grid(text: str) -> list[float]:
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
    values = []
    k = 0
    while True:
        value = round(start + k * step, 12)
        if value > stop + step * 1e-9:
            break
        values.append(value)
        k += 1
    if not values:
        raise ValueError(f"grid {text!r} contains no points")
    return values


def _cmd_sweep(args: argparse.Namespace) -> str:
    dists = [LambdaDist.from_p0(p0) for p0 in _parse_grid(args.grid)]
    points = lambda_sweep(dists, args.eps)
    return _json_dumps([point.as_dict() for point in points])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prbox",
        description="Construct and analyze bipartite correlation boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_box(p: argparse.ArgumentParser) -> None:
        p.add_argument("--box", required=True, help="box spec (see module help)")
        p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                       help="comparison tolerance (default 1e-9)")

    def add_output(p: argparse.ArgumentParser, formats: bool = False) -> None:
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default=None,
                           help="output format")
        p.add_argument("-o", "--output", default=None, help="write output to a file")

    p_build = sub.add_parser("build", help="construct a box and emit its JSON")
    add_box(p_build)
    add_output(p_build)
    p_build.set_defaults(handler=_cmd_build)

    p_analyze = sub.add_parser("analyze", help="run all locality analyses")
    add_box(p_analyze)
    add_output(p_analyze)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_chsh = sub.add_parser("chsh", help="correlations and CHSH combination")
    add_box(p_chsh)
    add_output(p_chsh)
    p_chsh.set_defaults(handler=_cmd_chsh)

    p_table1 = sub.add_parser("table1", help="hidden-variable truth table")
    add_output(p_table1, formats=True)
    p_table1.set_defaults(handler=_cmd_table1)

    p_sample = sub.add_parser("sample", help="seeded Monte Carlo sampling")
    add_box(p_sample)
    add_output(p_sample, formats=True)
    p_sample.add_argument("--seed", type=int, required=True, help="stream seed")
    p_sample.add_argument("--trials", type=int, required=True,
                          help="trials per setting pair")
    p_sample.add_argument("--records", action="store_true",
                          help="dump per-trial records (CSV only)")
    p_sample.set_defaults(handler=_cmd_sample)

    p_sweep = sub.add_parser("sweep", help="hidden-variable distribution sweep")
    p_sweep.add_argument("--grid", required=True,
                         help="p0 grid as start:stop:step")
    p_sweep.add_argument("--eps", type=float, default=DEFAULT_EPS,
                         help="comparison tolerance (default 1e-9)")
    add_output(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

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
        if "eps" in args and not args.eps > 0:
            raise ValueError(f"--eps must be positive, got {args.eps}")
        text = args.handler(args)
        _emit(text, args.output)
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
