"""The benchmark's workloads: seeded inputs, one operation, its checks.

Every workload is a closed loop with one caller.  Inputs are generated
from the workload seed before timing starts; prbox sees only the
generated boxes, models, angles, seeds and argument lists.  ``op(i)``
performs operation ``i`` of the stream and returns the work it did, the
text it emitted (hashed into the run's output digest) and what its check
needs; ``check(i, out)`` runs outside the timed region.

Spans are opened here, around each call into a prbox layer.  Every span
name belongs to exactly one workload, so a traced run can add small runs
of the other workloads (``small=True``) to measure every layer without
mixing sizes under one name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import prbox
from prbox import (
    DEFAULT_EPS,
    OPTIMAL_CHSH_ANGLES,
    LambdaDist,
    MeasurementAngles,
    all_deterministic_boxes,
    bell_factorizable,
    chsh_value,
    classical_bound_certificate,
    compare,
    conditioned_dependence,
    convex_mix,
    deterministic_local_box,
    empirical_chsh,
    from_json,
    hv_to_box,
    locality_report,
    max_chsh_over_random_angles,
    no_signaling,
    outcome_independence,
    parameter_independence,
    pr_box,
    pr_hv_model,
    records_to_csv,
    sample_box,
    sample_box_records,
    sample_hv,
    sample_hv_records,
    singlet_box,
    to_json,
    uniform_box,
    validate,
)
from prbox import cli

import checks
from tracing import Tracer

EPS = DEFAULT_EPS
NO_TRACE = Tracer(enabled=False)
ROOT = Path(prbox.__file__).resolve().parents[2]


class Output(NamedTuple):
    work: int
    texts: tuple[str, ...]
    ctx: object


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, stream])


def _local_bits(k: int) -> tuple[int, int, int, int]:
    """Strategy ``k`` of 16 in (f0, f1, g0, g1) order."""
    return (k >> 3) & 1, (k >> 2) & 1, (k >> 1) & 1, k & 1


# Sizes: one op stays near a tenth of a second or less, so a run holds
# enough batches for a steady 90th percentile (see harness.work_per_s).
SEARCH_POINTS = 1_000
SAMPLE_TRIALS = 10**5
RECORDS_TRIALS = 1_000

# ---------------------------------------------------------------- analyze

ANALYZE_KINDS = ("pr", "local", "hv", "singlet", "singlet_opt", "pr_uniform", "local_mix")
ANALYZE_POOL = 8192
ROUNDTRIP_EVERY = 5  # coprime to len(ANALYZE_KINDS), so every kind gets round-tripped
SEPARATE_ANALYSES = (
    ("no_signaling", no_signaling),
    ("outcome_independence", outcome_independence),
    ("parameter_independence", parameter_independence),
    ("bell_factorizable", bell_factorizable),
    ("conditioned_dependence", conditioned_dependence),
)


def analyze_specs(seed: int, n: int = ANALYZE_POOL) -> list[tuple[str, object]]:
    """Box specs ``(kind, parameter)``: the kinds cycle in a fixed order so
    every stretch of ops has the same mix; parameters come from the seed."""
    rng = _rng(seed, 0)
    strategies = rng.permutation(16).tolist()
    specs = []
    for i in range(n):
        kind = ANALYZE_KINDS[i % len(ANALYZE_KINDS)]
        turn = i // len(ANALYZE_KINDS)
        if kind == "local":
            param = _local_bits(strategies[turn % 16])
        elif kind == "hv":
            param = 0.5 if turn % 4 == 0 else float(rng.random())
        elif kind == "singlet":
            param = tuple(rng.uniform(0.0, 2.0 * math.pi, 4).tolist())
        elif kind == "pr_uniform":
            near = 0.5 if turn % 2 == 0 else math.sqrt(0.5)
            param = near + float(rng.uniform(-1e-3, 1e-3))
        elif kind == "local_mix":
            param = rng.dirichlet(np.ones(16)).tolist()
        else:
            param = None
        specs.append((kind, param))
    return specs


def construct(spec: tuple[str, object], tr: Tracer):
    kind, param = spec
    if kind == "hv":
        with tr.span("hidden_variable.hv_to_box"):
            return hv_to_box(pr_hv_model(LambdaDist.from_p0(param)))
    if kind in ("singlet", "singlet_opt"):
        with tr.span("quantum.singlet_box"):
            angles = OPTIMAL_CHSH_ANGLES if param is None else MeasurementAngles(*param)
            return singlet_box(angles)
    with tr.span("box.construct"):
        if kind == "pr":
            return pr_box()
        if kind == "local":
            return deterministic_local_box(param[:2], param[2:])
        if kind == "pr_uniform":
            return convex_mix([pr_box(), uniform_box()], [param, 1.0 - param])
        return convex_mix(all_deterministic_boxes(), param)


def expected_chsh(spec: tuple[str, object]) -> float | None:
    """The CHSH value a box's class fixes, computed without prbox."""
    kind, param = spec
    if kind in ("pr", "hv"):
        return 4.0
    if kind == "singlet_opt":
        return checks.TSIRELSON
    if kind == "pr_uniform":
        return 4.0 * param
    if kind == "local":
        f, g = param[:2], param[2:]
        e = [[(-1) ** (f[x] + g[y]) for y in (0, 1)] for x in (0, 1)]
        return float(e[0][0] + e[0][1] + e[1][0] - e[1][1])
    return None


class Analyze:
    """Build one box, validate it, run every locality analysis, take its
    CHSH value and serialize the answer."""

    name = "analyze"
    chunk_ops = 245
    batch_ops = len(ANALYZE_KINDS)  # one cycle of the kind mix
    digest_ops = 490
    small_ops = 70
    extra_boxes = 245

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.specs = analyze_specs(seed)

    def warm_up(self) -> None:
        for i in range(2 * len(ANALYZE_KINDS)):
            self.op(i, NO_TRACE)

    def op(self, i: int, tr: Tracer) -> Output:
        spec = self.specs[i % len(self.specs)]
        box = construct(spec, tr)
        original = None
        if i % ROUNDTRIP_EVERY == 0:
            original = box
            with tr.span("box.json_roundtrip"):
                box = from_json(to_json(box))
        with tr.span("box.validate"):
            valid = validate(box, EPS)
        with tr.span("locality.locality_report"):
            report = locality_report(box, EPS)
        with tr.span("chsh.chsh_value"):
            chsh = chsh_value(box)
        with tr.span("locality.report_json"):
            text = json.dumps(
                {
                    "label": box.label,
                    "valid": valid.ok,
                    "locality": report.as_dict(),
                    "chsh": chsh.as_dict(),
                },
                indent=2,
            )
        if tr.enabled:
            verdicts = report.as_dict().values()
            tr.count("locality.witness_rows", sum(len(v["witnesses"]) for v in verdicts))
            tr.count("locality.violated_verdicts", sum(v["status"] == "violated" for v in verdicts))
        return Output(1, (text,), (spec, original, box))

    def check(self, i: int, out: Output, tr: Tracer) -> list[str]:
        spec, original, box = out.ctx
        emitted = json.loads(out.texts[0])
        failures = []
        if not emitted["valid"]:
            failures.append(f"{box.label}: a generated box fails validation")
        if original is not None and not (
            np.array_equal(original.p, box.p) and original.label == box.label
        ):
            failures.append(f"{original.label}: JSON round trip changed the box")
        failures += checks.check_report(box.p.tolist(), emitted["locality"], EPS)
        failures += checks.check_chsh(spec[0], emitted["chsh"]["s"], expected_chsh(spec))
        return failures

    def extras(self, tr: Tracer) -> None:
        """Each public analysis called on its own, on the same boxes the
        report covers, so every analysis gets its own span."""
        for i in range(self.extra_boxes):
            tr.op = i
            box = construct(self.specs[i], NO_TRACE)
            for name, fn in SEPARATE_ANALYSES:
                with tr.span(f"locality.{name}"):
                    fn(box, EPS)


# ----------------------------------------------------------------- search


class Search:
    """A seeded random Tsirelson search plus the classical certificate."""

    name = "search"
    chunk_ops = 10
    batch_ops = 1
    digest_ops = 10
    small_ops = 2

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.points = 200 if small else SEARCH_POINTS
        self.seeds = _rng(seed, 1).integers(0, 2**63, size=1024).tolist()

    def warm_up(self) -> None:
        max_chsh_over_random_angles(200, 0)
        classical_bound_certificate()

    def op(self, i: int, tr: Tracer) -> Output:
        seed = self.seeds[i % len(self.seeds)]
        with tr.span("quantum.search_call"):
            best, angles = max_chsh_over_random_angles(self.points, seed)
        tr.count("quantum.points", self.points)
        with tr.span("chsh.classical_bound_certificate"):
            cert = classical_bound_certificate()
        text = json.dumps(
            {
                "seed": seed,
                "points": self.points,
                "max_abs_s": best,
                "angles": [angles.theta_a0, angles.theta_a1, angles.theta_b0, angles.theta_b1],
                "classical": [cert.max_abs_s, cert.argmax_label],
            }
        )
        return Output(self.points, (text,), None)

    def check(self, i: int, out: Output, tr: Tracer) -> list[str]:
        emitted = json.loads(out.texts[0])
        s = chsh_value(singlet_box(MeasurementAngles(*emitted["angles"]))).s
        return checks.check_search(emitted["max_abs_s"], s, emitted["classical"][0])


# ----------------------------------------------------------------- sample


def _sampled_inputs(rng: np.random.Generator) -> list[tuple]:
    """PR, a random singlet, a random local mixture and a random hidden-variable
    model, each as (object, exact table, sampling seed)."""
    angles = MeasurementAngles(*rng.uniform(0.0, 2.0 * math.pi, 4).tolist())
    mix = convex_mix(all_deterministic_boxes(), rng.dirichlet(np.ones(16)).tolist())
    model = pr_hv_model(LambdaDist.from_p0(float(rng.random())))
    objs = [pr_box(), singlet_box(angles), mix, model]
    return [
        (obj, obj if k < 3 else hv_to_box(obj), int(rng.integers(0, 2**63)))
        for k, obj in enumerate(objs)
    ]


class Sample:
    """One sampler layer used two ways.  Each round of six ops samples PR, a
    singlet, a local mixture and a hidden-variable model on the counts path
    (then ``empirical_chsh`` and ``compare``), and dumps per-trial records of
    one box and one model to CSV on the bulk-output path."""

    name = "sample"
    chunk_ops = 12
    batch_ops = 6  # one round
    digest_ops = 12
    small_ops = 6

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.trials = 10**4 if small else SAMPLE_TRIALS
        self.records = 100 if small else RECORDS_TRIALS
        rng = _rng(seed, 2)
        self.inputs = []
        for r in range(64):
            inputs = _sampled_inputs(rng)
            self.inputs += [("counts", *x) for x in inputs]
            self.inputs += [("records", *inputs[r % 3]), ("records", *inputs[3])]

    def warm_up(self) -> None:
        for i in range(self.batch_ops):
            self.op(i, NO_TRACE)

    def op(self, i: int, tr: Tracer) -> Output:
        path, obj, exact, seed = self.inputs[i % len(self.inputs)]
        return (self._counts if path == "counts" else self._records)(obj, exact, seed, tr)

    def _counts(self, obj, exact, seed: int, tr: Tracer) -> Output:
        if obj is exact:
            with tr.span("sampler.sample_box"):
                table = sample_box(obj, self.trials, seed)
        else:
            with tr.span("sampler.sample_hv"):
                table = sample_hv(obj, self.trials, seed)
        tr.count("sampler.draws", 4 * self.trials)
        with tr.span("sampler.empirical_chsh"):
            estimate = empirical_chsh(table)
        with tr.span("sampler.compare"):
            diff = compare(table, exact)
        text = json.dumps(
            {
                "label": exact.label,
                "seed": seed,
                "counts": table.counts.tolist(),
                "s": estimate.s,
                "linf": diff.linf,
            }
        )
        return Output(4 * self.trials, (text,), None)

    def _records(self, obj, exact, seed: int, tr: Tracer) -> Output:
        if obj is exact:
            with tr.span("sampler.box_records"):
                records = sample_box_records(obj, self.records, seed)
        else:
            with tr.span("sampler.hv_records"):
                records = sample_hv_records(obj, self.records, seed)
        with tr.span("sampler.records_to_csv"):
            text = records_to_csv(records)
        tr.count("sampler.records", len(records))
        tr.count("sampler.csv_bytes", len(text))
        return Output(len(records), (text,), None)

    def check(self, i: int, out: Output, tr: Tracer) -> list[str]:
        path, obj, exact, seed = self.inputs[i % len(self.inputs)]
        if path == "records":
            sample = sample_box if obj is exact else sample_hv
            counts = sample(obj, self.records, seed).counts.tolist()
            return checks.check_records(out.texts[0], obj is not exact, counts)
        emitted = json.loads(out.texts[0])
        return checks.check_sample(
            emitted["counts"], self.trials, exact.p.tolist(), emitted["s"],
            chsh_value(exact).s, emitted["linf"],
        )


# -------------------------------------------------------------------- cli

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter_ns()\n"
    "import numpy\n"
    "t1 = time.perf_counter_ns()\n"
    "import prbox.cli\n"
    "t2 = time.perf_counter_ns()\n"
    "print(t1 - t0, t2 - t1)\n"
)
IMPORT_REPS = 5


def _spec(rng: np.random.Generator, k: int) -> str:
    """A box spec of kind ``k`` (mod 4) with seeded parameters."""
    kind = k % 4
    if kind == 0:
        return "singlet:" + ",".join(repr(t) for t in rng.uniform(-math.pi, math.pi, 4).tolist())
    if kind == 1:
        return f"hv:p0={float(rng.random())!r}"
    if kind == 2:
        w = float(rng.uniform(0.5, 1.0))
        bits = ",".join(str(b) for b in _local_bits(int(rng.integers(16))))
        return f"mix:pr@{w!r}+local:{bits}@{1.0 - w!r}"
    return "local:" + ",".join(str(b) for b in _local_bits(int(rng.integers(16))))


def prbox_env() -> dict[str, str]:
    """Environment for a child that imports this checkout's prbox."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def main_inprocess(argv: list[str], tr: Tracer) -> tuple[int, str]:
    """``prbox.cli.main(argv)`` in this process, stdout captured."""
    buf = io.StringIO()
    with tr.span(f"cli.main.{argv[0]}"), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Cli:
    """One ``python -m prbox`` child per op, one at a time: every
    subcommand, then a build -> file: -> chsh round trip."""

    name = "cli"
    chunk_ops = 8  # one round
    batch_ops = 1
    digest_ops = 8
    small_ops = 8

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = prbox_env()
        rng = _rng(seed, 4)
        self.rounds = []
        for r in range(64):
            path = str(self.workdir / f"box-{r}.json")
            specs = [_spec(rng, r + k) for k in range(5)]
            self.rounds.append(
                [
                    ["build", "--box", specs[0]],
                    ["analyze", "--box", specs[1]],
                    ["chsh", "--box", specs[2]],
                    ["table1"],
                    ["sample", "--box", specs[3], "--trials", "10000",
                     "--seed", str(int(rng.integers(0, 2**63)))],
                    ["sweep", "--grid", "0:1:0.1"],
                    ["build", "--box", specs[4], "-o", path],
                    ["chsh", "--box", "file:" + path],
                ]
            )

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env=self.env, cwd=ROOT, timeout=120,
        )

    def warm_up(self) -> None:
        self._child(["-m", "prbox", "table1"])

    def argv(self, i: int) -> list[str]:
        return self.rounds[(i // self.chunk_ops) % len(self.rounds)][i % self.chunk_ops]

    def op(self, i: int, tr: Tracer) -> Output:
        argv = self.argv(i)
        with tr.span("cli.invocation"):
            proc = self._child(["-m", "prbox", *argv])
        texts = (proc.stdout,)
        if "-o" in argv:
            texts += (Path(argv[-1]).read_text(encoding="utf-8"),)
        return Output(1, texts, (proc.returncode, proc.stderr))

    def check(self, i: int, out: Output, tr: Tracer) -> list[str]:
        """The child's exit code, stdout and output file equal those of
        ``prbox.cli.main`` run in this process on the same arguments."""
        argv = self.argv(i)
        code, stderr = out.ctx
        expected = [code == 0, stderr == ""]
        if "-o" in argv:
            argv = argv[:-1] + [argv[-1] + ".inproc"]
        in_code, in_stdout = main_inprocess(argv, tr)
        expected += [in_code == 0, in_stdout == out.texts[0]]
        if "-o" in argv:
            expected.append(Path(argv[-1]).read_text(encoding="utf-8") == out.texts[1])
        if all(expected):
            return []
        return [f"prbox {' '.join(argv)}: exit {code}, stderr {stderr!r}, "
                f"in-process exit {in_code}, outputs equal {expected[3:]}"]

    def extras(self, tr: Tracer) -> None:
        """Interpreter start, the numpy import and prbox's own import on top
        of it, from fresh children; then one round through ``cli.main``."""
        for k in range(IMPORT_REPS):
            tr.op = k
            with tr.span("cli.python_start"):
                self._child(["-c", "pass"]).check_returncode()
            with tr.span("cli.import_probe"):
                start = time.perf_counter_ns()
                proc = self._child(["-c", IMPORT_PROBE])
                proc.check_returncode()
                numpy_ns, prbox_ns = (int(v) for v in proc.stdout.split())
                tr.add_span("cli.numpy_import", start, start + numpy_ns)
                tr.add_span("cli.prbox_import", start + numpy_ns, start + numpy_ns + prbox_ns)
        for k in range(self.chunk_ops):
            tr.op = k
            main_inprocess(self.argv(k), tr)


WORKLOADS = {w.name: w for w in (Analyze, Search, Sample, Cli)}
