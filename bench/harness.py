"""Timed loop, set-up probes, metrics and result files.

An untraced run (``trace=False``) gives the end-to-end metrics.  A traced
run gives the per-layer metrics: its timed loop alternates untraced and
traced chunks, so the two throughputs give the tracing overhead, and it
then runs each public analysis separately, the import probes, and small
runs of the other workloads, so every layer gets a span in every traced
run.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import prbox
from tracing import Tracer
from workloads import WORKLOADS

SETUP_PROBES = 5
RUN_PY = Path(__file__).resolve().parent / "run.py"

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer time metric -> span name.  The value is the span's median self
# time in the unit the metric name ends with; each span also reports its
# call count as ``<span>.calls``.
LAYER_SPANS = {
    "locality.locality_report_us": "locality.locality_report",
    "locality.no_signaling_us": "locality.no_signaling",
    "locality.outcome_independence_us": "locality.outcome_independence",
    "locality.parameter_independence_us": "locality.parameter_independence",
    "locality.bell_factorizable_us": "locality.bell_factorizable",
    "locality.conditioned_dependence_us": "locality.conditioned_dependence",
    "locality.report_json_us": "locality.report_json",
    "box.construct_us": "box.construct",
    "box.validate_us": "box.validate",
    "box.json_roundtrip_us": "box.json_roundtrip",
    "hidden_variable.hv_to_box_us": "hidden_variable.hv_to_box",
    "quantum.singlet_box_us": "quantum.singlet_box",
    "chsh.chsh_value_us": "chsh.chsh_value",
    "quantum.search_call_ms": "quantum.search_call",
    "chsh.classical_bound_certificate_us": "chsh.classical_bound_certificate",
    "sampler.sample_box_ms": "sampler.sample_box",
    "sampler.sample_hv_ms": "sampler.sample_hv",
    "sampler.empirical_chsh_us": "sampler.empirical_chsh",
    "sampler.compare_us": "sampler.compare",
    "sampler.box_records_ms": "sampler.box_records",
    "sampler.hv_records_ms": "sampler.hv_records",
    "sampler.records_to_csv_ms": "sampler.records_to_csv",
    "cli.python_start_ms": "cli.python_start",
    "cli.numpy_import_ms": "cli.numpy_import",
    "cli.prbox_import_ms": "cli.prbox_import",
    **{f"cli.main_ms.{c}": f"cli.main.{c}"
       for c in ("build", "analyze", "chsh", "table1", "sample", "sweep")},
}
LAYER_COUNTS = (
    "locality.witness_rows",
    "locality.violated_verdicts",
    "quantum.points",
    "sampler.draws",
    "sampler.records",
    "sampler.csv_bytes",
)
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
BATCH_PERCENTILES = (90.0, 75.0, 50.0)


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric, span in LAYER_SPANS.items():
        units[metric] = metric.rsplit("_", 1)[1].split(".")[0]
        units[span + ".calls"] = "count"
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({"op_p50_ms": "ms", "op_tail_ms": "ms", "op_tail_pct": "%",
                  "trace_overhead_pct": "%"})
    return units


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "prbox": prbox.__version__,
    }


def tail(values: list[float], percentiles=TAIL_PERCENTILES) -> tuple[float, float]:
    """(percentile, value) for the highest of ``percentiles`` with at least
    ten samples beyond it; the lowest one when there are too few samples."""
    n = len(values)
    for pct in percentiles:
        if n * (100.0 - pct) / 100.0 >= 10:
            break
    return pct, float(np.percentile(values, pct))


def work_per_s(batches_ns: np.ndarray, work_per_batch: float) -> tuple[float, float]:
    """(percentile, work per second) that the slowest batches still reach.

    A batch is ``batch_ops`` consecutive ops, one cycle of the workload's op
    mix, so batches are alike.  The batch time taken is the highest of the
    90th, 75th and 50th percentiles with at least ten batches beyond it.  On
    a shared machine whose speed switches between regimes about 2x apart,
    seconds to minutes at a time, the mean and median follow the share of
    time spent in each regime; a high percentile of short batches stays with
    the slower regime and repeats far better.
    """
    pct, batch_ns = tail(batches_ns, BATCH_PERCENTILES)
    return pct, work_per_batch / (batch_ns / 1e9)


def batch_times(latencies_ns: list[int], batch_ops: int) -> np.ndarray:
    n = len(latencies_ns) // batch_ops * batch_ops
    return np.asarray(latencies_ns[:n]).reshape(-1, batch_ops).sum(axis=1)


def setup_seconds(name: str, seed: int, out_dir: Path) -> float:
    """Wall time from starting a fresh workload process to its first
    timed op: interpreter start, imports, input generation and warm-up."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
         "--out", str(out_dir), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up probe of {name} failed with exit code {code}")
    return elapsed


def make(name: str, seed: int, out_dir: Path, small: bool = False):
    return WORKLOADS[name](seed, small=small, workdir=out_dir / f"tmp-{name}-{seed}")


class Loop:
    """Runs ops in order, checks each one after its chunk, and keeps the
    tallies of one run."""

    def __init__(self, workload, tr: Tracer, digest_ops: int):
        self.wl = workload
        self.tr = tr
        self.next_op = 0
        self.digest_ops = digest_ops
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies = {False: [], True: []}
        self.wall_ns = {False: 0, True: 0}
        self.work = {False: 0, True: 0}

    def chunk(self, n: int, traced: bool, timed: bool = True) -> None:
        wl, tr = self.wl, self.tr
        tr.enabled = traced
        first = self.next_op
        outs = []
        chunk_start = time.perf_counter_ns()
        for i in range(first, first + n):
            tr.op = i
            start = time.perf_counter_ns()
            try:
                with tr.span("op"):
                    out = wl.op(i, tr)
            except Exception:
                out = traceback.format_exc()
            outs.append(out)
            if timed:
                self.latencies[traced].append(time.perf_counter_ns() - start)
        if timed:
            self.wall_ns[traced] += time.perf_counter_ns() - chunk_start
        for i, out in zip(range(first, first + n), outs):
            tr.op = i
            self.attempted += 1
            if isinstance(out, str):
                self.failed += 1
                self.failures.append(f"op {i} raised: {out}")
                continue
            try:
                problems = wl.check(i, out, tr)
            except Exception:
                problems = [f"check of op {i} raised: {traceback.format_exc()}"]
            self.failed += bool(problems)
            self.failures += problems
            if not problems and timed:
                self.work[traced] += out.work
            if i < self.digest_ops:
                for text in out.texts:
                    self.digest.update(text.encode())
                    self.digest.update(b"\x1e")
        self.next_op = first + n
        tr.enabled = False


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the details."""
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = make(name, seed, out_dir)
    wl.warm_up()
    setups = [] if trace else [setup_seconds(name, seed, out_dir) for _ in range(SETUP_PROBES)]

    tr = Tracer()
    loop = Loop(wl, tr, wl.digest_ops)
    chunks = 0
    while True:
        loop.chunk(wl.chunk_ops, traced=trace and chunks % 2 == 1)
        chunks += 1
        timed_s = sum(loop.wall_ns.values()) / 1e9
        if timed_s >= seconds and (not trace or chunks >= 2):
            break
    while loop.next_op < wl.digest_ops:
        loop.chunk(min(wl.chunk_ops, wl.digest_ops - loop.next_op), False, timed=False)

    untraced = loop.latencies[False]
    tail_pct, tail_ns = tail(untraced)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "ops_timed": len(untraced) + len(loop.latencies[True]),
        "output_sha256": loop.digest.hexdigest(),
        "digest_ops": wl.digest_ops,
        "op_tail": {"percentile": tail_pct, "ms": tail_ns / 1e6, "samples": len(untraced)},
        "setup_samples_s": setups,
    }

    if trace:
        tr.enabled = True
        if hasattr(wl, "extras"):
            wl.extras(tr)
        for other in WORKLOADS:
            if other == name:
                continue
            mini = make(other, seed, out_dir, small=True)
            mini_loop = Loop(mini, tr, 0)
            mini_loop.chunk(mini.small_ops, traced=True, timed=False)
            tr.enabled = True
            if hasattr(mini, "extras"):
                mini.extras(tr)
            loop.attempted += mini_loop.attempted
            loop.failed += mini_loop.failed
            loop.failures += mini_loop.failures
        tr.enabled = False
        metrics = layer_metrics(tr, loop, tail_pct, tail_ns)
        details["spans"] = tr.summary()
        details["counts"] = dict(tr.counts)
        tr.write(str(out_dir / f"{name}-seed{seed}.spans.jsonl"))
    else:
        batches = batch_times(untraced, wl.batch_ops)
        pct, rate = work_per_s(batches, loop.work[False] / len(untraced) * wl.batch_ops)
        details["work_per_s_batch_percentile"] = pct
        details["batch_ms"] = {
            str(q): float(np.percentile(batches, q)) / 1e6
            for q in (0, 5, 10, 25, 50, 75, 90, 95, 100)
        }
        values = {
            "setup_s": statistics.median(setups),
            "work_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    details["failures"] = loop.failures[:20]
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, details


def layer_metrics(tr: Tracer, loop: Loop, tail_pct: float, tail_ns: float) -> dict:
    units = per_layer_units()
    summary = tr.summary()
    values = {}
    for metric, span in LAYER_SPANS.items():
        scale = 1e3 if units[metric] == "us" else 1e6
        values[metric] = summary[span]["p50_self_ns"] / scale
        values[span + ".calls"] = summary[span]["calls"]
    for name in LAYER_COUNTS:
        values[name] = tr.counts[name]
    values["op_p50_ms"] = statistics.median(loop.latencies[False]) / 1e6
    values["op_tail_ms"] = tail_ns / 1e6
    values["op_tail_pct"] = tail_pct
    rates = {t: loop.work[t] / (loop.wall_ns[t] / 1e9) for t in (False, True)}
    # No traced work means every traced op failed; the run is then not correct.
    values["trace_overhead_pct"] = (rates[False] / rates[True] - 1.0) * 100.0 if rates[True] else 0.0
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}
