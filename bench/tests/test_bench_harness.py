"""The harness reports exactly the metrics BENCHMARK.json names, the diff
mode flags regressions and digest changes, and the benchmark refuses to run
without prbox's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import diff
import harness

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_reports_end_to_end_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    result, details = harness.run("analyze", 4, 0.05, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 490
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    again, _ = harness.run("analyze", 4, 0.05, False, tmp_path)
    assert len(details["output_sha256"]) == 64
    assert details["output_sha256"] == _["output_sha256"]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, details = harness.run("search", 4, 0.05, True, tmp_path)
    assert result["correct"], details["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names("per_layer")
    spans = (tmp_path / "search-seed4.spans.jsonl").read_text().splitlines()
    name, start, end, parent, op = json.loads(spans[0])
    assert end >= start and parent == -1


def test_tail_has_ten_samples_beyond_it():
    lat = list(range(1, 1001))
    pct, value = harness.tail(lat)
    assert pct == 99.0 and sum(v > value for v in lat) >= 10
    assert harness.tail(lat[:15])[0] == 50.0


def result_file(path, workload, seed, values, digest="d" * 64, correct=True):
    path.mkdir(parents=True, exist_ok=True)
    data = {
        "result": {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                   "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}},
        "details": {"workload": workload, "seed": seed, "output_sha256": digest},
    }
    (path / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(data))


def test_diff_flags_regressions_and_digest_changes(tmp_path, capsys):
    for seed, v in ((1, 100.0), (2, 101.0), (3, 99.0)):
        result_file(tmp_path / "old", "analyze", seed, {"work_per_s": v, "setup_s": 1.0})
        result_file(tmp_path / "same", "analyze", seed, {"work_per_s": v * 1.01, "setup_s": 1.0})
        result_file(tmp_path / "slow", "analyze", seed, {"work_per_s": v * 0.5, "setup_s": 1.0})
        result_file(tmp_path / "other", "analyze", seed, {"work_per_s": v, "setup_s": 1.0},
                    digest="e" * 64)
    assert diff.main([str(tmp_path / "old"), str(tmp_path / "same")]) == 0
    assert diff.main([str(tmp_path / "old"), str(tmp_path / "slow")]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert diff.main([str(tmp_path / "old"), str(tmp_path / "other")]) == 1
    assert "digest differs" in capsys.readouterr().out


def test_refuses_to_run_without_prbox_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
