"""Smoke tests for the experiment scripts and the README's library example:
each runs as a subprocess with ``src`` on the import path and must exit 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def field(text, label):
    match = re.search(rf"^{re.escape(label)}\s+(?:s = )?(\S+)$", text, re.MULTILINE)
    assert match, f"no {label!r} line in:\n{text}"
    return float(match.group(1))


def test_tsirelson_random_search():
    out = run_script("tsirelson_random_search.py", "--points", "20000")
    best = field(out, "best |s| found:")
    assert field(out, "gap to maximum:") >= 0.0
    assert best > 2.0
    # both lines print 9 decimals of the same value, up to its sign
    assert abs(field(out, "recheck at best:")) == best


@pytest.mark.parametrize(
    "name, args, header",
    [
        ("isotropic_noise_scan.py", (), "w,s,no_signaling,factorizable"),
        (
            "lambda_sweep_experiment.py",
            ("--steps", "5"),
            "p0,chsh,constraint_ok,no_signaling,max_marginal_leak",
        ),
    ],
)
def test_scan_scripts_run(name, args, header):
    assert run_script(name, *args).splitlines()[0] == header


@pytest.mark.parametrize("steps", [21, 41])
def test_lambda_sweep_rows(steps):
    header, *rows = run_script("lambda_sweep_experiment.py", "--steps", str(steps)).splitlines()
    assert header == "p0,chsh,constraint_ok,no_signaling,max_marginal_leak"
    assert len(rows) == steps
    for row in rows:
        p0, chsh, constraint_ok, status, leak = row.split(",")
        assert (chsh, constraint_ok) == ("4.000000", "True")
        assert status == ("holds" if p0 == "0.5000" else "violated")
        # B's y = 0 marginal moves from p0 to p1 = 1 - p0 when x flips
        assert leak == f"{abs(2 * float(p0) - 1):.6f}"


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^## Library example\n+```python\n(.*?)^```", readme, re.M | re.S)
    # each print's value is the comment on its line
    expected = re.findall(r"^print\(.*#\s*(\S+)$", code, re.M)
    assert expected == ["4.0", "violated", "holds", "4.0"]
    assert run_python("-c", code).splitlines() == expected
