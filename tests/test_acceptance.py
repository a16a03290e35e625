"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure).  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from helpers import random_box
from prbox import (
    LambdaDist,
    OPTIMAL_CHSH_ANGLES,
    all_deterministic_boxes,
    bell_factorizable,
    chsh_value,
    classical_bound_certificate,
    compare,
    conditioned_dependence,
    convex_mix,
    empirical_chsh,
    hv_dependence,
    lambda_sweep,
    max_chsh_over_random_angles,
    outcome_independence,
    parameter_independence,
    pr_box,
    pr_hv_model,
    sample_box,
    singlet_box,
    truth_table_csv,
    uniform_box,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_pr_box_saturation():
    with criterion(1, "CHSH of the canonical nonlocal box is 4 within 1e-9"):
        assert abs(chsh_value(pr_box()).s - 4.0) <= 1e-9


def test_criterion_2_classical_bound():
    with criterion(2, "deterministic maximum |s| is exactly 2; 1000 local mixtures stay within 2 + 1e-9"):
        cert = classical_bound_certificate()
        assert cert.max_abs_s == 2.0
        strategies = all_deterministic_boxes()
        rng = np.random.default_rng(42)
        for _ in range(1000):
            w = rng.random(16)
            w /= w.sum()
            assert abs(chsh_value(convex_mix(strategies, w)).s) <= 2.0 + 1e-9


def test_criterion_3_tsirelson_attainment_and_non_exceedance():
    with criterion(3, "singlet attains 2*sqrt(2) within 1e-9; 1e4 random angle points never exceed it by more than 1e-6"):
        s = chsh_value(singlet_box(OPTIMAL_CHSH_ANGLES)).s
        assert abs(s - TSIRELSON) <= 1e-9
        best, _ = max_chsh_over_random_angles(10_000, seed=99)
        assert best <= TSIRELSON + 1e-6


def test_criterion_4_truth_table_fidelity():
    with criterion(4, "hidden-variable truth table CSV is byte-exact for any distribution"):
        golden = (
            "x,y,lambda,a,b\n"
            "0,0,0,0,0\n"
            "0,0,1,1,1\n"
            "1,0,0,1,1\n"
            "1,0,1,0,0\n"
            "0,1,0,0,0\n"
            "0,1,1,1,1\n"
            "1,1,0,1,0\n"
            "1,1,1,0,1\n"
        )
        for p0 in (0.0, 0.3, 0.5, 1.0):
            csv = truth_table_csv(pr_hv_model(LambdaDist.from_p0(p0)))
            assert csv.encode() == golden.encode()


def test_criterion_5_lambda_family_claims():
    with criterion(5, "every lambda distribution keeps the relation and s = 4; no-signaling holds only at p0 = 1/2"):
        grid = [round(0.1 * k, 12) for k in range(11)]
        points = lambda_sweep([LambdaDist.from_p0(p0) for p0 in grid])
        for p0, point in zip(grid, points):
            assert point.constraint_ok
            assert abs(point.chsh - 4.0) <= 1e-9
            assert point.no_signaling.holds == (abs(p0 - 0.5) <= 1e-9)


def test_criterion_6_dependence_verdict_matrix():
    with criterion(6, "canonical box: outcome independence violated, parameter independence holds, conditioned dependence violated; model shows only remote-setting dependence"):
        box = pr_box()
        oi = outcome_independence(box)
        assert not oi.holds
        first = oi.witnesses[0]
        assert (first.x, first.y, first.a, first.b) == (0, 0, 0, 0)
        assert abs(first.lhs - 1.0) <= 1e-9
        assert abs(first.rhs - 0.5) <= 1e-9
        assert parameter_independence(box).holds
        assert not conditioned_dependence(box).holds

        dep = hv_dependence(pr_hv_model(LambdaDist.from_p0(0.5)))
        assert (
            dep.a_depends_on_y,
            dep.b_depends_on_x,
            dep.a_depends_on_b,
            dep.b_depends_on_a,
        ) == (False, True, False, False)


def test_criterion_7_decomposition_equivalence():
    with criterion(7, "factorizability is equivalent to outcome independence plus parameter independence"):
        tables = [*all_deterministic_boxes(), pr_box(), uniform_box()]
        rng = np.random.default_rng(20260810)
        tables += [random_box(rng) for _ in range(100)]
        for table in tables:
            fact = bell_factorizable(table).holds
            both = (
                outcome_independence(table).holds
                and parameter_independence(table).holds
            )
            assert fact == both, table.label


def test_criterion_8_statistical_consistency():
    with criterion(8, "1e6 seeded trials per setting reproduce s within 0.01 and the table within 0.002"):
        box = pr_box()
        table = sample_box(box, 1_000_000, seed=123456)
        assert abs(empirical_chsh(table).s - 4.0) <= 0.01
        assert compare(table, box).linf < 0.002


def _run_cli(args):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "prbox", *args],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command with fixed inputs and seeds is byte-identical across runs"):
        commands = [
            ["chsh", "--box", "pr"],
            ["table1"],
            ["analyze", "--box", "hv:p0=0.3"],
            ["build", "--box", "singlet:0,1.5707963267948966,-2.356194490192345,2.356194490192345"],
            ["sample", "--box", "pr", "--trials", "5000", "--seed", "7"],
            ["sample", "--box", "hv:p0=0.5", "--trials", "50", "--seed", "7", "--records"],
            ["sweep", "--grid", "0:1:0.5"],
        ]
        for args in commands:
            assert _run_cli(args) == _run_cli(args), args

        # build -> file -> chsh equals chsh on the original spec
        spec = "mix:pr@0.75+local:0,0,0,0@0.25"
        path = tmp_path / "box.json"
        _run_cli(["build", "--box", spec, "-o", str(path)])
        direct = _run_cli(["chsh", "--box", spec])
        via_file = _run_cli(["chsh", "--box", f"file:{path}"])
        assert direct == via_file

        data = json.loads(_run_cli(["chsh", "--box", "pr"]))
        assert data["s"] == 4.0
