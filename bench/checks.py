"""Correctness checks the benchmark applies to prbox's outputs.

Each check returns a list of failure messages; an empty list means the
output is right.  The witness reference is written independently of
``prbox.locality`` from the convention in its module docstring: rows are
``[x, y, a, b, lhs, rhs]`` in lexicographic order of (x, y, a, b, side),
comparisons over a binary coordinate put value 0 on the left, and an
outcome slot that does not enter the comparison holds -1.  It uses the
same float operations, so every row must match exactly, not within a
tolerance.
"""

from __future__ import annotations

import math
from collections import Counter

TSIRELSON = 2.0 * math.sqrt(2.0)

# |s| bound for each kind of box the analyze workload generates.
CLASS_BOUND = {
    "pr": 4.0,
    "hv": 4.0,
    "pr_uniform": 4.0,
    "singlet": TSIRELSON,
    "singlet_opt": TSIRELSON,
    "local": 2.0,
    "local_mix": 2.0,
}

BITS = (0, 1)
CELLS = [(x, y, a, b) for x in BITS for y in BITS for a in BITS for b in BITS]


def _marg_a(p, x, y, a):
    return p[x][y][a][0] + p[x][y][a][1]


def _marg_b(p, x, y, b):
    return p[x][y][0][b] + p[x][y][1][b]


def _cond_a(p, x, y, a, b, eps):
    mb = _marg_b(p, x, y, b)
    return None if mb <= eps else p[x][y][a][b] / mb


def _cond_b(p, x, y, a, b, eps):
    ma = _marg_a(p, x, y, a)
    return None if ma <= eps else p[x][y][a][b] / ma


def _rows(found):
    found.sort(key=lambda w: (w[0], w[1], w[2], w[3], w[6]))
    return [list(w[:6]) for w in found]


def expected_witnesses(p, eps: float) -> dict[str, list[list]]:
    """Witness rows of every locality verdict for the nested table ``p``."""
    ns = []
    for x in BITS:
        for a in BITS:
            lhs, rhs = _marg_a(p, x, 0, a), _marg_a(p, x, 1, a)
            if abs(lhs - rhs) > eps:
                ns.append((x, 0, a, -1, lhs, rhs, "A"))
    for y in BITS:
        for b in BITS:
            lhs, rhs = _marg_b(p, 0, y, b), _marg_b(p, 1, y, b)
            if abs(lhs - rhs) > eps:
                ns.append((0, y, -1, b, lhs, rhs, "B"))

    oi = []
    for x, y, a, b in CELLS:
        c = _cond_a(p, x, y, a, b, eps)
        if c is not None and abs(c - _marg_a(p, x, y, a)) > eps:
            oi.append((x, y, a, b, c, _marg_a(p, x, y, a), "A"))
        c = _cond_b(p, x, y, a, b, eps)
        if c is not None and abs(c - _marg_b(p, x, y, b)) > eps:
            oi.append((x, y, a, b, c, _marg_b(p, x, y, b), "B"))

    if ns:
        bf = list(ns)
    else:
        bf = []
        for x, y, a, b in CELLS:
            joint = p[x][y][a][b]
            product = _marg_a(p, x, 0, a) * _marg_b(p, 0, y, b)
            if abs(joint - product) > eps:
                bf.append((x, y, a, b, joint, product, "AB"))

    cd = []
    for x in BITS:
        for a in BITS:
            for b in BITS:
                lhs, rhs = _cond_a(p, x, 0, a, b, eps), _cond_a(p, x, 1, a, b, eps)
                if lhs is not None and rhs is not None and abs(lhs - rhs) > eps:
                    cd.append((x, 0, a, b, lhs, rhs, "A"))
    for y in BITS:
        for a in BITS:
            for b in BITS:
                lhs, rhs = _cond_b(p, 0, y, a, b, eps), _cond_b(p, 1, y, a, b, eps)
                if lhs is not None and rhs is not None and abs(lhs - rhs) > eps:
                    cd.append((0, y, a, b, lhs, rhs, "B"))

    ns_rows = _rows(ns)
    return {
        "no_signaling": ns_rows,
        "outcome_independence": _rows(oi),
        "parameter_independence": ns_rows,
        "bell_factorizable": _rows(bf),
        "conditioned_parameter_dependence": _rows(cd),
    }


def check_report(p, report: dict, eps: float) -> list[str]:
    """``report`` is ``LocalityReport.as_dict()`` for the nested table ``p``."""
    failures = []
    expected = expected_witnesses(p, eps)
    if set(report) != set(expected):
        return [f"report verdicts {sorted(report)} != {sorted(expected)}"]
    for name, rows in expected.items():
        verdict = report[name]
        if verdict["witnesses"] != rows:
            failures.append(f"{name}: witnesses {verdict['witnesses']} != {rows}")
        if verdict["status"] != ("violated" if rows else "holds"):
            failures.append(f"{name}: status {verdict['status']} with {len(rows)} rows")
    holds = {name: v["status"] == "holds" for name, v in report.items()}
    if holds["bell_factorizable"] != (
        holds["outcome_independence"] and holds["parameter_independence"]
    ):
        failures.append("bell_factorizable is not outcome AND parameter independence")
    return failures


def check_chsh(kind: str, s: float, expected: float | None = None) -> list[str]:
    """|s| within the bound of the box's class, and equal to ``expected``
    within 1e-9 where the class fixes the value."""
    failures = []
    if not abs(s) <= CLASS_BOUND[kind] + 1e-9:
        failures.append(f"{kind}: |s| = {abs(s)!r} exceeds {CLASS_BOUND[kind]!r}")
    if expected is not None and not abs(s - expected) <= 1e-9:
        failures.append(f"{kind}: s = {s!r}, expected {expected!r}")
    return failures


def check_search(best: float, s_at_argmax: float, certificate: float) -> list[str]:
    """The random search stays within Tsirelson's bound and reports the
    CHSH value of the angles it returns; deterministic strategies peak at 2."""
    failures = []
    if not best <= TSIRELSON + 1e-6:
        failures.append(f"search max {best!r} exceeds 2*sqrt(2) + 1e-6")
    if abs(s_at_argmax) != best:
        failures.append(f"search max {best!r} != |chsh| {abs(s_at_argmax)!r} at its angles")
    if certificate != 2.0:
        failures.append(f"classical certificate {certificate!r} != 2")
    return failures


def check_sample(
    counts, trials: int, freq_exact, s_emp: float, s_exact: float, linf: float
) -> list[str]:
    """Counts sum to the trials of each setting pair, and the estimates sit
    within ten standard errors of the exact table: a frequency has standard
    error at most 0.5/sqrt(trials), and s, a sum of four correlations, at
    most 2/sqrt(trials)."""
    failures = []
    sums = [[sum(sum(r) for r in counts[x][y]) for y in BITS] for x in BITS]
    if sums != [[trials, trials], [trials, trials]]:
        failures.append(f"per-setting counts {sums} != {trials}")
    worst = max(abs(counts[x][y][a][b] / trials - freq_exact[x][y][a][b]) for x, y, a, b in CELLS)
    if linf != worst:
        failures.append(f"compare linf {linf!r} != recomputed {worst!r}")
    if not worst <= 5.0 / math.sqrt(trials):
        failures.append(f"frequencies deviate by {worst!r} from the exact table")
    if not abs(s_emp - s_exact) <= 20.0 / math.sqrt(trials):
        failures.append(f"empirical s {s_emp!r} vs exact {s_exact!r}")
    return failures


def csv_counts(text: str, hv: bool) -> tuple[list, list[str]]:
    """Aggregate a ``records_to_csv`` dump into a counts table
    ``[x][y][a][b]``.  For hidden-variable dumps every row must also follow
    the canonical responses a = (x + lambda) mod 2, b = (x + lambda - x*y) mod 2;
    box dumps leave the lambda column blank."""
    failures = []
    lines = text.split("\n")
    if lines[0] != "x,y,lambda,a,b" or lines[-1] != "":
        failures.append("records CSV lacks its header or final newline")
    counts = [[[[0, 0], [0, 0]] for _ in BITS] for _ in BITS]
    for line, n in Counter(lines[1:-1]).items():
        try:
            x, y, lam, a, b = line.split(",")
            x, y, a, b = int(x), int(y), int(a), int(b)
            counts[x][y][a][b] += n
        except (ValueError, IndexError):
            failures.append(f"malformed record {line!r}")
            continue
        if hv:
            if lam not in ("0", "1") or (a, b) != (
                (x + int(lam)) % 2,
                (x + int(lam) - x * y) % 2,
            ):
                failures.append(f"record {line!r} breaks the model's responses")
        elif lam != "":
            failures.append(f"box record {line!r} carries a lambda")
    return counts, failures


def check_records(text: str, hv: bool, expected_counts) -> list[str]:
    """Records aggregate to the counts table drawn with the same seed."""
    counts, failures = csv_counts(text, hv)
    if counts != expected_counts:
        failures.append(f"records aggregate to {counts}, counts path gave {expected_counts}")
    return failures
