"""The benchmark's checks accept prbox's outputs and reject corrupted ones;
its input generators are deterministic per seed."""

import copy
import json
import math

import numpy as np
import pytest

import checks
import workloads
from prbox import (
    DEFAULT_EPS,
    OPTIMAL_CHSH_ANGLES,
    LambdaDist,
    all_deterministic_boxes,
    convex_mix,
    hv_to_box,
    locality_report,
    pr_box,
    pr_hv_model,
    records_to_csv,
    sample_box,
    sample_box_records,
    sample_hv,
    sample_hv_records,
    singlet_box,
    uniform_box,
)
from tracing import Tracer

BOXES = [
    pr_box(),
    uniform_box(),
    all_deterministic_boxes()[6],
    hv_to_box(pr_hv_model(LambdaDist.from_p0(0.3))),
    singlet_box(OPTIMAL_CHSH_ANGLES),
    convex_mix([pr_box(), uniform_box()], [0.7, 0.3]),
]


def report_of(box):
    return json.loads(json.dumps(locality_report(box, DEFAULT_EPS).as_dict()))


@pytest.mark.parametrize("box", BOXES, ids=lambda b: b.label)
def test_report_of_prbox_passes(box):
    assert checks.check_report(box.p.tolist(), report_of(box), DEFAULT_EPS) == []


def first_violated(report):
    return next(name for name, v in report.items() if v["witnesses"])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[0].__setitem__(4, rows[0][4] + 1e-12),  # lhs off by an ulp-ish
        lambda rows: rows[0].__setitem__(2, 1 - rows[0][2]),  # flipped outcome bit
        lambda rows: rows.pop(),  # a dropped witness
        lambda rows: rows.reverse() if len(rows) > 1 else rows.append(rows[0]),  # order
    ],
    ids=["value", "flipped-bit", "dropped", "order"],
)
def test_corrupted_witness_fails(corrupt):
    box = BOXES[3]  # hidden-variable box at p0 = 0.3: several violated verdicts
    report = report_of(box)
    bad = copy.deepcopy(report)
    corrupt(bad[first_violated(bad)]["witnesses"])
    assert checks.check_report(box.p.tolist(), bad, DEFAULT_EPS)


def test_flipped_status_fails():
    box = pr_box()
    report = report_of(box)
    report["bell_factorizable"] = {"status": "holds", "witnesses": []}
    failures = checks.check_report(box.p.tolist(), report, DEFAULT_EPS)
    assert any("outcome AND parameter" in f for f in failures)


def test_chsh_class_bounds():
    assert checks.check_chsh("pr", 4.0, 4.0) == []
    assert checks.check_chsh("singlet_opt", checks.TSIRELSON, checks.TSIRELSON) == []
    assert checks.check_chsh("local_mix", 2.5)
    assert checks.check_chsh("singlet", 2.9)
    assert checks.check_chsh("pr", 4.5)
    assert checks.check_chsh("pr_uniform", 2.0, 4.0 * 0.7)


def test_search_checks():
    assert checks.check_search(2.8, -2.8, 2.0) == []
    assert checks.check_search(2.9, 2.9, 2.0)
    assert checks.check_search(2.8, 2.7, 2.0)
    assert checks.check_search(2.8, 2.8, 2.5)


def test_sample_checks():
    box = pr_box()
    table = sample_box(box, 10_000, 5)
    freq = table.counts / 10_000
    linf = float(np.max(np.abs(freq - box.p)))
    s = float(4.0)
    args = (table.counts.tolist(), 10_000, box.p.tolist(), s, 4.0, linf)
    assert checks.check_sample(*args) == []
    counts = table.counts.tolist()
    counts[0][0][0][0] += 1
    assert checks.check_sample(counts, *args[1:])
    assert checks.check_sample(*args[:5], linf + 1e-3)
    assert checks.check_sample(*args[:3], 3.5, 4.0, linf)


def test_records_checks():
    box = singlet_box(OPTIMAL_CHSH_ANGLES)
    text = records_to_csv(sample_box_records(box, 500, 3))
    counts = sample_box(box, 500, 3).counts.tolist()
    assert checks.check_records(text, False, counts) == []
    lines = text.split("\n")
    lines[1] = lines[1][:-1] + ("1" if lines[1][-1] == "0" else "0")  # a wrong count
    assert checks.check_records("\n".join(lines), False, counts)

    model = pr_hv_model(LambdaDist.from_p0(0.4))
    text = records_to_csv(sample_hv_records(model, 500, 3))
    counts = sample_hv(model, 500, 3).counts.tolist()
    assert checks.check_records(text, True, counts) == []
    broken = text.replace("\n0,0,0,0,0\n", "\n0,0,1,0,0\n", 1)  # lambda disagrees with a, b
    assert broken != text
    assert checks.check_records(broken, True, counts)


def test_analyze_op_check_catches_corrupted_output():
    wl = workloads.Analyze(3)
    for i in range(len(workloads.ANALYZE_KINDS) * 2):
        out = wl.op(i, Tracer())
        assert wl.check(i, out, Tracer()) == []
    emitted = json.loads(out.texts[0])
    emitted["chsh"]["s"] = 4.5
    bad = out._replace(texts=(json.dumps(emitted),))
    assert wl.check(i, bad, Tracer())


def test_sample_op_checks_catch_corrupted_output():
    wl = workloads.Sample(3, small=True)
    outs = [wl.op(i, Tracer()) for i in range(wl.batch_ops)]
    assert [wl.check(i, out, Tracer()) for i, out in enumerate(outs)] == [[]] * wl.batch_ops
    counts_out, records_out = outs[0], outs[-1]
    emitted = json.loads(counts_out.texts[0])
    emitted["counts"][0][0][0][0] += 1
    assert wl.check(0, counts_out._replace(texts=(json.dumps(emitted),)), Tracer())
    lines = records_out.texts[0].split("\n")
    del lines[1]
    assert wl.check(wl.batch_ops - 1, records_out._replace(texts=("\n".join(lines),)), Tracer())


def test_cli_op_check_catches_corrupted_output(tmp_path):
    wl = workloads.Cli(3, workdir=tmp_path)
    out = wl.op(3, Tracer())  # table1
    assert wl.check(3, out, Tracer()) == []
    bad = out._replace(texts=(out.texts[0].replace("0", "1", 1),))
    assert wl.check(3, bad, Tracer())


def fingerprint(wl):
    return repr([(path, exact.p.tolist(), seed) for path, _, exact, seed in wl.inputs])


def test_generators_are_deterministic_per_seed(tmp_path):
    assert workloads.analyze_specs(7, 64) == workloads.analyze_specs(7, 64)
    assert workloads.analyze_specs(7, 64) != workloads.analyze_specs(8, 64)
    assert workloads.Search(7).seeds == workloads.Search(7).seeds != workloads.Search(8).seeds
    assert fingerprint(workloads.Sample(7)) == fingerprint(workloads.Sample(7))
    assert fingerprint(workloads.Sample(7)) != fingerprint(workloads.Sample(8))
    assert workloads.Cli(7, workdir=tmp_path).rounds == workloads.Cli(7, workdir=tmp_path).rounds
    assert workloads.Cli(7, workdir=tmp_path).rounds != workloads.Cli(8, workdir=tmp_path).rounds


def test_analyze_stream_covers_every_box_kind():
    specs = workloads.analyze_specs(1)
    kinds = {k for k, _ in specs}
    assert kinds == set(workloads.ANALYZE_KINDS)
    assert {p for k, p in specs if k == "local"} == {workloads._local_bits(k) for k in range(16)}
    assert 0.5 in {p for k, p in specs if k == "hv"}
    w = [p for k, p in specs if k == "pr_uniform"]
    assert any(abs(x - 0.5) < 2e-3 for x in w) and any(abs(x - math.sqrt(0.5)) < 2e-3 for x in w)
