import argparse
import json

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from prbox import (
    HVModel,
    LambdaDist,
    convex_mix,
    deterministic_local_box,
    hv_to_box,
    pr_box,
    pr_hv_model,
    records_to_csv,
    sample_box,
    sample_box_records,
    sample_hv,
    sample_hv_records,
)
from prbox.cli import (
    BoxSpecError,
    _json_dumps,
    _parse_grid,
    as_box,
    build_parser,
    main,
    parse_box_spec,
)
from prbox.hidden_variable import truth_table_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grid_values(text):
    point, count = _parse_grid(text)
    return [point(k) for k in range(count)]


class TestParseBoxSpec:
    def test_pr(self):
        assert parse_box_spec("pr").allclose(pr_box())

    def test_local(self):
        box = parse_box_spec("local:0,1,1,0")
        assert box.allclose(deterministic_local_box((0, 1), (1, 0)))

    def test_hv_returns_model(self):
        model = parse_box_spec("hv:p0=0.3")
        assert isinstance(model, HVModel)
        assert model.dist.p0 == 0.3

    def test_balanced_hv_equals_canonical_box(self):
        model = parse_box_spec("hv:p0=0.5")
        assert hv_to_box(model).allclose(pr_box())

    def test_singlet(self):
        box = parse_box_spec("singlet:0,1.5707963267948966,0.7853981633974483,2.356194490192345")
        assert box.label.startswith("singlet:")

    def test_mix(self):
        box = parse_box_spec("mix:pr@0.5+local:0,0,0,0@0.5")
        expected = convex_mix(
            [pr_box(), deterministic_local_box((0, 0), (0, 0))], [0.5, 0.5]
        )
        assert np.array_equal(box.p, expected.p)

    def test_mix_of_hv_component(self):
        box = parse_box_spec("mix:hv:p0=0.5@1.0")
        assert box.allclose(pr_box())

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(pr_box().to_dict()))
        box = parse_box_spec(f"file:{path}")
        assert box.allclose(pr_box())

    def test_unknown_spec(self):
        with pytest.raises(BoxSpecError):
            parse_box_spec("nope")

    def test_bad_bit_reports_position(self):
        with pytest.raises(BoxSpecError) as err:
            parse_box_spec("local:0,2,0,0")
        assert err.value.position == 8

    def test_bad_angle(self):
        with pytest.raises(BoxSpecError):
            parse_box_spec("singlet:0,abc,0,0")

    def test_nested_mix_rejected(self):
        with pytest.raises(BoxSpecError):
            parse_box_spec("mix:mix:pr@1.0@0.5+pr@0.5")

    def test_mix_weight_sum_is_semantic_error(self):
        with pytest.raises(ValueError, match="sum to 1"):
            parse_box_spec("mix:pr@0.5+pr@0.4")

    def test_hv_p0_out_of_range_is_semantic_error(self):
        with pytest.raises(ValueError):
            parse_box_spec("hv:p0=1.5")


class TestCommands:
    def test_chsh_pr(self, capsys):
        code, out, _ = run(capsys, "chsh", "--box", "pr")
        assert code == 0
        data = json.loads(out)
        assert data["s"] == 4.0
        assert data["e"] == [[1.0, 1.0], [1.0, -1.0]]

    def test_table1_matches_golden_csv(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert out == truth_table_csv(pr_hv_model(LambdaDist.from_p0(0.5)))

    def test_analyze_pr(self, capsys):
        code, out, _ = run(capsys, "analyze", "--box", "pr")
        assert code == 0
        report = json.loads(out)
        assert report["no_signaling"]["status"] == "holds"
        assert report["outcome_independence"]["status"] == "violated"
        assert report["parameter_independence"]["status"] == "holds"
        assert report["conditioned_parameter_dependence"]["status"] == "violated"

    def test_build_then_chsh_round_trip(self, capsys, tmp_path):
        path = tmp_path / "singlet.json"
        spec = "singlet:0,1.5707963267948966,-2.356194490192345,2.356194490192345"
        code, direct, _ = run(capsys, "chsh", "--box", spec)
        assert code == 0
        code, _, _ = run(capsys, "build", "--box", spec, "-o", str(path))
        assert code == 0
        code, from_file, _ = run(capsys, "chsh", "--box", f"file:{path}")
        assert code == 0
        assert from_file == direct

    @pytest.mark.parametrize(
        "spec",
        ["pr", "local:0,1,1,0", "hv:p0=0.3", "singlet:0.1,-2,3e-5,7",
         "mix:pr@0.3+local:1,0,0,1@0.2+hv:p0=0.9@0.5"],
    )
    def test_build_writes_the_indented_dict(self, capsys, spec):
        # the box JSON bytes are those of the indented encoder
        code, out, _ = run(capsys, "build", "--box", spec)
        assert code == 0
        assert out == json.dumps(as_box(parse_box_spec(spec)).to_dict(), indent=2) + "\n"

    def test_sample_json_is_deterministic(self, capsys):
        args = ("sample", "--box", "pr", "--trials", "1000", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["seed"] == 5
        assert data["trials_per_setting"] == [[1000, 1000], [1000, 1000]]
        assert int(np.sum(np.array(data["counts"]))) == 4000

    def test_sample_csv(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--box", "pr", "--trials", "10", "--seed", "5",
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("x,y,a,b,count\n")

    def test_sample_records_csv(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--box", "hv:p0=0.5", "--trials", "4", "--seed", "5",
            "--records",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,lambda,a,b"
        assert len(lines) == 17

    def test_sample_records_reject_json(self, capsys):
        code, _, err = run(
            capsys, "sample", "--box", "pr", "--trials", "4", "--seed", "5",
            "--records", "--format", "json",
        )
        assert code == 2
        # a flag conflict, not a spec error: no spec position
        assert err == "error: record dumps are CSV only; drop --format json\n"

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "0:1:0.25")
        assert code == 0
        rows = json.loads(out)
        assert [row["p0"] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(row["chsh"] == 4.0 for row in rows)
        assert all(row["constraint_ok"] for row in rows)
        assert [row["no_signaling"] for row in rows] == [
            "violated", "violated", "holds", "violated", "violated",
        ]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "chsh", "--box", "pr", "-o", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["s"] == 4.0


# Per subcommand, in order: its help, its handler, and each option as
# (flags, dest, required, default, choices, type, action, help).
PARSER_SURFACE = [
    ("build", "construct a box and emit its JSON", "_cmd_build", [
        (("--box",), "box", True, None, None, None, "_StoreAction", "box spec (see module help)"),
        (("--eps",), "eps", False, 1e-9, None, float, "_StoreAction", "comparison tolerance (default 1e-9)"),
        (("-o", "--output"), "output", False, None, None, None, "_StoreAction", "write output to a file"),
    ]),
    ("analyze", "run all locality analyses", "_cmd_analyze", [
        (("--box",), "box", True, None, None, None, "_StoreAction", "box spec (see module help)"),
        (("--eps",), "eps", False, 1e-9, None, float, "_StoreAction", "comparison tolerance (default 1e-9)"),
        (("-o", "--output"), "output", False, None, None, None, "_StoreAction", "write output to a file"),
    ]),
    ("chsh", "correlations and CHSH combination", "_cmd_chsh", [
        (("--box",), "box", True, None, None, None, "_StoreAction", "box spec (see module help)"),
        (("--eps",), "eps", False, 1e-9, None, float, "_StoreAction", "comparison tolerance (default 1e-9)"),
        (("-o", "--output"), "output", False, None, None, None, "_StoreAction", "write output to a file"),
    ]),
    ("table1", "hidden-variable truth table", "_cmd_table1", [
        (("--format",), "format", False, None, ("json", "csv"), None, "_StoreAction", "output format"),
        (("-o", "--output"), "output", False, None, None, None, "_StoreAction", "write output to a file"),
    ]),
    ("sample", "seeded Monte Carlo sampling", "_cmd_sample", [
        (("--box",), "box", True, None, None, None, "_StoreAction", "box spec (see module help)"),
        (("--eps",), "eps", False, 1e-9, None, float, "_StoreAction", "comparison tolerance (default 1e-9)"),
        (("--format",), "format", False, None, ("json", "csv"), None, "_StoreAction", "output format"),
        (("-o", "--output"), "output", False, None, None, None, "_StoreAction", "write output to a file"),
        (("--seed",), "seed", True, None, None, int, "_StoreAction", "stream seed"),
        (("--trials",), "trials", True, None, None, int, "_StoreAction", "trials per setting pair"),
        (("--records",), "records", False, False, None, None, "_StoreTrueAction",
         "dump per-trial records (CSV only)"),
    ]),
    ("sweep", "hidden-variable distribution sweep", "_cmd_sweep", [
        (("--grid",), "grid", True, None, None, None, "_StoreAction", "p0 grid as start:stop:step"),
        (("--eps",), "eps", False, 1e-9, None, float, "_StoreAction", "comparison tolerance (default 1e-9)"),
        (("-o", "--output"), "output", False, None, None, None, "_StoreAction", "write output to a file"),
    ]),
]


def test_parser_surface():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (commands.dest, commands.required) == ("command", True)
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    surface = [
        (name, helps[name], sub.get_default("handler").__name__, [
            (tuple(a.option_strings), a.dest, a.required, a.default, a.choices, a.type,
             type(a).__name__, a.help)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        ])
        for name, sub in commands.choices.items()
    ]
    assert surface == PARSER_SURFACE
    assert sum(len(options) for *_, options in surface) == 21


# Each refused spec with its grammar error; a mix row's position counts from
# the start of the whole spec.
FIELD_GRAMMAR_ERRORS = [
    ("local:0,1,0", "local takes four comma-separated bits, got '0,1,0' (at position 6)"),
    ("local:0,1,0,1,1", "local takes four comma-separated bits, got '0,1,0,1,1' (at position 6)"),
    ("local:", "local takes four comma-separated bits, got '' (at position 6)"),
    ("local:0,2,0,1", "expected 0 or 1 for local response, got '2' (at position 8)"),
    ("local:0,1,,1", "expected 0 or 1 for local response, got '' (at position 10)"),
    ("local:1,1,1,01", "expected 0 or 1 for local response, got '01' (at position 12)"),
    ("singlet:0,1,2", "singlet takes four comma-separated angles, got '0,1,2' (at position 8)"),
    ("singlet:", "singlet takes four comma-separated angles, got '' (at position 8)"),
    ("singlet:0,1,2,3,4", "singlet takes four comma-separated angles, got '0,1,2,3,4' (at position 8)"),
    ("singlet:0,abc,2,3", "expected a number for angle, got 'abc' (at position 10)"),
    ("singlet:1.5,2,,3", "expected a number for angle, got '' (at position 14)"),
    ("singlet:0,1,2,3x", "expected a number for angle, got '3x' (at position 14)"),
    ("mix:pr@0.5+local:0,2,0,0@0.5", "expected 0 or 1 for local response, got '2' (at position 19)"),
    ("mix:@1", "unknown box spec '' (at position 4)"),
    ("mix:pr@0.5+nope@0.5", "unknown box spec 'nope' (at position 11)"),
    ("mix:pr@0.5+hv:q@0.5", "hv takes p0=<real>, got 'q' (at position 14)"),
    ("mix:pr@0.5+hv:p0=x@0.5", "expected a number for p0, got 'x' (at position 17)"),
    ("mix:singlet:0,1,2@0.5+pr@0.5", "singlet takes four comma-separated angles, got '0,1,2' (at position 12)"),
    ("mix:pr@0.5+singlet:0,abc,2,3@0.5", "expected a number for angle, got 'abc' (at position 21)"),
    ("mix:pr@0.5+file:@0.5", "file takes a path (at position 16)"),
    ("mix:pr@0.5+pr@x", "expected a number for weight, got 'x' (at position 14)"),
]

# More refused specs: the components refused inside the mix rows that no row
# names alone, and specs that are unknown as written.
MORE_REFUSED_SPECS = ["local:0,2,0,0", "nope", "hv:q", "hv:p0=x", "file:", "", "hv", "local", "pr:"]


class TestExitCodes:
    def test_unknown_spec_is_2(self, capsys):
        code, _, err = run(capsys, "chsh", "--box", "what")
        assert code == 2
        assert "unknown box spec" in err

    @pytest.mark.parametrize("spec, message", FIELD_GRAMMAR_ERRORS)
    def test_field_grammar_error_text(self, capsys, spec, message):
        code, out, err = run(capsys, "analyze", "--box", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("prefix", ["mix:", "mix:pr@0.5+", "mix:local:0,0,0,0@0.25+pr@0.25+"])
    @pytest.mark.parametrize(
        "spec",
        [spec for spec, _ in FIELD_GRAMMAR_ERRORS if not spec.startswith("mix:")] + MORE_REFUSED_SPECS,
    )
    def test_nested_spec_error_is_shifted_by_its_prefix(self, prefix, spec):
        def grammar_error(text):
            with pytest.raises(BoxSpecError) as err:
                parse_box_spec(text)
            position = err.value.position
            return str(err.value).removesuffix(f" (at position {position})"), position

        reason, position = grammar_error(spec)
        assert grammar_error(prefix + spec + "@0.5") == (reason, position + len(prefix))

    def test_grammar_error_is_2(self, capsys):
        code, _, _ = run(capsys, "chsh", "--box", "local:0,0,0")
        assert code == 2

    def test_semantic_error_is_3(self, capsys):
        code, _, err = run(capsys, "chsh", "--box", "mix:pr@0.5+pr@0.4")
        assert code == 3
        assert "0.9" in err

    def test_invalid_file_table_is_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        data = pr_box().to_dict()
        data["p"][0][0][0][0] = 0.9
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "chsh", "--box", f"file:{path}")
        assert code == 3

    def test_sample_validates_a_file_table_at_its_own_eps(self, capsys, tmp_path):
        # pair (0, 0) sums to 1 + 1e-7: valid at --eps 1e-6, not at the default eps
        path = tmp_path / "loose.json"
        data = pr_box().to_dict()
        data["p"][0][0][0][0] = 0.5 + 1e-7
        path.write_text(json.dumps(data))
        argv = ("sample", "--box", f"file:{path}", "--trials", "3", "--seed", "1")
        assert run(capsys, *argv)[0] == 3
        for extra in ((), ("--records",)):
            code, out, _ = run(capsys, *argv, "--eps", "1e-6", *extra)
            assert (code, out.startswith(("{", "x,y,lambda,a,b"))) == (0, True)

    def test_missing_file_is_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "chsh", "--box", f"file:{tmp_path}/absent.json")
        assert code == 4

    def test_unwritable_output_is_4(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "chsh", "--box", "pr", "-o", str(tmp_path / "no" / "dir" / "f.json")
        )
        assert code == 4

    def test_bad_eps_is_3(self, capsys):
        code, _, _ = run(capsys, "chsh", "--box", "pr", "--eps", "0")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--box", "local:0,0,0,0"],
            ["analyze", "--box", "pr"],
            ["chsh", "--box", "pr"],
            ["sample", "--box", "pr", "--seed", "1", "--trials", "3"],
            ["sweep", "--grid", "0:1:0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("eps", ["inf", "-inf", "nan", "0", "-1"])
    def test_eps_not_positive_and_finite_is_3(self, capsys, argv, eps):
        code, out, err = run(capsys, *argv, f"--eps={eps}")
        assert (code, out) == (3, "")
        assert "eps must be positive and finite" in err

    def test_build_of_an_invalid_table_is_3(self, capsys):
        # each weight is within eps of nonnegative, yet cell (1, 1, 0, 0) is -0.5
        spec = "mix:pr@1.5+local:0,0,0,0@-0.25+local:0,0,0,0@-0.25"
        code, out, err = run(capsys, "build", "--box", spec, "--eps", "0.3")
        assert (code, out) == (3, "")
        assert "table fails validation: entry out of [0, 1] at (x=1, y=1, a=0, b=0)" in err

    def test_bad_grid_is_3(self, capsys):
        code, _, _ = run(capsys, "sweep", "--grid", "0:1")
        assert code == 3

    @pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1e300:1"])
    def test_unbounded_grid_is_3(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--grid", grid)
        assert code == 3
        assert out == ""
        assert "more than 1000000 points" in err

    def test_grid_bound_is_exact(self):
        assert _parse_grid("0:999999:1")[1] == 10**6
        with pytest.raises(ValueError, match="more than"):
            _parse_grid("0:1000000:1")

    @pytest.mark.parametrize(
        "grid", ["0:1:0.25", "0:1:0.1", "0.05:0.95:0.05", "-1:1:0.3", "0:1:0.001", "2:2:1"]
    )
    def test_grid_values_unchanged(self, grid):
        # the grid rule as it stood before the point bound
        start, stop, step = (float(v) for v in grid.split(":"))
        expected, k = [], 0
        while (value := round(start + k * step, 12)) <= stop + step * 1e-9:
            expected.append(value)
            k += 1
        assert repr(grid_values(grid)) == repr(expected)

    def test_csv_rejected_for_json_only_commands(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--box", "pr", "--format", "csv"])
        assert err.value.code == 2

    def test_table1_takes_no_eps(self):
        with pytest.raises(SystemExit) as err:
            main(["table1", "--eps", "1e-3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "chsh", "build"])
    @pytest.mark.parametrize("spec", ["hv:p0=nan", "mix:pr@nan+local:0,0,0,0@0.5"])
    def test_non_finite_spec_is_3(self, capsys, command, spec):
        code, out, err = run(capsys, command, "--box", spec)
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_non_finite_file_table_is_3(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        data = pr_box().to_dict()
        data["p"][0][0][0][1] = float("nan")
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "analyze", "--box", f"file:{path}")
        assert code == 3
        assert "non-finite" in err

    @pytest.mark.parametrize("grid", ["0:nan:0.1", "nan:1:0.1", "0:1:inf"])
    def test_non_finite_grid_is_3(self, capsys, grid):
        code, _, err = run(capsys, "sweep", "--grid", grid)
        assert code == 3
        assert "finite" in err

    def test_json_output_rejects_nan(self):
        with pytest.raises(ValueError):
            _json_dumps({"s": float("nan")})

    def test_string_file_table_is_3(self, capsys, tmp_path):
        path = tmp_path / "strings.json"
        data = pr_box().to_dict()
        data["p"] = np.array(data["p"]).astype(str).tolist()
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "chsh", "--box", f"file:{path}")
        assert code == 3

    def test_missing_required_flags_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--box", "pr"])
        assert err.value.code == 2

    def test_bad_trials_is_3(self, capsys):
        code, _, _ = run(
            capsys, "sample", "--box", "pr", "--trials", "0", "--seed", "1"
        )
        assert code == 3


class TestSampleMatchesTheLibrary:
    @pytest.mark.parametrize(
        "spec",
        ["pr", "local:0,1,1,0", "hv:p0=0.3",
         "singlet:0,1.5707963267948966,0.7853981633974483,2.356194490192345",
         "mix:pr@0.7+local:0,0,0,0@0.3"],
    )
    def test_counts_csv_and_records(self, capsys, spec):
        obj = parse_box_spec(spec)
        if isinstance(obj, HVModel):
            sample, sample_records = sample_hv, sample_hv_records
        else:
            sample, sample_records = sample_box, sample_box_records
        table = sample(obj, 300, 11)
        argv = ("sample", "--box", spec, "--trials", "300", "--seed", "11")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {
            "label": obj.label,
            "seed": 11,
            "trials_per_setting": table.trials_per_setting.tolist(),
            "counts": table.counts.tolist(),
        }
        assert run(capsys, *argv, "--format", "csv") == (0, table.to_csv(), "")
        records = records_to_csv(sample_records(obj, 300, 11))
        assert run(capsys, *argv, "--records") == (0, records, "")


def walked_grid(start, stop, step, limit):
    """The grid rule as a walk, or None past ``limit`` points."""
    values = []
    while (value := round(start + len(values) * step, 12)) <= stop + step * 1e-9:
        if len(values) == limit:
            return None
        values.append(value)
    return values


class TestSweepChecksTheEndsFirst:
    """The grid's two ends bound every point, so a refused grid builds one or
    two LambdaDist objects and names the grid and the point it refuses."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class CountingLambdaDist(LambdaDist):
            def __post_init__(self):
                built.append(self.p0)
                super().__post_init__()

        monkeypatch.setattr("prbox.cli.LambdaDist", CountingLambdaDist)
        return built

    @pytest.mark.parametrize(
        "grid, point, built_before_error",
        [("0:1.5:0.001", "1.5", [0.0, 1.5]), ("-0.5:1:0.25", "-0.5", [-0.5]), ("0:2:1", "2.0", [0.0, 2.0])],
    )
    def test_refused_grid(self, capsys, built, grid, point, built_before_error):
        code, out, err = run(capsys, "sweep", f"--grid={grid}")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: grid {grid!r} has point p0 = {point}: lambda probabilities")
        assert built == built_before_error

    def test_accepted_grid_checks_its_ends_then_builds_every_point(self, capsys, built):
        code, out, _ = run(capsys, "sweep", "--grid", "0:1:0.25")
        assert code == 0
        assert [point["p0"] for point in json.loads(out)] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert built == [0.0, 1.0, 0.0, 0.25, 0.5, 0.75, 1.0]


class TestGridWithoutWalking:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        evaluated = []

        def counting_round(value, digits):
            evaluated.append(value)
            return round(value, digits)

        monkeypatch.setattr("prbox.cli.round", counting_round, raising=False)
        return evaluated

    def test_refused_grid_is_not_walked(self, evaluated):
        with pytest.raises(ValueError, match="more than 1000000 points"):
            _parse_grid("0:1:1e-300")
        assert 0 < len(evaluated) <= 64

    def test_refused_sweep_rounds_only_the_count_and_the_ends(self, capsys, evaluated):
        code, out, err = run(capsys, "sweep", "--grid", "0:999999:1")
        assert (code, out) == (3, "")
        assert err.startswith("error: grid '0:999999:1' has point p0 = 999999.0: ")
        assert 0 < len(evaluated) <= 64 + 2

    @given(
        start=st.floats(-1e3, 1e3),
        step=st.one_of(st.floats(1e-15, 1e-9), st.floats(1e-9, 1e3)),
        points=st.integers(-20, 5000),
        offset=st.floats(-1, 1),
    )
    @example(start=0.0, step=1e-13, points=5000, offset=0.0)
    @example(start=-0.5, step=0.1, points=10, offset=0.0)
    @example(start=1.0, step=0.1, points=-3, offset=0.0)
    def test_grid_matches_the_walk(self, start, step, points, offset):
        stop = start + (points + offset) * step
        expected = walked_grid(start, stop, step, limit=20_000)
        assume(expected is not None)
        text = f"{start!r}:{stop!r}:{step!r}"
        if not expected:
            with pytest.raises(ValueError, match="contains no points"):
                _parse_grid(text)
        else:
            assert repr(grid_values(text)) == repr(expected)
