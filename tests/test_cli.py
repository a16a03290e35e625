import json

import numpy as np
import pytest

from prbox import (
    HVModel,
    LambdaDist,
    convex_mix,
    deterministic_local_box,
    hv_to_box,
    pr_box,
    pr_hv_model,
)
from prbox.cli import BoxSpecError, _json_dumps, main, parse_box_spec
from prbox.hidden_variable import truth_table_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "CSV" in err

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


class TestExitCodes:
    def test_unknown_spec_is_2(self, capsys):
        code, _, err = run(capsys, "chsh", "--box", "what")
        assert code == 2
        assert "unknown box spec" in err

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

    def test_bad_grid_is_3(self, capsys):
        code, _, _ = run(capsys, "sweep", "--grid", "0:1")
        assert code == 3

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
