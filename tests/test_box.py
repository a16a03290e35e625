import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_box
from prbox import (
    BoxFormatError,
    BoxTable,
    all_deterministic_boxes,
    conditional,
    conditional_b,
    convex_mix,
    deterministic_local_box,
    from_json,
    marginal_a,
    marginal_b,
    pr_box,
    pr_constraint_holds,
    to_json,
    uniform_box,
    validate,
)

EPS = 1e-9


class TestValidate:
    def test_constructors_are_valid(self):
        for box in [pr_box(), uniform_box(), *all_deterministic_boxes()]:
            assert validate(box).ok, box.label

    def test_normalization_violation_reported_with_sum(self):
        p = np.zeros((2, 2, 2, 2))
        p[:, :] = 0.25
        p[0, 0] = 0.0
        p[0, 0, 0, 0] = 0.6
        p[0, 0, 1, 1] = 0.6
        result = validate(BoxTable(p))
        assert not result.ok
        issue = result.issues[0]
        assert issue.kind == "normalization"
        assert (issue.x, issue.y) == (0, 0)
        assert issue.value == pytest.approx(1.2)

    def test_negative_entry_reported(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 0, 1, 1] = -0.1
        p[1, 0, 0, 0] = 0.6
        result = validate(BoxTable(p))
        kinds = {i.kind for i in result.issues}
        assert "range" in kinds
        range_issue = [i for i in result.issues if i.kind == "range"][0]
        assert (range_issue.x, range_issue.y, range_issue.a, range_issue.b) == (1, 0, 1, 1)
        assert range_issue.value == pytest.approx(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_reported(self, bad):
        p = pr_box().p.copy()
        p[1, 1, 0, 1] = bad
        result = validate(BoxTable(p))
        assert not result.ok
        issue = [i for i in result.issues if i.kind == "non_finite"]
        assert len(issue) == 1
        assert (issue[0].x, issue[0].y, issue[0].a, issue[0].b) == (1, 1, 0, 1)
        assert "non-finite entry at (x=1, y=1, a=0, b=1)" in str(issue[0])
        assert not any(i.kind == "range" for i in result.issues)

    def test_issue_order_normalization_then_cells(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 1, 1, 0] = 1.5
        p[0, 1, 0, 0] = np.nan
        p[1, 0, 0, 1] = -0.5
        kinds = [(i.kind, i.x, i.y, i.a, i.b) for i in validate(BoxTable(p)).issues]
        assert kinds == [
            ("normalization", 1, 0, None, None),
            ("normalization", 1, 1, None, None),
            ("non_finite", 0, 1, 0, 0),
            ("range", 1, 0, 0, 1),
            ("range", 1, 1, 1, 0),
        ]

    def test_bad_shape_rejected_at_construction(self):
        with pytest.raises(BoxFormatError):
            BoxTable(np.zeros((2, 2, 2)))

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            validate(pr_box(), eps=0.0)


class TestPrBox:
    def test_allowed_cells_have_weight_half(self):
        box = pr_box()
        assert box.prob(0, 0, 0, 0) == 0.5
        assert box.prob(1, 1, 0, 1) == 0.5

    def test_forbidden_cell_is_zero(self):
        assert pr_box().prob(0, 0, 0, 1) == 0.0

    def test_pointwise_constraint_on_all_cells(self):
        box = pr_box()
        for x, y, a, b in np.ndindex(2, 2, 2, 2):
            if box.prob(x, y, a, b) > 0:
                assert (a + b) % 2 == x * y
        assert pr_constraint_holds(box)

    def test_table_is_immutable(self):
        box = pr_box()
        with pytest.raises(ValueError):
            box.p[0, 0, 0, 0] = 1.0


class TestDeterministicLocalBox:
    def test_constant_zero_strategy(self):
        box = deterministic_local_box((0, 0), (0, 0))
        for x, y in np.ndindex(2, 2):
            assert box.prob(x, y, 0, 0) == 1.0

    def test_identity_and_constant_one(self):
        box = deterministic_local_box((0, 1), (1, 1))
        for y in (0, 1):
            assert box.prob(1, y, 1, 1) == 1.0

    def test_label_records_responses(self):
        assert deterministic_local_box((0, 1), (1, 0)).label == "local:0,1,1,0"

    def test_sixteen_strategies(self):
        boxes = all_deterministic_boxes()
        assert len(boxes) == 16
        assert len({b.label for b in boxes}) == 16

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            deterministic_local_box((0, 2), (0, 0))


class TestConvexMix:
    def test_identity_mix(self):
        box = pr_box()
        assert convex_mix([box], [1.0]).allclose(box)

    def test_half_half_is_entrywise_average(self):
        b1 = deterministic_local_box((0, 0), (0, 0))
        b2 = deterministic_local_box((1, 1), (1, 1))
        mixed = convex_mix([b1, b2], [0.5, 0.5])
        expected = (b1.p + b2.p) / 2
        assert np.array_equal(mixed.p, expected)

    def test_equal_mix_of_all_strategies_is_uniform(self):
        # independent oracle: accumulate the 16 point-mass tables by hand
        total = np.zeros((2, 2, 2, 2))
        for f0, f1, g0, g1 in np.ndindex(2, 2, 2, 2):
            f = (f0, f1)
            g = (g0, g1)
            for x, y in np.ndindex(2, 2):
                total[x, y, f[x], g[y]] += 1.0
        oracle = total / 16.0
        assert np.allclose(oracle, 0.25)

        mixed = convex_mix(all_deterministic_boxes(), [1 / 16] * 16)
        assert np.max(np.abs(mixed.p - oracle)) <= EPS
        assert mixed.allclose(uniform_box())

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            convex_mix([], [])

    def test_weight_sum_error_reports_value(self):
        with pytest.raises(ValueError, match="0.9"):
            convex_mix([pr_box(), uniform_box()], [0.5, 0.4])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            convex_mix([pr_box(), uniform_box()], [1.5, -0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convex_mix([pr_box()], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            convex_mix([pr_box(), uniform_box()], [bad, 0.5])

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_mix_of_valid_tables_is_valid(self, seed, w):
        rng = np.random.default_rng(seed)
        mixed = convex_mix([random_box(rng), random_box(rng)], [w, 1.0 - w])
        assert validate(mixed).ok


class TestMarginals:
    def test_pr_marginals_are_half(self):
        box = pr_box()
        for x, y, a in np.ndindex(2, 2, 2):
            # oracle: explicit sum over the partner outcome
            oracle = sum(box.prob(x, y, a, b) for b in (0, 1))
            assert oracle == 0.5
            assert marginal_a(box, x, y, a) == oracle
        for x, y, b in np.ndindex(2, 2, 2):
            assert marginal_b(box, x, y, b) == 0.5

    def test_deterministic_marginal_is_point_mass(self):
        box = deterministic_local_box((0, 1), (1, 0))
        f = (0, 1)
        for x, y in np.ndindex(2, 2):
            assert marginal_a(box, x, y, f[x]) == 1.0
            assert marginal_a(box, x, y, 1 - f[x]) == 0.0

    def test_uniform_marginals(self):
        box = uniform_box()
        for x, y, a in np.ndindex(2, 2, 2):
            assert marginal_a(box, x, y, a) == 0.5


class TestConditional:
    def test_pr_conditioning_fixes_the_outcome(self):
        box = pr_box()
        assert conditional(box, 0, 0, 0, 0) == pytest.approx(1.0)
        assert conditional(box, 1, 1, 0, 1) == pytest.approx(1.0)

    def test_zero_probability_event_is_undefined(self):
        box = deterministic_local_box((0, 0), (1, 0))
        g = (1, 0)
        for x, y in np.ndindex(2, 2):
            assert conditional(box, x, y, 0, 1 - g[y]) is None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_identity(self, seed):
        box = random_box(np.random.default_rng(seed))
        for x, y, a, b in np.ndindex(2, 2, 2, 2):
            c = conditional(box, x, y, a, b)
            if c is not None:
                assert c * marginal_b(box, x, y, b) == pytest.approx(
                    box.prob(x, y, a, b), abs=1e-12
                )
            cb = conditional_b(box, x, y, a, b)
            if cb is not None:
                assert cb * marginal_a(box, x, y, a) == pytest.approx(
                    box.prob(x, y, a, b), abs=1e-12
                )


class TestSerialization:
    def test_round_trip_is_exact(self):
        for box in [pr_box(), uniform_box(), deterministic_local_box((0, 1), (1, 0))]:
            again = from_json(to_json(box))
            assert np.array_equal(again.p, box.p)
            assert again.label == box.label

    def test_nested_layout_is_x_y_a_b(self):
        data = json.loads(to_json(pr_box()))
        assert data["p"][0][0][0][0] == 0.5
        assert data["p"][0][0][0][1] == 0.0
        assert data["p"][1][1][0][1] == 0.5

    def test_deserialization_revalidates(self):
        data = pr_box().to_dict()
        data["p"][0][0][0][0] = 0.9
        with pytest.raises(BoxFormatError):
            BoxTable.from_dict(data)

    def test_malformed_shape_rejected(self):
        with pytest.raises(BoxFormatError):
            BoxTable.from_dict({"label": "bad", "p": [[0.5, 0.5]]})

    def test_non_numeric_rejected(self):
        data = pr_box().to_dict()
        data["p"][0][0][0][0] = "x"
        with pytest.raises(BoxFormatError):
            BoxTable.from_dict(data)

    @pytest.mark.parametrize(
        "table",
        [
            np.where(pr_box().p > 0, "0.5", "0").tolist(),
            (deterministic_local_box((0, 1), (1, 0)).p > 0).tolist(),
        ],
        ids=["strings", "bools"],
    )
    def test_string_and_bool_entries_rejected(self, table):
        # both tables would be valid if their entries were read as floats
        with pytest.raises(BoxFormatError, match="JSON numbers"):
            BoxTable.from_dict({"p": table})

    def test_missing_table_rejected(self):
        with pytest.raises(BoxFormatError):
            BoxTable.from_dict({"label": "no table"})

    def test_invalid_json_text(self):
        with pytest.raises(BoxFormatError):
            from_json("{not json")
