import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_box
from prbox import (
    BoxFormatError,
    BoxTable,
    HVModel,
    LambdaDist,
    ValidationIssue,
    all_deterministic_boxes,
    conditional,
    conditional_b,
    convex_mix,
    deterministic_local_box,
    from_json,
    hv_to_box,
    lambda_sweep,
    locality_report,
    marginal_a,
    marginal_b,
    pr_box,
    pr_constraint_holds,
    to_json,
    uniform_box,
    validate,
)

EPS = 1e-9
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


class TestFiniteByConstruction:
    """BoxTable owns the finite rule, so every way of building a table refuses
    a NaN or infinite entry and names the first one in (x, y, a, b) order."""

    @given(
        st.lists(FINITE_FLOATS, min_size=16, max_size=16),
        st.dictionaries(st.integers(0, 15), st.sampled_from([math.nan, math.inf, -math.inf])),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_finite_entry_refused_by_every_constructor(self, entries, bad):
        for k, value in bad.items():
            entries[k] = value
        p = np.array(entries).reshape(2, 2, 2, 2)
        if not bad:
            assert BoxTable(p, "t").p.tobytes() == p.tobytes()
            return
        x, y, a, b = np.unravel_index(min(bad), (2, 2, 2, 2))
        message = f"box 't': non-finite entry at (x={x}, y={y}, a={a}, b={b}): {bad[min(bad)]}"
        data = {"label": "t", "p": p.tolist()}
        calls = [(BoxTable, p, "t"), (BoxTable.from_dict, data), (from_json, json.dumps(data))]
        for build, *args in calls:
            with pytest.raises(BoxFormatError, match=f"^{re.escape(message)}$"):
                build(*args)


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
        # no table holds a non-finite entry, so validate never meets one
        p = pr_box().p.copy()
        p[1, 1, 0, 1] = bad
        with pytest.raises(BoxFormatError, match=r"non-finite entry at \(x=1, y=1, a=0, b=1\)"):
            BoxTable(p)

    def test_issue_order_normalization_then_cells(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 1, 1, 0] = 1.5
        p[1, 0, 0, 1] = -0.5
        kinds = [(i.kind, i.x, i.y, i.a, i.b) for i in validate(BoxTable(p)).issues]
        assert kinds == [
            ("normalization", 1, 0, None, None),
            ("normalization", 1, 1, None, None),
            ("range", 1, 0, 0, 1),
            ("range", 1, 1, 1, 0),
        ]

    def test_bad_shape_rejected_at_construction(self):
        with pytest.raises(BoxFormatError):
            BoxTable(np.zeros((2, 2, 2)))

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            validate(pr_box(), eps=0.0)


# Each call would answer at eps = inf: every comparison |lhs - rhs| > eps fails,
# so a table of 7s validates and every locality verdict holds.
EPS_CALLS = {
    "validate": lambda eps: validate(BoxTable(np.full((2, 2, 2, 2), 7.0)), eps),
    "locality_report": lambda eps: locality_report(pr_box(), eps),
    "lambda_sweep": lambda eps: lambda_sweep([LambdaDist(0.2, 0.8)], eps),
    "convex_mix": lambda eps: convex_mix([pr_box()], [5.0], eps),
    "from_json": lambda eps: from_json(to_json(pr_box()), eps),
    "pr_constraint_holds": lambda eps: pr_constraint_holds(uniform_box(), eps),
    "allclose": lambda eps: pr_box().allclose(uniform_box(), eps),
    "conditional": lambda eps: conditional(pr_box(), 0, 0, 0, 0, eps),
}


@pytest.mark.parametrize("eps", [math.inf, -math.inf, 0.0, -1.0, math.nan], ids=repr)
@pytest.mark.parametrize("name", sorted(EPS_CALLS))
def test_eps_must_be_positive_and_finite(name, eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        EPS_CALLS[name](eps)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_constraint_rejects_non_finite(self, value):
        # nan > eps and -inf > eps are False, so such a table would pass unchecked
        with pytest.raises(ValueError, match="non-finite"):
            pr_constraint_holds(BoxTable(np.full((2, 2, 2, 2), value)))

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

    def test_stack_equals_per_cell_construction(self):
        # reference: set the one cell (x, y, f[x], g[y]) per setting pair
        boxes = all_deterministic_boxes()
        for box, (f0, f1, g0, g1) in zip(boxes, np.ndindex(2, 2, 2, 2)):
            p = np.zeros((2, 2, 2, 2))
            for x, y in np.ndindex(2, 2):
                p[x, y, (f0, f1)[x], (g0, g1)[y]] = 1.0
            assert np.array_equal(box.p, p)
            assert box.label == f"local:{f0},{f1},{g0},{g1}"
            single = deterministic_local_box((f0, f1), (g0, g1))
            assert np.array_equal(single.p, p) and single.label == box.label


def constant_boxes():
    return [pr_box(), uniform_box(), *all_deterministic_boxes()]


class TestSharedConstantBoxes:
    """The constant boxes are built once and shared; nothing a caller does to
    what it is handed changes what the next caller gets."""

    def test_each_call_returns_a_new_list(self):
        first, second = all_deterministic_boxes(), all_deterministic_boxes()
        assert first is not second
        labels = [box.label for box in first]
        first.reverse()
        first[0] = pr_box()
        del first[1:]
        third = all_deterministic_boxes()
        assert [box.label for box in third] == labels
        assert labels == [f"local:{f0},{f1},{g0},{g1}" for f0, f1, g0, g1 in np.ndindex(2, 2, 2, 2)]
        assert all(map(operator.is_, third, second))

    def test_single_strategy_is_the_listed_box(self):
        boxes = all_deterministic_boxes()
        for k, (f0, f1, g0, g1) in enumerate(np.ndindex(2, 2, 2, 2)):
            assert deterministic_local_box((f0, f1), (g0, g1)) is boxes[k]

    def test_arrays_are_read_only(self):
        for box in constant_boxes():
            assert not box.p.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                box.p[0, 0, 0, 0] = 0.5
            with pytest.raises(AttributeError):
                box.label = "changed"

    def test_labels_and_values(self):
        support = np.fromfunction(lambda x, y, a, b: (a + b) % 2 == x * y, (2, 2, 2, 2))
        pr, uniform, *local = constant_boxes()
        assert pr.label == "pr" and np.array_equal(pr.p, np.where(support, 0.5, 0.0))
        assert uniform.label == "uniform" and np.array_equal(uniform.p, np.full((2, 2, 2, 2), 0.25))
        for box in constant_boxes():
            assert box.p.dtype == np.float64 and box.p.shape == (2, 2, 2, 2)
            assert validate(box).ok
            assert from_json(to_json(box)).p.tobytes() == box.p.tobytes()

    def test_derived_tables_leave_the_shared_ones_alone(self):
        relabeled = pr_box().relabel("mine")
        assert relabeled is not pr_box() and relabeled.p is not pr_box().p
        assert pr_box().label == "pr"
        mixed = convex_mix([pr_box(), uniform_box()], [0.5, 0.5])
        assert not np.shares_memory(mixed.p, pr_box().p)
        assert np.array_equal(pr_box().p, np.where(pr_box().p > 0, 0.5, 0.0))

    @pytest.mark.parametrize(
        ("p", "label", "message"),
        [
            (np.where(np.eye(16, dtype=bool)[3].reshape(2, 2, 2, 2), np.nan, 0.25), "x",
             "non-finite entry"),
            (np.full((2, 2, 4), 0.25), "x", "shape"),
            (np.full((2, 2, 2, 2), 0.25), 7, "label must be a string"),
        ],
        ids=["nan", "shape", "label"],
    )
    def test_user_tables_still_checked(self, p, label, message):
        with pytest.raises(BoxFormatError, match=message):
            BoxTable(p, label)
        with pytest.raises(BoxFormatError, match=message):
            BoxTable.from_dict({"label": label, "p": p.tolist()})


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

    @pytest.mark.parametrize(
        "weights", [(math.nan, 0.5), (0.5, -math.inf), (2.0, -1.0), (0.5, 0.6), ("0.5", 0.5)]
    )
    def test_lambda_dist_applies_the_same_rule(self, weights):
        with pytest.raises((ValueError, TypeError)) as mixed:
            convex_mix([pr_box(), uniform_box()], weights)
        with pytest.raises(type(mixed.value)) as dist:
            LambdaDist(*weights)
        assert str(dist.value).replace("lambda probabilities", "weights") == str(mixed.value)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_mix_of_valid_tables_is_valid(self, seed, w):
        rng = np.random.default_rng(seed)
        mixed = convex_mix([random_box(rng), random_box(rng)], [w, 1.0 - w])
        assert validate(mixed).ok

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_mixture_bits_are_the_running_sum(self, seed, n, p0):
        # the reference: a running sum over the boxes, in their order
        rng = np.random.default_rng(seed)
        boxes = [random_box(rng) for _ in range(n)]
        w = rng.dirichlet(np.ones(n))
        p = np.zeros((2, 2, 2, 2))
        for weight, box in zip(w, boxes):
            p += weight * box.p
        assert convex_mix(boxes, w).p.tobytes() == p.tobytes()
        # a model's lambda-boxes, one-hot at the outcomes its responses give
        r = rng.integers(0, 2, size=(2, 2, 2, 2))  # [party, x, y, lambda]
        m = HVModel(lambda x, y, lam: r[0, x, y, lam], lambda x, y, lam: r[1, x, y, lam],
                    LambdaDist.from_p0(p0))
        a, b = np.indices((2, 2))
        lam_boxes = [((a == r[0, ..., lam, None, None]) & (b == r[1, ..., lam, None, None])) * 1.0
                     for lam in (0, 1)]
        expected = m.dist.p0 * lam_boxes[0] + m.dist.p1 * lam_boxes[1]
        assert hv_to_box(m).p.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("read", [conditional, conditional_b])
    def test_bad_bit_refused_where_undefined(self, read):
        # P(B=1 | 0, 0) = P(A=1 | 0, 0) = 0: the answer would be None, but a = 5 is no bit
        with pytest.raises(ValueError, match="^a must be 0 or 1, got 5$"):
            read(deterministic_local_box((0, 0), (0, 0)), 0, 0, 5, 1)

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


def reader_tables():
    """The constant boxes; a table with -0.0 entries whose conditioning marginals
    sit exactly at 1e-9; and sparse tables, the constant boxes with ±1e-11 noise."""
    edge = np.full((2, 2, 2, 2), 0.25)
    edge[0, 0] = [[1.0 - 1e-9, -0.0], [-0.0, 1e-9]]  # P(A=1) = P(B=1) = 1e-9
    edge[0, 1] = [[0.5, 0.5], [-0.0, -0.0]]  # P(A=1) from two -0.0
    edge[1, 1] = [[0.5, 0.5 - 1e-9], [1e-9, -0.0]]
    rng = np.random.default_rng(11)
    sparse = [
        BoxTable(box.p + np.where(rng.random(16) < 0.3, rng.choice([-1e-11, 1e-11], 16), 0.0)
                 .reshape(2, 2, 2, 2), f"{box.label}+noise")
        for box in constant_boxes()
    ]
    return [*constant_boxes(), BoxTable(edge, "edge"), *sparse]


class TestReaderBits:
    """Each per-cell reader gives the bits of its per-cell formula: a marginal
    is the sum over the other outcome, a conditional p / P(other | x, y), or
    None when P(other | x, y) <= eps."""

    @staticmethod
    def bits(value):
        return None if value is None else value.hex()

    @pytest.mark.parametrize("box", reader_tables(), ids=lambda box: box.label)
    def test_readers_equal_the_cell_formula(self, box):
        p = box.p
        for x, y, o in np.ndindex(2, 2, 2):
            assert marginal_a(box, x, y, o).hex() == math.fsum(p[x, y, o, :]).hex()
            assert marginal_b(box, x, y, o).hex() == math.fsum(p[x, y, :, o]).hex()
        for eps in (EPS, 1e-3):
            for x, y, a, b in np.ndindex(2, 2, 2, 2):
                mb, ma = math.fsum(p[x, y, :, b]), math.fsum(p[x, y, a, :])
                cell = float(p[x, y, a, b])
                assert self.bits(conditional(box, x, y, a, b, eps)) == (
                    (cell / mb).hex() if mb > eps else None)
                assert self.bits(conditional_b(box, x, y, a, b, eps)) == (
                    (cell / ma).hex() if ma > eps else None)


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

    @pytest.mark.parametrize("label", [None, ["a"], 3], ids=["none", "list", "int"])
    def test_non_string_label_rejected(self, label):
        with pytest.raises(BoxFormatError, match="label must be a string"):
            BoxTable(pr_box().p, label)
        with pytest.raises(BoxFormatError, match="label must be a string"):
            BoxTable.from_dict({"label": label, "p": pr_box().p.tolist()})

    @pytest.mark.parametrize("p", [[[0.5, 0.5]], np.zeros((2, 2, 2, 2, 1)).tolist()])
    def test_shape_message_names_the_nesting(self, p):
        nesting = r"nested \[x\]\[y\]\[a\]\[b\] with two values per level"
        with pytest.raises(BoxFormatError, match=nesting):
            BoxTable(np.array(p))
        with pytest.raises(BoxFormatError, match=nesting):
            BoxTable.from_dict({"p": p})

    def test_missing_table_rejected(self):
        with pytest.raises(BoxFormatError):
            BoxTable.from_dict({"label": "no table"})

    def test_invalid_json_text(self):
        with pytest.raises(BoxFormatError):
            from_json("{not json")


def reference_issues(t, eps):
    """Validation issues by a per-cell loop, in (x, y, a, b) order, normalization first."""
    totals = t.p.sum(axis=(2, 3))
    issues = [
        ValidationIssue("normalization", x, y, None, None, float(totals[x, y]))
        for x, y in np.ndindex(2, 2)
        if abs(totals[x, y] - 1.0) > eps
    ]
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        value = float(t.p[x, y, a, b])
        if value < -eps or value > 1.0 + eps:
            issues.append(ValidationIssue("range", x, y, a, b, value))
    return issues


ROWS = [(0.25, 0.25, 0.25, 0.25), (1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 0.0)]


@st.composite
def edge_tables(draw):
    """Tables near the validation bounds: with eps = 2**-10 every entry and sum
    below is exact, so entries and sums land exactly on -eps, 1 + eps and 1 +- eps."""
    eps = draw(st.sampled_from([2.0**-10, 1e-9, 0.2]))
    nudges = [0.0, eps, -eps, 2 * eps, -2 * eps]
    replacements = [-eps, 1.0 + eps, -2 * eps, 1.0 + 2 * eps, -0.0, 5e-324, 1e300, -1e300]
    p = np.array([draw(st.sampled_from(ROWS)) for _ in range(4)]).reshape(2, 2, 2, 2)
    for cell in np.ndindex(2, 2, 2, 2):
        kind = draw(st.integers(0, 9))
        if kind == 8:
            p[cell] += draw(st.sampled_from(nudges))
        elif kind == 9:
            p[cell] = draw(st.sampled_from(replacements))
    return BoxTable(p, "edge"), eps


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e300, 0.1]
)
LABELS = st.text(st.sampled_from('"\\{}%s\n\t\x00\x1f\x7fé☃\U0001f600 ,:[]') | st.characters())


class TestFastPaths:
    """validate's shared all-clear agrees with the loop it short-cuts, and
    to_json keeps the bytes of the indented encoder."""

    @given(edge_tables())
    @settings(max_examples=300, deadline=None)
    def test_validate_equals_the_loop_reference(self, table_eps):
        table, eps = table_eps
        result = validate(table, eps)
        reference = reference_issues(table, eps)
        assert repr(list(result.issues)) == repr(reference)
        assert result.ok == (not reference)

    def test_bounds_are_inclusive(self):
        eps = 2.0**-10
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] += eps  # sum exactly 1 + eps
        p[0, 1, 0, 0] -= eps  # sum exactly 1 - eps
        p[1, 0] = [[-eps, 0.5], [0.5 - eps, 0.0]]  # -eps entry, sum 1 - 2 eps
        p[1, 1] = [[1.0 + eps, 0.0], [-eps, 0.0]]  # 1 + eps entry, sum exactly 1
        issues = validate(BoxTable(p), eps).issues
        assert [(i.kind, i.x, i.y) for i in issues] == [("normalization", 1, 0)]

    @given(st.lists(FINITE_FLOATS | SPECIAL_FLOATS, min_size=16, max_size=16), LABELS)
    @settings(max_examples=300, deadline=None)
    def test_to_json_equals_the_indented_encoder(self, entries, label):
        table = BoxTable(np.array(entries).reshape(2, 2, 2, 2), label)
        assert to_json(table) == json.dumps(table.to_dict(), indent=2)

    @given(LABELS)
    @settings(max_examples=200, deadline=None)
    def test_string_labels_survive_the_round_trip(self, label):
        again = from_json(to_json(BoxTable(pr_box().p, label)))
        assert again.label == label
        assert np.array_equal(again.p, pr_box().p)
