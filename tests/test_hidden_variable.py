import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbox import (
    HVModel,
    LambdaDist,
    correlation,
    hv_dependence,
    hv_to_box,
    lambda_sweep,
    pr_box,
    pr_constraint_holds,
    pr_hv_model,
    truth_table,
    truth_table_csv,
    validate,
)

GOLDEN_ROWS = [
    (0, 0, 0, 0, 0),
    (0, 0, 1, 1, 1),
    (1, 0, 0, 1, 1),
    (1, 0, 1, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 1, 1, 1, 1),
    (1, 1, 0, 1, 0),
    (1, 1, 1, 0, 1),
]

GOLDEN_CSV = "x,y,lambda,a,b\n" + "\n".join(
    ",".join(str(v) for v in row) for row in GOLDEN_ROWS
) + "\n"


def oracle_lambda_average(p0):
    """Independent marginalization: weight each lambda row directly."""
    dist = (p0, 1.0 - p0)
    p = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for lam in (0, 1):
                a = (x + lam) % 2
                b = (x + lam - x * y) % 2
                p[x, y, a, b] += dist[lam]
    return p


class TestLambdaDist:
    def test_from_p0(self):
        dist = LambdaDist.from_p0(0.3)
        assert dist.p0 == 0.3
        assert dist.p1 == 0.7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LambdaDist(-0.1, 1.1)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            LambdaDist(0.5, 0.6)

    @pytest.mark.parametrize("p0", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, p0):
        with pytest.raises(ValueError, match="finite"):
            LambdaDist.from_p0(p0)

    def test_prob_accessor(self):
        dist = LambdaDist(0.25, 0.75)
        assert dist.prob(0) == 0.25
        assert dist.prob(1) == 0.75
        with pytest.raises(ValueError):
            dist.prob(2)


class TestModelResponses:
    def test_known_input_triples(self):
        m = pr_hv_model(LambdaDist.from_p0(0.5))
        assert (m.respond_a(1, 1, 0), m.respond_b(1, 1, 0)) == (1, 0)
        assert (m.respond_a(0, 0, 1), m.respond_b(0, 0, 1)) == (1, 1)
        assert (m.respond_a(1, 0, 1), m.respond_b(1, 0, 1)) == (0, 0)

    def test_non_binary_response_rejected(self):
        with pytest.raises(ValueError):
            HVModel(
                respond_a=lambda x, y, lam: 2,
                respond_b=lambda x, y, lam: 0,
                dist=LambdaDist.from_p0(0.5),
            )


class TestTruthTable:
    def test_rows_match_golden(self):
        for p0 in (0.5, 0.3, 1.0):
            assert truth_table(pr_hv_model(LambdaDist.from_p0(p0))) == GOLDEN_ROWS

    def test_row_count(self):
        assert len(truth_table(pr_hv_model(LambdaDist.from_p0(0.5)))) == 8

    def test_all_rows_satisfy_constraint(self):
        for x, y, lam, a, b in truth_table(pr_hv_model(LambdaDist.from_p0(0.5))):
            assert (a + b) % 2 == x * y

    def test_csv_is_byte_exact(self):
        csv = truth_table_csv(pr_hv_model(LambdaDist.from_p0(0.5)))
        assert csv == GOLDEN_CSV
        assert csv.encode() == GOLDEN_CSV.encode()


class TestHvToBox:
    def test_balanced_distribution_reproduces_canonical_box(self):
        box = hv_to_box(pr_hv_model(LambdaDist.from_p0(0.5)))
        oracle = oracle_lambda_average(0.5)
        assert np.max(np.abs(box.p - oracle)) == 0.0
        assert box.allclose(pr_box())

    def test_deterministic_lambda_is_point_mass(self):
        box = hv_to_box(pr_hv_model(LambdaDist.from_p0(1.0)))
        assert box.prob(1, 1, 1, 0) == 1.0
        assert np.array_equal(box.p, oracle_lambda_average(1.0))

    def test_skewed_distribution_weights(self):
        box = hv_to_box(pr_hv_model(LambdaDist(0.3, 0.7)))
        assert box.prob(0, 0, 0, 0) == pytest.approx(0.3)
        assert box.prob(0, 0, 1, 1) == pytest.approx(0.7)
        assert np.allclose(box.p, oracle_lambda_average(0.3))

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_valid_and_constrained_for_any_distribution(self, p0):
        box = hv_to_box(pr_hv_model(LambdaDist.from_p0(p0)))
        assert validate(box).ok
        assert pr_constraint_holds(box)

    def test_correlation_matches_direct_lambda_average(self):
        # oracle: E(x, y) = sum_lambda P(lambda) * sign(a) * sign(b)
        for p0 in (0.0, 0.25, 0.5, 0.9, 1.0):
            m = pr_hv_model(LambdaDist.from_p0(p0))
            box = hv_to_box(m)
            for x, y in np.ndindex(2, 2):
                direct = sum(
                    m.dist.prob(lam)
                    * (1 - 2 * m.respond_a(x, y, lam))
                    * (1 - 2 * m.respond_b(x, y, lam))
                    for lam in (0, 1)
                )
                assert correlation(box, x, y) == pytest.approx(direct, abs=1e-12)


class TestDependence:
    def test_canonical_model_dependence_profile(self):
        dep = hv_dependence(pr_hv_model(LambdaDist.from_p0(0.5)))
        assert (
            dep.a_depends_on_y,
            dep.b_depends_on_x,
            dep.a_depends_on_b,
            dep.b_depends_on_a,
        ) == (False, True, False, False)

    def test_constant_model_has_no_dependence(self):
        m = HVModel(
            respond_a=lambda x, y, lam: 0,
            respond_b=lambda x, y, lam: 0,
            dist=LambdaDist.from_p0(0.5),
        )
        dep = hv_dependence(m)
        assert dep == type(dep)(False, False, False, False)

    def test_explicit_remote_dependence_detected(self):
        m = HVModel(
            respond_a=lambda x, y, lam: y,
            respond_b=lambda x, y, lam: 0,
            dist=LambdaDist.from_p0(0.5),
        )
        assert hv_dependence(m).a_depends_on_y


class TestLambdaSweep:
    def test_family_wide_claims(self):
        dists = [LambdaDist.from_p0(p0) for p0 in (0.0, 0.3, 0.5, 1.0)]
        points = lambda_sweep(dists)
        for point in points:
            assert point.chsh == pytest.approx(4.0, abs=1e-9)
            assert point.constraint_ok
        by_p0 = {point.dist.p0: point for point in points}
        assert by_p0[0.5].no_signaling.holds
        assert not by_p0[0.0].no_signaling.holds
        assert not by_p0[0.3].no_signaling.holds
        assert not by_p0[1.0].no_signaling.holds

    def test_row_serialization(self):
        (point,) = lambda_sweep([LambdaDist.from_p0(0.3)])
        row = point.as_dict()
        assert row == {
            "p0": 0.3,
            "chsh": pytest.approx(4.0),
            "no_signaling": "violated",
            "constraint_ok": True,
        }
