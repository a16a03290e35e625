import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbox import (
    DEFAULT_EPS,
    BoxTable,
    HVDependence,
    HVModel,
    LambdaDist,
    SweepPoint,
    bell_factorizable,
    chsh_value,
    conditional,
    conditional_b,
    conditioned_dependence,
    convex_mix,
    correlation,
    hv_dependence,
    hv_to_box,
    lambda_sweep,
    locality_report,
    marginal_a,
    marginal_b,
    no_signaling,
    outcome_independence,
    parameter_independence,
    pr_box,
    pr_constraint_holds,
    pr_hv_model,
    sample_box,
    sample_hv,
    sample_hv_records,
    singlet_box,
    truth_table,
    to_json,
    truth_table_csv,
    validate,
)
from prbox.box import _check_bit

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


CANONICAL = (lambda x, y, lam: (x + lam) % 2, lambda x, y, lam: (x + lam - x * y) % 2)

# Response sets other than the canonical model's, as (respond_a, respond_b).
OTHER_RESPONSES = [
    (lambda x, y, lam: lam, lambda x, y, lam: lam ^ (x & y)),
    (lambda x, y, lam: x ^ y, lambda x, y, lam: 1 - lam),
    (lambda x, y, lam: x & lam, lambda x, y, lam: y | lam),
    (lambda x, y, lam: 0, lambda x, y, lam: 1),
]


def oracle_lambda_average(p0, responses=CANONICAL, p1=None):
    """Independent marginalization: weight each lambda row directly."""
    dist = (p0, 1.0 - p0 if p1 is None else p1)
    respond_a, respond_b = responses
    p = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for lam in (0, 1):
                a = respond_a(x, y, lam)
                b = respond_b(x, y, lam)
                p[x, y, a, b] += dist[lam]
    return p


# p0 values at and just past both ends of the range LambdaDist accepts.
EDGE_P0 = [-DEFAULT_EPS / 2, 0.0, 0.5, 1.0, 1 + DEFAULT_EPS / 2]


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

    @pytest.mark.parametrize(
        "p0, p1",
        [(True, False), (1, 0), (np.float32(0.5), np.float32(0.5)), (np.float64(0.25), 0.75)],
        ids=["bool", "int", "float32", "float64"],
    )
    def test_weights_stored_as_floats(self, p0, p1):
        dist = LambdaDist(p0, p1)
        assert (type(dist.p0), type(dist.p1)) == (float, float)
        assert (dist.p0, dist.p1) == (float(p0), float(p1))
        point = lambda_sweep([dist])[0].as_dict()
        assert json.loads(json.dumps(point))["p0"] == float(p0)

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


class TestBitMessages:
    def test_response_message(self):
        with pytest.raises(ValueError) as err:
            HVModel(lambda x, y, lam: 2, lambda x, y, lam: 0, LambdaDist.from_p0(0.5))
        assert str(err.value) == "respond_a(0, 0, 0) must be 0 or 1, got 2"

    def test_response_message_names_the_failing_call(self):
        with pytest.raises(ValueError) as err:
            HVModel(
                lambda x, y, lam: 0,
                lambda x, y, lam: 5 if (x, y, lam) == (1, 0, 1) else 1,
                LambdaDist.from_p0(0.5),
            )
        assert str(err.value) == "respond_b(1, 0, 1) must be 0 or 1, got 5"

    def test_call_arguments_are_formatted_only_on_failure(self):
        class Unprintable:
            def __str__(self):
                raise AssertionError("formatted a passing check")

        assert _check_bit(1, "respond_a", Unprintable()) == 1

    def test_lambda_message(self):
        with pytest.raises(ValueError) as err:
            LambdaDist(0.5, 0.5).prob(2)
        assert str(err.value) == "lambda must be 0 or 1, got 2"


class TestResponseTable:
    def test_layout(self):
        m = pr_hv_model(LambdaDist.from_p0(0.5))
        assert m.responses.shape == (2, 2, 2, 2)
        for x, y, lam in np.ndindex(2, 2, 2):
            assert m.responses[0, x, y, lam] == (x + lam) % 2
            assert m.responses[1, x, y, lam] == (x + lam - x * y) % 2

    def test_read_only(self):
        m = pr_hv_model(LambdaDist.from_p0(0.5))
        with pytest.raises(ValueError):
            m.responses[0, 0, 0, 0] = 1

    def test_not_part_of_constructor_repr_or_equality(self):
        a, b = (lambda x, y, lam: lam), (lambda x, y, lam: x)
        dist = LambdaDist.from_p0(0.2)
        m = HVModel(a, b, dist, "m")
        assert m == HVModel(a, b, dist, "m")
        assert hash(m) == hash(HVModel(a, b, dist, "m"))
        assert "responses" not in repr(m)
        with pytest.raises(TypeError):
            HVModel(a, b, dist, "m", responses=m.responses)

    def test_bool_and_float_responses_are_stored_as_bits(self):
        # validation accepts True and 1.0 as outcome 1; the table holds ints
        m = HVModel(
            respond_a=lambda x, y, lam: x == lam,
            respond_b=lambda x, y, lam: 1.0 * y,
            dist=LambdaDist.from_p0(0.5),
        )
        assert truth_table(m)[0] == (0, 0, 0, 1, 0)
        assert truth_table_csv(m).splitlines()[1] == "0,0,0,1,0"
        assert hv_to_box(m).prob(0, 1, 1, 1) == 0.5

    def test_responses_called_only_at_construction(self):
        calls = {"a": 0, "b": 0}

        def counted(name, fn):
            def respond(x, y, lam):
                calls[name] += 1
                return fn(x, y, lam)

            return respond

        m = HVModel(
            respond_a=counted("a", lambda x, y, lam: (x + lam) % 2),
            respond_b=counted("b", lambda x, y, lam: (x + lam - x * y) % 2),
            dist=LambdaDist.from_p0(0.3),
        )
        assert calls == {"a": 8, "b": 8}
        truth_table(m)
        truth_table_csv(m)
        hv_to_box(m)
        hv_dependence(m)
        sample_hv(m, 50, 1)
        sample_hv_records(m, 50, 1)
        assert calls == {"a": 8, "b": 8}


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


class TestModelReadersTakeAModel:
    """A model reader refuses a box or a sampled table instead of reading it."""

    @pytest.mark.parametrize("read", [hv_to_box, hv_dependence, truth_table, truth_table_csv],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("wrong", [pr_box(), sample_box(pr_box(), 4, 1)],
                             ids=["box", "empirical"])
    def test_wrong_kind_rejected(self, read, wrong):
        got = type(wrong).__name__
        with pytest.raises(TypeError, match=f"^{read.__name__} takes an HVModel, got {got}$"):
            read(wrong)


class TestBoxReadersTakeABox:
    """A box reader refuses a model, the mirror of hv_to_box refusing a box."""

    READERS = {
        "locality_report": locality_report,
        "chsh_value": chsh_value,
        "validate": validate,
        # a model among the components is refused, not only the first
        "convex_mix": lambda m: convex_mix([pr_box(), m], [0.5, 0.5]),
        "correlation": lambda m: correlation(m, 1, 1),
        "pr_constraint_holds": pr_constraint_holds,
        "marginal_a": lambda m: marginal_a(m, 0, 1, 0),
        "marginal_b": lambda m: marginal_b(m, 0, 1, 0),
        "conditional": lambda m: conditional(m, 0, 1, 0, 1),
        "conditional_b": lambda m: conditional_b(m, 0, 1, 0, 1),
        "to_json": to_json,
        # each single check names itself, not the report it reads
        "no_signaling": no_signaling,
        "outcome_independence": outcome_independence,
        "parameter_independence": parameter_independence,
        "bell_factorizable": bell_factorizable,
        "conditioned_dependence": conditioned_dependence,
    }

    @pytest.mark.parametrize("name", READERS)
    def test_model_rejected(self, name):
        model = pr_hv_model(LambdaDist.from_p0(0.5))
        with pytest.raises(TypeError, match=f"^{name} takes a BoxTable, got HVModel$"):
            self.READERS[name](model)


class TestArgumentsOfTheirKind:
    """A wrong kind of argument is refused by name, not read until an attribute fails."""

    CALLS = {
        "singlet_box": (lambda: singlet_box((0.0, 1.0, 2.0, 3.0)), "MeasurementAngles", "tuple"),
        "HVModel": (lambda: HVModel(lambda x, y, lam: 0, lambda x, y, lam: 0, 0.5),
                    "LambdaDist", "float"),
        # every point is checked, not only the first
        "lambda_sweep": (lambda: lambda_sweep([LambdaDist.from_p0(0.5), 0.5]), "LambdaDist", "float"),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_wrong_kind_rejected(self, name):
        call, kind, got = self.CALLS[name]
        with pytest.raises(TypeError, match=f"^{name} takes a {kind}, got {got}$"):
            call()


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

    @given(
        p0=st.one_of(st.sampled_from(EDGE_P0), st.floats(0.0, 1.0)),
        responses=st.sampled_from([CANONICAL, *OTHER_RESPONSES]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_exactly(self, p0, responses):
        box = hv_to_box(HVModel(*responses, LambdaDist.from_p0(p0)))
        oracle = oracle_lambda_average(p0, responses)
        assert np.array_equal(box.p, oracle)
        assert box.p.tobytes() == oracle.tobytes()

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

    def test_a_lambda_of_zero_weight_still_counts(self):
        # A reads y only at lambda = 1, which p0 = 1 never draws.
        m = HVModel(lambda x, y, lam: y * lam, lambda x, y, lam: 0, LambdaDist.from_p0(1.0))
        assert no_signaling(hv_to_box(m)).holds
        assert hv_dependence(m) == HVDependence(True, False, False, False)

    def test_every_response_table_matches_the_table_rule(self):
        """All 2**16 response tables: the flags read from the lambda-boxes'
        verdicts equal :func:`table_rule_dependence`, with the outcome flags
        False.  p0 cycles through 0, 1 and 1/2, so some lambda has zero weight."""
        dists = [LambdaDist.from_p0(p0) for p0 in (0.0, 1.0, 0.5)]
        tables = (np.arange(2**16)[:, None] >> np.arange(16) & 1).reshape(-1, 2, 2, 2, 2)
        mismatches = []
        for i, r in enumerate(tables.tolist()):
            m = HVModel(
                lambda x, y, lam: r[0][x][y][lam], lambda x, y, lam: r[1][x][y][lam], dists[i % 3]
            )
            if hv_dependence(m) != table_rule_dependence(m.responses):
                mismatches.append(i)
        assert mismatches == []


def table_rule_dependence(responses):
    """The oracle: compare a response table [party, x, y, lambda] across the
    remote setting; a deterministic response never reads the remote outcome."""
    a, b = responses
    return HVDependence(bool(np.any(a[:, 0] != a[:, 1])), bool(np.any(b[0] != b[1])), False, False)


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

    @staticmethod
    def per_point_reference(dists, eps=DEFAULT_EPS):
        # each point alone: oracle box, then chsh_value, no_signaling and
        # pr_constraint_holds, as the sweep is defined
        reference = []
        for dist in dists:
            box = BoxTable(oracle_lambda_average(dist.p0, p1=dist.p1))
            reference.append(
                SweepPoint(
                    dist,
                    chsh_value(box).s,
                    no_signaling(box, eps),
                    pr_constraint_holds(box, eps),
                )
            )
        return reference

    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.2])
    def test_equals_per_point_reference(self, eps):
        p0s = [*EDGE_P0, 0.25, 0.4999, 0.5001, 0.7, 1 / 3, *np.linspace(0, 1, 41)]
        dists = [LambdaDist.from_p0(p0) for p0 in p0s]
        dists += [LambdaDist(0.5, 0.5), LambdaDist(1e-10, 1.0), LambdaDist(1, 0)]
        reference = self.per_point_reference(dists, eps)
        assert repr(lambda_sweep(dists, eps)) == repr(reference)
        assert lambda_sweep([], eps) == []

    @pytest.mark.parametrize("container", [list, tuple, iter, lambda d: (x for x in d)],
                             ids=["list", "tuple", "iterator", "generator"])
    def test_any_iterable(self, container):
        # the sweep reads its input twice; an iterator used to give []
        dists = [LambdaDist.from_p0(p0) for p0 in (*EDGE_P0, 0.3, 0.5, 0.8)]
        reference = self.per_point_reference(dists)
        assert repr(lambda_sweep(container(dists))) == repr(reference)

    def test_row_serialization(self):
        (point,) = lambda_sweep([LambdaDist.from_p0(0.3)])
        row = point.as_dict()
        assert row == {
            "p0": 0.3,
            "chsh": pytest.approx(4.0),
            "no_signaling": "violated",
            "constraint_ok": True,
        }
