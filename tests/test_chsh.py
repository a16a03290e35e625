import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_box, random_local_mixture, random_product_box
from prbox import (
    BoxTable,
    ChshResult,
    ClassicalBoundCertificate,
    OPTIMAL_CHSH_ANGLES,
    all_deterministic_boxes,
    bell_factorizable,
    chsh_value,
    classical_bound_certificate,
    convex_mix,
    correlation,
    deterministic_local_box,
    pr_box,
    signed_outcome,
    singlet_box,
    uniform_box,
)
from prbox.chsh import _chsh_s


class TestSignedOutcome:
    def test_mapping(self):
        assert signed_outcome(0) == 1
        assert signed_outcome(1) == -1

    def test_round_trip(self):
        for outcome in (0, 1):
            assert (1 - signed_outcome(outcome)) // 2 == outcome

    def test_rejects_non_bit(self):
        with pytest.raises(ValueError):
            signed_outcome(2)


class TestCorrelation:
    def test_pr_box_extremal_correlations(self):
        box = pr_box()
        assert correlation(box, 0, 0) == 1.0
        assert correlation(box, 0, 1) == 1.0
        assert correlation(box, 1, 0) == 1.0
        assert correlation(box, 1, 1) == -1.0

    def test_uniform_has_zero_correlation(self):
        for x, y in np.ndindex(2, 2):
            assert correlation(uniform_box(), x, y) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_signed_sum_definition(self, seed):
        box = random_box(np.random.default_rng(seed))
        for x, y in np.ndindex(2, 2):
            oracle = sum(
                signed_outcome(a) * signed_outcome(b) * box.prob(x, y, a, b)
                for a, b in np.ndindex(2, 2)
            )
            assert correlation(box, x, y) == pytest.approx(oracle, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_chsh_value_exactly(self, seed):
        box = random_box(np.random.default_rng(seed))
        result = chsh_value(box)
        assert [correlation(box, x, y) for x, y in np.ndindex(2, 2)] == [
            result.e00,
            result.e01,
            result.e10,
            result.e11,
        ]

    def test_rejects_non_bit_setting(self):
        with pytest.raises(ValueError, match="x must be 0 or 1"):
            correlation(pr_box(), 2, 0)
        with pytest.raises(ValueError, match="y must be 0 or 1"):
            correlation(pr_box(), 0, -1)


class TestChshValue:
    def test_pr_box_saturates_the_algebraic_bound(self):
        result = chsh_value(pr_box())
        assert result.s == pytest.approx(4.0, abs=1e-9)
        assert (result.e00, result.e01, result.e10, result.e11) == (1.0, 1.0, 1.0, -1.0)

    def test_constant_strategy(self):
        result = chsh_value(deterministic_local_box((0, 0), (0, 0)))
        assert (result.e00, result.e01, result.e10, result.e11) == (1.0, 1.0, 1.0, 1.0)
        assert result.s == 2.0

    def test_singlet_at_optimal_angles(self):
        assert chsh_value(singlet_box(OPTIMAL_CHSH_ANGLES)).s == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9
        )

    def test_result_consistency_enforced(self):
        with pytest.raises(ValueError):
            ChshResult(1.0, 1.0, 1.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            ChshResult(1.5, 0.0, 0.0, 0.0, 1.5)

    def test_nan_table_rejected(self):
        with pytest.raises(ValueError):
            chsh_value(BoxTable(np.full((2, 2, 2, 2), np.nan)))

    def test_nan_s_rejected(self):
        with pytest.raises(ValueError):
            ChshResult(0.0, 0.0, 0.0, 0.0, math.nan)

    def test_json_shape(self):
        assert chsh_value(pr_box()).as_dict() == {
            "e": [[1.0, 1.0], [1.0, -1.0]],
            "s": 4.0,
        }


class TestClassicalBound:
    def strategy_oracle(self, f0, f1, g0, g1):
        # direct sign algebra, no box table involved
        a = (1 - 2 * f0, 1 - 2 * f1)
        b = (1 - 2 * g0, 1 - 2 * g1)
        return a[0] * b[0] + a[0] * b[1] + a[1] * b[0] - a[1] * b[1]

    def test_certificate_maximum_is_two(self):
        cert = classical_bound_certificate()
        assert cert.max_abs_s == 2.0
        assert cert.argmax_label.startswith("local:")

    def test_certificate_keeps_the_first_maximum(self):
        cert = classical_bound_certificate()
        assert (cert.max_abs_s, cert.argmax_label) == (2.0, "local:0,0,0,0")

    def test_certificate_is_one_shared_object_equal_to_a_fresh_one(self):
        cert = classical_bound_certificate()
        assert classical_bound_certificate() is cert
        values = [abs(chsh_value(box).s) for box in all_deterministic_boxes()]
        k = values.index(max(values))  # the first maximum
        fresh = ClassicalBoundCertificate(max(values), all_deterministic_boxes()[k].label)
        assert cert == fresh == ClassicalBoundCertificate(2.0, "local:0,0,0,0")

    def test_every_deterministic_value_is_plus_or_minus_two(self):
        values = []
        for box, bits in zip(
            all_deterministic_boxes(), np.ndindex(2, 2, 2, 2)
        ):
            s = chsh_value(box).s
            assert s == self.strategy_oracle(*bits)
            assert s in (-2.0, 2.0)
            values.append(s)
        assert max(abs(v) for v in values) == 2.0

    def test_equal_mixture_averages_to_zero(self):
        mixed = convex_mix(all_deterministic_boxes(), [1 / 16] * 16)
        assert chsh_value(mixed).s == pytest.approx(0.0, abs=1e-12)

    def test_local_mixtures_respect_the_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            assert abs(chsh_value(random_local_mixture(rng)).s) <= 2.0 + 1e-9

    def test_factorizable_tables_respect_the_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            box = random_product_box(rng)
            assert bell_factorizable(box).holds
            assert abs(chsh_value(box).s) <= 2.0 + 1e-9


class TestAlgebraicStructure:
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_linearity_under_mixing(self, seed, w):
        rng = np.random.default_rng(seed)
        b1, b2 = random_box(rng), random_box(rng)
        s_mixed = chsh_value(convex_mix([b1, b2], [w, 1.0 - w])).s
        expected = w * chsh_value(b1).s + (1.0 - w) * chsh_value(b2).s
        assert s_mixed == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_algebraic_ceiling(self, seed):
        box = random_box(np.random.default_rng(seed))
        result = chsh_value(box)
        assert abs(result.s) <= 4.0 + 1e-9
        for e in (result.e00, result.e01, result.e10, result.e11):
            assert abs(e) <= 1.0 + 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_stacked_values_equal_chsh_value_table_by_table(self, seed, n):
        rng = np.random.default_rng(seed)
        tables = [random_box(rng) for _ in range(n)]
        e, s = _chsh_s(np.stack([t.p for t in tables]))
        for k, table in enumerate(tables):
            result = chsh_value(table)
            values = [result.e00, result.e01, result.e10, result.e11]
            assert values == e[..., k].ravel().tolist()
            assert values == pytest.approx(
                [correlation(table, x, y) for x, y in np.ndindex(2, 2)], abs=1e-12
            )
            assert result.s == s[k]
