import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_box, random_local_mixture, random_product_box
from prbox import (
    BoxTable,
    LambdaDist,
    LocalityReport,
    Verdict,
    Witness,
    all_deterministic_boxes,
    bell_factorizable,
    conditional,
    conditional_b,
    conditioned_dependence,
    hv_to_box,
    locality_report,
    marginal_a,
    marginal_b,
    no_signaling,
    outcome_independence,
    parameter_independence,
    pr_box,
    pr_hv_model,
    uniform_box,
)


def hv_box(p0):
    return hv_to_box(pr_hv_model(LambdaDist.from_p0(p0)))


@st.composite
def sparse_tables(draw):
    """Random valid tables with a drawn set of zero cells, so that some
    conditioning events are impossible and their conditionals undefined."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = (draw(st.integers(0, 2**16 - 1)) >> np.arange(16)) & 1
    p = rng.random((2, 2, 2, 2))
    p[zeros.reshape(2, 2, 2, 2) == 1] = 0.0
    p[p.sum(axis=(2, 3)) == 0, 0, 0] = 1.0
    return BoxTable(p / p.sum(axis=(2, 3), keepdims=True), "sparse")


EPSILONS = st.sampled_from([1e-9, 1e-3, 0.2])

CHECKS = [
    ("no_signaling", no_signaling),
    ("outcome_independence", outcome_independence),
    ("bell_factorizable", bell_factorizable),
    ("conditioned_dependence", conditioned_dependence),
]


class TestNoSignaling:
    def test_pr_box_holds(self):
        # oracle: all 8 marginal comparisons are 1/2 vs 1/2
        box = pr_box()
        for x, a in np.ndindex(2, 2):
            assert marginal_a(box, x, 0, a) == marginal_a(box, x, 1, a) == 0.5
        for y, b in np.ndindex(2, 2):
            assert marginal_b(box, 0, y, b) == marginal_b(box, 1, y, b) == 0.5
        assert no_signaling(box).holds

    def test_every_deterministic_box_holds(self):
        for box in all_deterministic_boxes():
            assert no_signaling(box).holds, box.label

    def test_skewed_hidden_variable_average_signals(self):
        # oracle: average the response functions over lambda by hand
        dist = (0.3, 0.7)
        def b_marginal(x, y, b):
            return sum(
                dist[lam]
                for lam in (0, 1)
                if (x + lam - x * y) % 2 == b
            )
        assert b_marginal(0, 0, 0) == pytest.approx(0.3)
        assert b_marginal(1, 0, 0) == pytest.approx(0.7)

        verdict = no_signaling(hv_box(0.3))
        assert not verdict.holds
        expected = Witness(0, 0, -1, 0, 0.3, 0.7, side="B")
        assert expected in verdict.witnesses
        # a = (x + lambda) mod 2 ignores y, so only B's marginal can leak
        assert all(w.side == "B" for w in verdict.witnesses)


class TestParameterIndependence:
    def test_pr_box_holds(self):
        assert parameter_independence(pr_box()).holds

    def test_balanced_hidden_variable_holds(self):
        assert parameter_independence(hv_box(0.5)).holds

    def test_deterministic_lambda_violates(self):
        assert not parameter_independence(hv_box(1.0)).holds

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_identical_to_no_signaling(self, seed):
        box = random_box(np.random.default_rng(seed))
        assert parameter_independence(box) == no_signaling(box)

    def test_identical_on_named_tables(self):
        for box in [pr_box(), uniform_box(), hv_box(0.3), *all_deterministic_boxes()]:
            assert parameter_independence(box) == no_signaling(box)


class TestOutcomeIndependence:
    def test_pr_box_violated_with_expected_witness(self):
        verdict = outcome_independence(pr_box())
        assert not verdict.holds
        first = verdict.witnesses[0]
        assert (first.x, first.y, first.a, first.b) == (0, 0, 0, 0)
        assert first.lhs == pytest.approx(1.0)
        assert first.rhs == pytest.approx(0.5)

    def test_every_deterministic_box_holds(self):
        for box in all_deterministic_boxes():
            assert outcome_independence(box).holds, box.label

    def test_uniform_holds(self):
        assert outcome_independence(uniform_box()).holds


class TestBellFactorizable:
    def test_deterministic_boxes_hold(self):
        for box in all_deterministic_boxes():
            assert bell_factorizable(box).holds, box.label

    def test_pr_box_violated_including_forbidden_cell(self):
        verdict = bell_factorizable(pr_box())
        assert not verdict.holds
        assert Witness(0, 0, 0, 1, 0.0, 0.25, side="AB") in verdict.witnesses

    def test_uniform_holds(self):
        assert bell_factorizable(uniform_box()).holds

    def test_signaling_table_reports_no_signaling_witnesses(self):
        skewed = hv_box(0.3)
        ns = no_signaling(skewed)
        verdict = bell_factorizable(skewed)
        assert not verdict.holds
        assert verdict.witnesses == ns.witnesses

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_product_tables_hold(self, seed):
        box = random_product_box(np.random.default_rng(seed))
        assert bell_factorizable(box, eps=1e-9).holds


class TestConditionedDependence:
    def test_pr_box_violated_with_expected_witness(self):
        verdict = conditioned_dependence(pr_box())
        assert not verdict.holds
        # conditioning on b=0 pins a to 1 at (x=1, y=1) but to 0 at (x=1, y=0)
        assert Witness(1, 0, 0, 0, 1.0, 0.0, side="A") in verdict.witnesses

    def test_deterministic_boxes_hold(self):
        for box in all_deterministic_boxes():
            assert conditioned_dependence(box).holds, box.label

    def test_uniform_holds(self):
        assert conditioned_dependence(uniform_box()).holds


class TestDecomposition:
    def check(self, box):
        fact = bell_factorizable(box).holds
        both = outcome_independence(box).holds and parameter_independence(box).holds
        assert fact == both, box.label

    def test_named_tables(self):
        for box in [*all_deterministic_boxes(), pr_box(), uniform_box(), hv_box(0.3)]:
            self.check(box)

    def test_random_tables(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            self.check(random_box(rng))

    def test_random_product_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            self.check(random_product_box(rng))

    def test_local_mixtures(self):
        # correlated classical mixtures: OI can fail while PI holds
        rng = np.random.default_rng(11)
        for _ in range(50):
            self.check(random_local_mixture(rng))

    def test_mixture_exercises_oi_violated_pi_holds(self):
        # half (a,b)=(0,0), half (a,b)=(1,1), independent of settings
        p = np.zeros((2, 2, 2, 2))
        p[:, :, 0, 0] = 0.5
        p[:, :, 1, 1] = 0.5
        from prbox import BoxTable

        box = BoxTable(p, "classical-correlated")
        assert parameter_independence(box).holds
        assert not outcome_independence(box).holds
        assert not bell_factorizable(box).holds


class TestWitnessIntegrity:
    def recompute(self, box, verdict_name, witness, eps=1e-9):
        x, y, a, b = witness.x, witness.y, witness.a, witness.b
        if verdict_name == "no_signaling":
            if witness.side == "A":
                return marginal_a(box, x, 0, a), marginal_a(box, x, 1, a)
            return marginal_b(box, 0, y, b), marginal_b(box, 1, y, b)
        if verdict_name == "outcome_independence":
            if witness.side == "A":
                return conditional(box, x, y, a, b, eps), marginal_a(box, x, y, a)
            return conditional_b(box, x, y, a, b, eps), marginal_b(box, x, y, b)
        if verdict_name == "bell_factorizable":
            if witness.side == "AB":
                return (
                    box.prob(x, y, a, b),
                    marginal_a(box, x, 0, a) * marginal_b(box, 0, y, b),
                )
            # signaling marginals: the verdict reuses the no-signaling witnesses
            return self.recompute(box, "no_signaling", witness, eps)
        if verdict_name == "conditioned_dependence":
            if witness.side == "A":
                return conditional(box, x, 0, a, b, eps), conditional(box, x, 1, a, b, eps)
            return conditional_b(box, 0, y, a, b, eps), conditional_b(box, 1, y, a, b, eps)
        raise AssertionError(verdict_name)

    # every (witness cell, side) each check compares, in the witness convention
    CANDIDATES = {
        "no_signaling": [(x, 0, a, -1, "A") for x, a in np.ndindex(2, 2)]
        + [(0, y, -1, b, "B") for y, b in np.ndindex(2, 2)],
        "outcome_independence": [(*c, s) for c in np.ndindex(2, 2, 2, 2) for s in "AB"],
        "bell_factorizable": [(*c, "AB") for c in np.ndindex(2, 2, 2, 2)],
        "conditioned_dependence": [(x, 0, a, b, "A") for x, a, b in np.ndindex(2, 2, 2)]
        + [(0, y, a, b, "B") for y, a, b in np.ndindex(2, 2, 2)],
    }

    def expected_cells(self, box, verdict_name, eps):
        """The witness cells the scalar recomputation finds, as (x, y, a, b, side)."""
        if verdict_name == "bell_factorizable":
            signaling = self.expected_cells(box, "no_signaling", eps)
            if signaling:
                return signaling
        cells = set()
        for x, y, a, b, side in self.CANDIDATES[verdict_name]:
            probe = Witness(x, y, a, b, 0.0, 0.0, side)
            lhs, rhs = self.recompute(box, verdict_name, probe, eps)
            if lhs is not None and rhs is not None and abs(lhs - rhs) > eps:
                cells.add((x, y, a, b, side))
        return cells

    def test_stored_values_recompute_exactly(self):
        rng = np.random.default_rng(3)
        tables = [pr_box(), hv_box(0.3), hv_box(1.0)] + [random_box(rng) for _ in range(20)]
        seen_violation = False
        for box in tables:
            for name, fn in CHECKS:
                verdict = fn(box)
                for witness in verdict.witnesses:
                    seen_violation = True
                    lhs, rhs = self.recompute(box, name, witness)
                    assert lhs == witness.lhs
                    assert rhs == witness.rhs
                    assert abs(lhs - rhs) > 1e-9
        assert seen_violation

    @given(sparse_tables(), EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_witnesses_complete_and_exact(self, box, eps):
        for name, fn in CHECKS:
            verdict = fn(box, eps)
            cells = {(w.x, w.y, w.a, w.b, w.side) for w in verdict.witnesses}
            assert cells == self.expected_cells(box, name, eps), name
            for witness in verdict.witnesses:
                assert self.recompute(box, name, witness, eps) == (witness.lhs, witness.rhs)

    def test_witnesses_sorted_lexicographically(self):
        for verdict in [
            outcome_independence(pr_box()),
            bell_factorizable(pr_box()),
            no_signaling(hv_box(0.1)),
        ]:
            keys = [(w.x, w.y, w.a, w.b, w.side) for w in verdict.witnesses]
            assert keys == sorted(keys)


def swap_witness(w):
    """The same comparison seen from the party-swapped table."""
    side = {"A": "B", "B": "A", "AB": "AB"}[w.side]
    return Witness(w.y, w.x, w.b, w.a, w.lhs, w.rhs, side)


def swap_verdict(v):
    witnesses = sorted(map(swap_witness, v.witnesses), key=lambda w: (w.x, w.y, w.a, w.b, w.side))
    return Verdict(v.holds, tuple(witnesses))


class TestPartySwap:
    def check(self, box, eps=1e-9):
        report = locality_report(box, eps)
        swapped = locality_report(BoxTable(box.p.transpose(1, 0, 3, 2)), eps)
        expected = {name: swap_verdict(verdict) for name, verdict in vars(report).items()}
        assert swapped == LocalityReport(**expected), box.label

    @given(sparse_tables(), EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_random_sparse_tables(self, box, eps):
        self.check(box, eps)

    def test_named_tables(self):
        for box in [pr_box(), hv_box(0.3), uniform_box(), *all_deterministic_boxes()]:
            self.check(box)


class TestVerdictAndReport:
    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict(True, (Witness(0, 0, 0, 0, 1.0, 0.5),))
        with pytest.raises(ValueError):
            Verdict(False, ())

    def test_report_json_shape(self):
        report = locality_report(pr_box()).as_dict()
        assert set(report) == {
            "no_signaling",
            "outcome_independence",
            "parameter_independence",
            "bell_factorizable",
            "conditioned_parameter_dependence",
        }
        assert report["no_signaling"]["status"] == "holds"
        assert report["outcome_independence"]["status"] == "violated"
        for row in report["outcome_independence"]["witnesses"]:
            assert len(row) == 6

    def test_report_decomposition_invariant(self):
        for box in [pr_box(), uniform_box(), *all_deterministic_boxes()]:
            report = locality_report(box)
            if report.bell_factorizable.holds:
                assert report.outcome_independence.holds
                assert report.parameter_independence.holds
