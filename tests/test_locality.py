import copy
import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_box, random_local_mixture, random_product_box
from prbox import locality as locality_module
from prbox import (
    OPTIMAL_CHSH_ANGLES,
    BoxTable,
    LambdaDist,
    LocalityReport,
    MeasurementAngles,
    Verdict,
    Witness,
    all_deterministic_boxes,
    bell_factorizable,
    conditional,
    conditional_b,
    conditioned_dependence,
    convex_mix,
    deterministic_local_box,
    hv_to_box,
    lambda_sweep,
    locality_report,
    marginal_a,
    marginal_b,
    no_signaling,
    outcome_independence,
    parameter_independence,
    pr_box,
    pr_hv_model,
    singlet_box,
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

    @given(sparse_tables(), EPSILONS)
    @settings(max_examples=150, deadline=None)
    def test_witnesses_sorted_lexicographically(self, box, eps):
        for verdict in [
            outcome_independence(pr_box()),
            bell_factorizable(pr_box()),
            no_signaling(hv_box(0.1)),
            *(fn(box, eps) for _, fn in CHECKS),
        ]:
            keys = [(w.x, w.y, w.a, w.b, w.side) for w in verdict.witnesses]
            assert all(k < k_next for k, k_next in zip(keys, keys[1:])), keys


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
        with pytest.raises(ValueError):
            Verdict(False)
        assert Verdict(True).witnesses == ()

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


def _with_entry(value):
    p = pr_box().p.copy()
    p[1, 0, 1, 0] = value
    return BoxTable(p, "bad")


# Builders, since no table with a NaN or infinite entry can be built.
NON_FINITE_TABLES = [
    lambda: BoxTable(np.full((2, 2, 2, 2), np.nan), "nan"),
    lambda: _with_entry(np.nan),
    lambda: _with_entry(np.inf),
    lambda: _with_entry(-np.inf),
]


class TestNonFiniteTables:
    """No analysis can read a NaN or infinite entry's comparisons as "no
    difference": building such a table is refused first."""

    @pytest.mark.parametrize("table", NON_FINITE_TABLES, ids=["all-nan", "nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "analysis",
        [
            no_signaling,
            parameter_independence,
            outcome_independence,
            bell_factorizable,
            conditioned_dependence,
            locality_report,
        ],
    )
    def test_rejected(self, analysis, table):
        with pytest.raises(ValueError, match="non-finite entry"):
            analysis(table())

    def test_message_names_the_first_bad_cell(self):
        with pytest.raises(ValueError, match=r"\(x=1, y=0, a=1, b=0\): inf"):
            locality_report(_with_entry(np.inf))


# Reference witness builder: the run-time ordering the static plan replaces,
# kept here as the oracle for the plan's cell order and templates.


def reference_pairs(p, eps):
    """(lhs, rhs) of no-signaling, conditioned dependence and outcome
    independence as (side, ..., x, y, a, b) stacks of tables (..., 2, 2, 2, 2)."""
    def swap(q):
        return q.swapaxes(-4, -3).swapaxes(-2, -1)

    p = np.array((p, swap(p)))
    ma = p.sum(-1, keepdims=True)
    mb = swap(ma[::-1])
    c = p / np.where(mb > eps, mb, np.nan)
    return [(ma[..., :1, :, :], ma[..., 1:, :, :]), (c[..., :1, :, :], c[..., 1:, :, :]),
            (c, ma.repeat(2, -1))]


def reference_verdict(lhs, rhs, eps, sides=("A", "B")):
    differs = np.abs(lhs - rhs) > eps
    hit = np.nonzero(differs)
    if not hit[0].size:
        return Verdict(True)
    side, cells = hit[0], np.array(hit[1:])
    cells[2:][np.array(differs.shape[3:]) == 1] = -1
    cells = np.where(side == 1, cells[[1, 0, 3, 2]], cells)
    order = np.lexsort((side, *cells[::-1]))
    lhs, rhs = lhs[hit][order].tolist(), rhs[hit][order].tolist()
    labels = [sides[s] for s in side[order].tolist()]
    return Verdict(False, tuple(map(Witness, *cells[:, order].tolist(), lhs, rhs, labels)))


def reference_report(box, eps):
    ns, cd, oi = (reference_verdict(*pair, eps) for pair in reference_pairs(box.p, eps))
    factorizable = ns
    if ns.holds:
        ma, mb = box.p.sum(3)[:, 0], box.p.sum(2)[0]
        product = ma[:, None, :, None] * mb[None, :, None, :]
        factorizable = reference_verdict(box.p[None], product[None], eps, ("AB",))
    return LocalityReport(ns, oi, ns, factorizable, cd)


def witness_reprs(verdict):
    return [repr(w) for w in verdict.witnesses]


class TestPlanParity:
    """The static plan gives the reference builder's witnesses, in its order."""

    @given(sparse_tables(), EPSILONS)
    @settings(max_examples=200, deadline=None)
    def test_checks_and_report_match_the_reference(self, box, eps):
        expected = reference_report(box, eps)
        report = locality_report(box, eps)
        assert repr(report) == repr(expected)
        singles = {
            "no_signaling": no_signaling(box, eps),
            "parameter_independence": parameter_independence(box, eps),
            "outcome_independence": outcome_independence(box, eps),
            "bell_factorizable": bell_factorizable(box, eps),
            "conditioned_parameter_dependence": conditioned_dependence(box, eps),
        }
        for name, verdict in singles.items():
            reference = getattr(expected, name)
            assert verdict.holds == reference.holds, name
            assert witness_reprs(verdict) == witness_reprs(reference), name
            assert verdict == reference, name

    @pytest.mark.parametrize("eps", [1e-9, 1e-3, 0.2])
    def test_lambda_sweep_matches_the_reference(self, eps):
        rng = np.random.default_rng(8)
        p0s = [0.0, 0.5, 1.0, -eps / 2, 1 + eps / 2, *rng.random(40).tolist()]
        if eps > 1e-9:  # LambdaDist itself allows at most DEFAULT_EPS below 0 or above 1
            p0s[3:5] = [-1e-9 / 2, 1 + 1e-9 / 2]
        dists = [LambdaDist.from_p0(p0) for p0 in p0s]
        points = lambda_sweep(dists, eps)
        for dist, point in zip(dists, points, strict=True):
            box = hv_to_box(pr_hv_model(dist))
            (lhs, rhs), *_ = reference_pairs(box.p, eps)
            assert repr(point.no_signaling) == repr(reference_verdict(lhs, rhs, eps))


class TestPlanBuiltWitnesses:
    """Witnesses filled from a plan template are ordinary Witness objects."""

    def built(self):
        report = locality_report(pr_box())
        signaling = no_signaling(hv_box(0.3))
        return [*report.outcome_independence.witnesses, *report.bell_factorizable.witnesses,
                *report.conditioned_parameter_dependence.witnesses, *signaling.witnesses]

    def test_same_as_constructed(self):
        witnesses = self.built()
        assert {w.side for w in witnesses} == {"A", "B", "AB"}
        for w in witnesses:
            twin = Witness(w.x, w.y, w.a, w.b, w.lhs, w.rhs, w.side)
            assert type(w) is Witness
            assert repr(w) == repr(twin)
            assert w == twin and hash(w) == hash(twin)
            assert list(vars(w).items()) == list(vars(twin).items())
            assert pickle.loads(pickle.dumps(w)) == twin
            assert repr(pickle.loads(pickle.dumps(w))) == repr(twin)
            assert dataclasses.asdict(w) == dataclasses.asdict(twin)
            assert dataclasses.replace(w, lhs=2.0) == dataclasses.replace(twin, lhs=2.0)
            assert w.as_row() == twin.as_row()
            with pytest.raises(dataclasses.FrozenInstanceError):
                w.lhs = 0.0

    def test_each_witness_owns_its_fields(self):
        witnesses = self.built()
        assert len({id(vars(w)) for w in witnesses}) == len(witnesses)
        assert all(t["lhs"] is None and t["rhs"] is None for t in locality_module._TEMPLATES)

    @given(st.lists(sparse_tables(), min_size=1, max_size=6), EPSILONS)
    @settings(max_examples=100, deadline=None)
    def test_no_signaling_prefix_matches_the_report(self, tables, eps):
        prefix = locality_module._verdicts(np.stack([t.p for t in tables]), eps, 1)
        assert [repr(v) for v in prefix] == [
            repr(locality_report(t, eps).no_signaling) for t in tables
        ]


def _negative_zeros(box):
    return BoxTable(np.where(box.p == 0.0, -0.0, box.p), box.label + ":-0")


def _half_impossible():
    """The PR box with (x, y) = (1, 1) deterministic: some conditionals are undefined."""
    p = pr_box().p.copy()
    p[1, 1] = deterministic_local_box((0, 1), (1, 1)).p[1, 1]
    return BoxTable(p, "half-impossible")


GOLDEN_TABLES = {
    "pr": pr_box,
    "local": lambda: deterministic_local_box((0, 1), (1, 0)),
    "hv": lambda: hv_box(0.3),
    "singlet": lambda: singlet_box(MeasurementAngles(0.1, 1.3, 2.9, 4.4)),
    "singlet_opt": lambda: singlet_box(OPTIMAL_CHSH_ANGLES),
    "pr_uniform": lambda: convex_mix(
        [pr_box(), uniform_box()], [math.sqrt(0.5), 1 - math.sqrt(0.5)]
    ),
    "local_mix": lambda: convex_mix(all_deterministic_boxes(), np.linspace(1, 16, 16) / 136),
    # -0.0 off the support prints in conditional rows; the zero marginal of
    # two -0.0 entries prints as 0.0.
    "pr_negative_zeros": lambda: _negative_zeros(pr_box()),
    "local_negative_zeros": lambda: _negative_zeros(deterministic_local_box((1, 0), (0, 1))),
    "hv_negative_zeros": lambda: _negative_zeros(hv_box(1.0)),
    "undefined_conditionals": _half_impossible,
}

GOLDEN_REPORTS = [
    ("pr", 1e-9, "cd1d86b592f860c8996a9c2d1f1e77490e0e74ec84fcf4a1fc26a243e56b1e30"),
    ("local", 1e-9, "735eee23b415b2414c67a5b984faa8c080aa8e7cce15a22bd7635b84f28b761f"),
    ("hv", 1e-9, "399152f78d93e3cc430aa11cd699cb38d0fc2237287af6122accb30b48cd16ae"),
    ("singlet", 1e-9, "4186be01c8eeef84c0c2dd2d21325f41f5a3b5a608d47cc2417f3edfddb2a6e1"),
    ("singlet", 0.2, "ed2355efcaad81687996018146512de5962104b8f6bf9bdbe0f3d650bcabda60"),
    ("singlet_opt", 1e-9, "b1a1d8d487def73cef845d3904eb0a40756f7320b49a75ef875e30ea413406ab"),
    ("singlet_opt", 0.2, "7a5fc5697af79efd1f2384cfb085d30dde2af8414a55dc6b3ea6998293759684"),
    ("pr_uniform", 1e-9, "948059d93a2652dd7ae56c235f93c0d1f4c3f15efc01179aa713aa78fa1c5a38"),
    ("pr_uniform", 0.2, "be5e63bf752e8c26861f8662c2262bd0a0c3a0348e2218cfdc8d63f915ad61c3"),
    ("local_mix", 1e-9, "3b5f9d0f972bb50da81257e816c658a5e5582acc50c13c96ca95d4598751d48b"),
    ("local_mix", 0.2, "735eee23b415b2414c67a5b984faa8c080aa8e7cce15a22bd7635b84f28b761f"),
    ("pr_negative_zeros", 1e-9, "9b80f29344d5fd408735b3dedb4e15dec4828521b8a1cfc6be9e97a229bc5cb7"),
    ("local_negative_zeros", 1e-9,
     "735eee23b415b2414c67a5b984faa8c080aa8e7cce15a22bd7635b84f28b761f"),
    ("hv_negative_zeros", 1e-9, "145bc22ee612060f66f634d6d9cdea45d0aff24ecc312ef65741361029cb2eac"),
    ("undefined_conditionals", 1e-9,
     "1c2491a0d5c398d7e73c773afbd29143be841c6277b621e66e8ebf998a0cabb9"),
]


def sha256_of(document):
    return hashlib.sha256(json.dumps(document, indent=2).encode()).hexdigest()


class TestGoldenReportDigests:
    """Every byte of the indented report JSON, -0.0 and witness order included,
    pinned over a fixed corpus, independent of the benchmark."""

    @pytest.mark.parametrize(("name", "eps", "digest"), GOLDEN_REPORTS,
                             ids=[f"{name}-{eps:g}" for name, eps, _ in GOLDEN_REPORTS])
    def test_report(self, name, eps, digest):
        assert sha256_of(locality_report(GOLDEN_TABLES[name](), eps).as_dict()) == digest

    def test_negative_zeros_reach_the_rows(self):
        report = locality_report(GOLDEN_TABLES["pr_negative_zeros"]()).as_dict()
        assert "-0.0" in json.dumps(report["outcome_independence"]["witnesses"])
        report = locality_report(GOLDEN_TABLES["hv_negative_zeros"]()).as_dict()
        assert report["no_signaling"]["witnesses"][0] == [0, 0, -1, 0, 1.0, 0.0]
        assert "-0.0" not in json.dumps(report)

    def test_lambda_sweep(self):
        points = lambda_sweep([LambdaDist.from_p0(k / 10) for k in range(11)])
        document = [{**point.as_dict(), "witnesses": point.no_signaling.as_dict()["witnesses"]}
                    for point in points]
        assert sha256_of(document) == (
            "5d22fb3a099a8bc486eabbe3a0dc86a8c5a84c1f6617040c658d0f73c686ab3d"
        )


# Violated verdicts from every producer, each call a fresh one.
VIOLATED = {
    "report-oi": lambda: locality_report(pr_box()).outcome_independence,
    "report-bf": lambda: locality_report(pr_box()).bell_factorizable,
    "report-cd": lambda: locality_report(pr_box()).conditioned_parameter_dependence,
    "report-ns": lambda: locality_report(hv_box(0.3)).no_signaling,
    "no_signaling": lambda: no_signaling(hv_box(0.3)),
    "parameter_independence": lambda: parameter_independence(hv_box(0.3)),
    "outcome_independence": lambda: outcome_independence(pr_box()),
    "bell_factorizable": lambda: bell_factorizable(pr_box()),
    "conditioned_dependence": lambda: conditioned_dependence(pr_box()),
    "negative_zeros": lambda: outcome_independence(GOLDEN_TABLES["pr_negative_zeros"]()),
    "lambda_sweep": lambda: lambda_sweep([LambdaDist.from_p0(0.3)])[0].no_signaling,
}


def eager(verdict):
    """The same verdict built by the public constructor, one Witness at a time."""
    return Verdict(False, tuple(Witness(w.x, w.y, w.a, w.b, w.lhs, w.rhs, w.side)
                                for w in verdict.witnesses))


@pytest.mark.parametrize("make", VIOLATED.values(), ids=VIOLATED.keys())
class TestLazyWitnesses:
    """A violated verdict from the analyses holds its witnesses from the start
    and behaves in every way like one built with them by the public constructor."""

    def test_fields_are_its_whole_state(self, make):
        verdict = make()
        assert set(vars(verdict)) == {"holds", "witnesses"}
        assert type(verdict.witnesses) is tuple and verdict.witnesses
        assert all(type(w) is Witness for w in verdict.witnesses)

    def test_equal_and_same_hash_as_eager(self, make):
        twin = eager(make())
        assert make() == twin and twin == make()
        assert hash(make()) == hash(twin)
        assert make() != Verdict(False, twin.witnesses[:-1] or twin.witnesses * 2)

    def test_repr_unchanged(self, make):
        assert repr(make()) == repr(eager(make()))

    def test_pickle_before_and_after_first_read(self, make):
        twin = eager(make())
        unread, read = make(), make()
        read.witnesses
        for verdict in unread, read:
            back = pickle.loads(pickle.dumps(verdict))
            assert back == twin and repr(back) == repr(twin)
            assert json.dumps(back.as_dict()) == json.dumps(twin.as_dict())
        assert pickle.dumps(unread) == pickle.dumps(read)

    def test_copy_asdict_replace(self, make):
        twin = eager(make())
        assert copy.copy(make()) == twin
        assert copy.deepcopy(make()) == twin
        assert dataclasses.asdict(make()) == dataclasses.asdict(twin)
        assert dataclasses.replace(make()) == twin
        with pytest.raises(ValueError):
            dataclasses.replace(make(), holds=True)

    def test_as_dict_same_before_and_after_read(self, make):
        verdict = make()
        before = json.dumps(verdict.as_dict())
        verdict.witnesses
        assert json.dumps(verdict.as_dict()) == before == json.dumps(eager(verdict).as_dict())
        assert verdict.as_dict()["witnesses"] == [w.as_row() for w in verdict.witnesses]
