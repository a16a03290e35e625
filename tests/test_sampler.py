import copy
import dataclasses
import hashlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbox import (
    OPTIMAL_CHSH_ANGLES,
    BoxFormatError,
    BoxTable,
    EmpiricalTable,
    HVModel,
    InsufficientTrialsError,
    LambdaDist,
    all_deterministic_boxes,
    compare,
    convex_mix,
    deterministic_local_box,
    empirical_chsh,
    hv_to_box,
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
from prbox import sampler
from prbox.sampler import SETTING_PAIRS, SampleRecord

SEED = 20260810


class TestDeterminism:
    def test_identical_runs_are_identical(self):
        t1 = sample_box(pr_box(), 5000, SEED)
        t2 = sample_box(pr_box(), 5000, SEED)
        assert np.array_equal(t1.counts, t2.counts)
        assert t1.to_csv() == t2.to_csv()

    def test_records_are_reproducible(self):
        r1 = sample_box_records(pr_box(), 200, SEED)
        r2 = sample_box_records(pr_box(), 200, SEED)
        assert r1 == r2

    def test_different_seeds_differ(self):
        t1 = sample_box(pr_box(), 5000, 1)
        t2 = sample_box(pr_box(), 5000, 2)
        assert not np.array_equal(t1.counts, t2.counts)

    def test_hv_runs_are_reproducible(self):
        m = pr_hv_model(LambdaDist.from_p0(0.3))
        assert np.array_equal(
            sample_hv(m, 3000, SEED).counts, sample_hv(m, 3000, SEED).counts
        )
        assert sample_hv_records(m, 100, SEED) == sample_hv_records(m, 100, SEED)


class TestRecordCountConsistency:
    def test_box_records_recount_to_counts(self):
        table = sample_box(pr_box(), 500, SEED)
        recount = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for r in sample_box_records(pr_box(), 500, SEED):
            recount[r.x, r.y, r.a, r.b] += 1
        assert np.array_equal(recount, table.counts)

    def test_hv_records_recount_to_counts(self):
        m = pr_hv_model(LambdaDist.from_p0(0.7))
        table = sample_hv(m, 500, SEED)
        recount = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for r in sample_hv_records(m, 500, SEED):
            recount[r.x, r.y, r.a, r.b] += 1
        assert np.array_equal(recount, table.counts)


class TestConstraintPreservation:
    def test_box_sampling_never_hits_forbidden_cells(self):
        table = sample_box(pr_box(), 20000, SEED)
        for x, y, a, b in np.ndindex(2, 2, 2, 2):
            if (a + b) % 2 != x * y:
                assert table.counts[x, y, a, b] == 0

    def test_every_box_record_satisfies_the_relation(self):
        for r in sample_box_records(pr_box(), 2000, SEED):
            assert (r.a + r.b) % 2 == r.x * r.y
            assert r.lambda_value is None

    def test_every_hv_record_satisfies_the_relation(self):
        m = pr_hv_model(LambdaDist.from_p0(0.4))
        for r in sample_hv_records(m, 2000, SEED):
            assert (r.a + r.b) % 2 == r.x * r.y
            assert r.lambda_value in (0, 1)


class TestPointMasses:
    def test_deterministic_box_concentrates(self):
        box = deterministic_local_box((0, 1), (1, 0))
        table = sample_box(box, 1000, SEED)
        f, g = (0, 1), (1, 0)
        for x, y in np.ndindex(2, 2):
            assert table.counts[x, y, f[x], g[y]] == 1000

    def test_deterministic_lambda_matches_its_rows(self):
        m = pr_hv_model(LambdaDist.from_p0(1.0))
        records = sample_hv_records(m, 50, SEED)
        assert all(r.lambda_value == 0 for r in records)
        for r in records:
            assert r.a == m.respond_a(r.x, r.y, 0)
            assert r.b == m.respond_b(r.x, r.y, 0)
        table = sample_hv(m, 50, SEED)
        assert compare(table, hv_to_box(m)).linf == 0.0


class TestConvergence:
    def test_balanced_hv_approaches_canonical_box(self):
        m = pr_hv_model(LambdaDist.from_p0(0.5))
        table = sample_hv(m, 100_000, SEED)
        # 4 sigma for a binomial cell at p = 1/2 and N = 1e5
        bound = 4.0 * np.sqrt(0.25 / 100_000)
        assert compare(table, pr_box()).linf < bound

    def test_empirical_chsh_tracks_exact_value(self):
        table = sample_box(pr_box(), 100_000, SEED)
        assert empirical_chsh(table).s == pytest.approx(4.0)


class TestEmpiricalChsh:
    def test_point_mass_strategy_gives_exact_two(self):
        table = sample_box(deterministic_local_box((0, 0), (0, 0)), 777, SEED)
        assert empirical_chsh(table).s == 2.0

    def test_single_record_per_setting(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, :, 0, 0] = 1
        table = EmpiricalTable(counts, np.ones((2, 2), dtype=np.int64), seed=0)
        assert empirical_chsh(table).s == 2.0

    def test_empty_setting_pair_is_an_error_naming_the_pair(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, :, 0, 0] = 1
        counts[1, 0, 0, 0] = 0
        trials = np.ones((2, 2), dtype=np.int64)
        trials[1, 0] = 0
        table = EmpiricalTable(counts, trials, seed=0)
        with pytest.raises(InsufficientTrialsError, match=r"\(x=1, y=0\)"):
            empirical_chsh(table)


class TestCompare:
    def test_identity_frequencies(self):
        box = deterministic_local_box((1, 0), (0, 1))
        table = sample_box(box, 123, SEED)
        result = compare(table, box)
        assert result.linf == 0.0
        assert len(result.per_cell) == 16
        assert all(delta == 0.0 for delta in result.per_cell.values())

    def test_per_cell_deltas_are_signed(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, :, 0, 0] = 2
        counts[:, :, 1, 1] = 2
        table = EmpiricalTable(counts, np.full((2, 2), 4, dtype=np.int64), seed=0)
        result = compare(table, pr_box())
        assert result.per_cell[(0, 0, 0, 0)] == 0.0
        assert result.per_cell[(1, 1, 0, 0)] == 0.5
        assert result.per_cell[(1, 1, 0, 1)] == -0.5
        assert result.linf == 0.5


class TestTableValidation:
    def test_count_sum_mismatch_rejected(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = 3
        with pytest.raises(ValueError):
            EmpiricalTable(counts, np.full((2, 2), 5, dtype=np.int64), seed=0)

    def test_negative_counts_rejected(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = -1
        with pytest.raises(ValueError):
            EmpiricalTable(counts, np.zeros((2, 2), dtype=np.int64), seed=0)

    @pytest.mark.parametrize("value", [1.9, np.nan, np.inf, 2.0**63])
    @pytest.mark.parametrize("field", ["counts", "trials"])
    def test_non_integer_entries_rejected(self, field, value):
        # an int64 cast would truncate 1.9 to 1 and turn the others into garbage
        counts = np.full((2, 2, 2, 2), 1.0)
        trials = np.full((2, 2), 4.0)
        (counts if field == "counts" else trials)[0, 0] = value
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            EmpiricalTable(counts, trials, seed=0)

    def test_integral_floats_accepted(self):
        table = EmpiricalTable(np.full((2, 2, 2, 2), 1.0), np.full((2, 2), 4.0), seed=0)
        assert table.counts.dtype == np.int64
        assert table.trials_per_setting.tolist() == [[4, 4], [4, 4]]

    def test_out_of_range_python_ints_rejected(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="trials must be int64 integers"):
            EmpiricalTable(counts, [[2**70, 0], [0, 0]], seed=0)

    @pytest.mark.parametrize(
        "trials, rule, entry",
        [
            ([[2**63, 0], [0, 0]], "int64 integers", "9223372036854775808"),
            ([[1.5, 0], [0, 0]], "integers", "1.5"),
        ],
        ids=["2**63", "1.5"],
    )
    def test_list_entries_are_named_as_given(self, trials, rule, entry):
        # a list mixing 2**63 with small ints is a float64 array, which would call
        # it non-integral and print it rounded
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match=f"^trials must be {rule}, got {entry}$"):
            EmpiricalTable(counts, trials, seed=0)

    @pytest.mark.parametrize("value", [2**70, 2**63, np.uint64(2**64 - 1)], ids=repr)
    def test_out_of_range_typed_arrays_rejected(self, value):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        trials = np.zeros((2, 2), dtype=np.asarray(value).dtype)  # object for 2**70, else uint64
        trials[0, 0] = value
        with pytest.raises(ValueError, match="trials must be int64 integers"):
            EmpiricalTable(counts, trials, seed=0)

    @pytest.mark.parametrize("seed", [True, np.True_, 1.5, "x", None])
    def test_seed_must_be_an_integer(self, seed):
        # as_box() would label such a table empirical(seed=True) and so on
        counts, trials = np.zeros((2, 2, 2, 2)), np.zeros((2, 2))
        with pytest.raises(ValueError, match="seed must be an integer"):
            EmpiricalTable(counts, trials, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(-5), 2**64 + 3])
    def test_integer_seed_is_kept_as_given(self, seed):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, :, 0, 0] = 1
        table = EmpiricalTable(counts, np.ones((2, 2), dtype=np.int64), seed=seed)
        assert table.seed is seed
        assert table.as_box().label == f"empirical(seed={seed})"

    @pytest.mark.parametrize("field", ["counts", "trials"])
    def test_bool_entries_rejected(self, field):
        # bool is an int subclass, so True would pass as a count of 1
        counts, trials = np.zeros((2, 2, 2, 2)), np.zeros((2, 2))
        if field == "counts":
            counts = counts.astype(bool)
        else:
            trials = trials.astype(bool)
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            EmpiricalTable(counts, trials, seed=0)

    def test_trials_must_be_positive_in_samplers(self):
        with pytest.raises(ValueError):
            sample_box(pr_box(), 0, SEED)


SAMPLERS = [
    (sample_box, pr_box()),
    (sample_box_records, pr_box()),
    (sample_hv, pr_hv_model(LambdaDist.from_p0(0.3))),
    (sample_hv_records, pr_hv_model(LambdaDist.from_p0(0.3))),
]
SAMPLER_IDS = ["box", "box_records", "hv", "hv_records"]


class TestTrialCounts:
    """Trials per setting go through the same int64 rule as EmpiricalTable:
    a value the cast would change is refused instead of truncated."""

    @pytest.mark.parametrize("trials", [2.9, 1.5, np.nan, np.inf, 2**70])
    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_non_integral_rejected(self, sample, obj, trials):
        with pytest.raises(ValueError, match="trials_per_setting must be"):
            sample(obj, trials, SEED)

    @pytest.mark.parametrize("trials", [2**70, 2**63, np.uint64(2**64 - 1)], ids=repr)
    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_beyond_int64_names_the_range(self, sample, obj, trials):
        with pytest.raises(ValueError, match="trials_per_setting must be int64 integers"):
            sample(obj, trials, SEED)

    @pytest.mark.parametrize(
        "trials", [True, np.True_, False, np.False_, 3 + 0j, np.complex128(3)], ids=repr
    )
    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_bools_and_complex_rejected(self, sample, obj, trials):
        # bool is an int subclass, so True would run one trial per setting; numpy
        # casts 3+0j to 3 with only a warning
        with pytest.raises(ValueError, match="trials_per_setting must be integers"):
            sample(obj, trials, SEED)

    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_integral_float_accepted(self, sample, obj):
        got, expected = sample(obj, 3.0, SEED), sample(obj, 3, SEED)
        if isinstance(expected, EmpiricalTable):
            assert np.array_equal(got.counts, expected.counts)
            assert np.array_equal(got.trials_per_setting, expected.trials_per_setting)
        else:
            assert got == expected


class TestCsvEmission:
    def test_counts_csv_shape(self):
        csv = sample_box(pr_box(), 10, SEED).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "x,y,a,b,count"
        assert len(lines) == 17

    def test_record_csv_lambda_blank_for_boxes(self):
        csv = records_to_csv(sample_box_records(pr_box(), 2, SEED))
        lines = csv.strip().split("\n")
        assert lines[0] == "x,y,lambda,a,b"
        assert lines[1].split(",")[2] == ""

    def test_record_csv_lambda_filled_for_hv(self):
        m = pr_hv_model(LambdaDist.from_p0(0.5))
        csv = records_to_csv(sample_hv_records(m, 2, SEED))
        for line in csv.strip().split("\n")[1:]:
            assert line.split(",")[2] in ("0", "1")


def reference_uniforms(trials, seed):
    """Per setting pair, ``Generator.random`` on the pair's Philox stream."""
    return [
        np.random.Generator(
            np.random.Philox(key=np.array([int(seed) % 2**64, pair], dtype=np.uint64))
        ).random(trials)
        for pair in range(4)
    ]


def reference_outcomes(obj, uniforms):
    """The draw written out independently on per-pair doubles u:
    ``searchsorted`` on the clipped cumulative table for a box, ``u >= p0``
    and the response functions for a model.  Returns (counts, records)."""
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    records = []
    for (x, y), u in zip(SETTING_PAIRS, uniforms):
        if isinstance(obj, HVModel):
            lambdas = (u >= obj.dist.p0).astype(np.int64)
            rows = [
                (obj.respond_a(x, y, lam), obj.respond_b(x, y, lam), lam)
                for lam in lambdas.tolist()
            ]
        else:
            cdf = np.cumsum(np.clip(obj.p[x, y].reshape(4), 0.0, None))
            cdf[-1] = 1.0
            cells = np.searchsorted(cdf, u, side="right").tolist()
            rows = [(cell >> 1, cell & 1, None) for cell in cells]
        for a, b, lam in rows:
            counts[x, y, a, b] += 1
            records.append(SampleRecord(x, y, a, b, lam))
    return counts, records


def reference_draw(obj, trials, seed):
    return reference_outcomes(obj, reference_uniforms(trials, seed))


def _parity_boxes():
    rng = np.random.default_rng(20260810)
    boxes = [pr_box(), uniform_box(), *all_deterministic_boxes()]
    for _ in range(24):
        # sparse tables, then +-1e-11 noise so that sums and entries sit
        # just off 1 and 0 on both sides
        p = rng.random((2, 2, 2, 2)) * (rng.random((2, 2, 2, 2)) < 0.6)
        p[..., 0, 0] += 1e-3
        p /= p.sum(axis=(2, 3), keepdims=True)
        p += rng.choice([-1e-11, 0.0, 1e-11], size=p.shape)
        boxes.append(BoxTable(p, "sparse"))
    return boxes


OTHER_RESPONSES = (lambda x, y, lam: (y + lam * x) % 2, lambda x, y, lam: (lam + 1 + x) % 2)
# Accepted weights with p0 + p1 just below and just above 1: lambda = 1 still
# takes every u >= p0, up to 1, so no u in [p0 + p1, 1) reaches a cell the
# model cannot give.
SLACK_DISTS = [LambdaDist(0.5, 0.5 - 5e-10), LambdaDist(0.5, 0.5 + 5e-10)]


def _canonical_and_other(dist):
    return [pr_hv_model(dist), HVModel(*OTHER_RESPONSES, dist=dist, label="other")]


SLACK_MODELS = [m for dist in SLACK_DISTS for m in _canonical_and_other(dist)]


def _parity_models():
    eps = 1e-9
    p0s = (0.0, 1.0, -eps / 2, 1 + eps / 2, 1 + 1e-10, 0.5, 0.3183098861837907)
    dists = [*map(LambdaDist.from_p0, p0s), *SLACK_DISTS]
    return [m for dist in dists for m in _canonical_and_other(dist)]


PARITY_INPUTS = _parity_boxes() + _parity_models()

EDGE_K = 3 * 2**50 + 12345
EDGE_C = EDGE_K * 2.0**-53
EDGES = [
    0.0, -1e-10, 5e-324, np.nextafter(EDGE_C, 0.0), EDGE_C, np.nextafter(EDGE_C, 1.0),
    1 - 2.0**-53, 1.0, np.nextafter(1.0, 2.0),
]


def _crafted_words():
    """Raw words whose top 53 bits sit at, just below and just above each
    edge boundary, each with its low 11 bits all 0 and all 1."""
    tops = {0, 2**53 - 1}
    for c in EDGES:
        top = math.floor(min(max(c, 0.0), 1.0) * 2**53)
        tops.update(range(top - 1, top + 2))
    tops = sorted(t for t in tops if 0 <= t < 2**53)
    return np.array([w for t in tops for w in (t << 11, t << 11 | 2047)], dtype=np.uint64)


CRAFTED_WORDS = _crafted_words()
PHILOX = np.random.Philox


class CraftedPhilox:
    """Stands in for ``np.random.Philox``: every stream, however keyed,
    yields ``CRAFTED_WORDS``."""

    def __init__(self, key):
        PHILOX(key=key)  # refuses a key the real generator would refuse
        self._next = 0

    def random_raw(self, size):
        self._next += size
        return CRAFTED_WORDS[self._next - size : self._next].copy()


class TestReferenceParity:
    """Counts, records and record CSV equal a per-pair reference draw
    exactly, for boxes and for models."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 + 3, -5])
    @pytest.mark.parametrize("trials", [1, 17, 1000])
    def test_counts_records_and_csv(self, seed, trials):
        for obj in PARITY_INPUTS:
            model = isinstance(obj, HVModel)
            counts, records = reference_draw(obj, trials, seed)
            table = (sample_hv if model else sample_box)(obj, trials, seed)
            got = (sample_hv_records if model else sample_box_records)(obj, trials, seed)
            assert np.array_equal(table.counts, counts), obj.label
            assert got == records, obj.label
            assert records_to_csv(got) == records_to_csv(records), obj.label

    @pytest.mark.parametrize("seed", [0, 7, -5])
    def test_boundaries_tie_with_drawn_values(self, seed):
        # Boundaries at doubles the streams draw, exact multiples of 2**-53, so
        # some trials land on a boundary; pair (0, 1) repeats one boundary.
        uniforms = reference_uniforms(50, seed)
        rows = []
        for pair, u in enumerate(uniforms):
            bounds = np.sort(u[[3, 17, 17 if pair == 1 else 29]])
            rows.append(np.diff(bounds, prepend=0.0, append=1.0))
            assert np.array_equal(np.cumsum(rows[-1])[:3], bounds)  # the cumsum is exact
        box = BoxTable(np.reshape(rows, (2, 2, 2, 2)), "ties")
        model = pr_hv_model(LambdaDist.from_p0(uniforms[2][9]))
        for obj, sample, sample_records in (
            (box, sample_box, sample_box_records),
            (model, sample_hv, sample_hv_records),
        ):
            counts, records = reference_outcomes(obj, uniforms)
            assert np.array_equal(sample(obj, 50, seed).counts, counts), obj.label
            assert sample_records(obj, 50, seed) == records, obj.label


class TestRawWords:
    """The sampler reads raw Philox words w and compares w >> 11 with integer
    thresholds; that is exact only because ``Generator.random`` returns
    u = (w >> 11) * 2**-53."""

    @pytest.mark.parametrize("key", [(0, 0), (7, 3), (2**64 - 1, 1), (SEED, 2)])
    def test_random_is_the_top_53_bits_of_a_word(self, key):
        key = np.array(key, dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(5000)
        u = np.random.Generator(np.random.Philox(key=key)).random(5000)
        assert ((words >> 11) * 2.0**-53).tobytes() == u.tobytes()

    @pytest.mark.parametrize("p0", EDGES, ids=repr)
    def test_model_boundary_on_crafted_words(self, monkeypatch, p0):
        self.check_crafted(monkeypatch, pr_hv_model(LambdaDist.from_p0(p0)))

    @pytest.mark.parametrize(
        "model", SLACK_MODELS, ids=[f"{m.label}-p1={m.dist.p1!r}" for m in SLACK_MODELS]
    )
    def test_slack_models_on_crafted_words(self, monkeypatch, model):
        self.check_crafted(monkeypatch, model)

    def test_box_boundaries_on_crafted_words(self, monkeypatch):
        c, ulp = EDGE_C, 2.0**-53
        rows = [
            [0.0, 5e-324, 0.0, 1.0],  # boundaries 0, 5e-324, 5e-324
            [np.nextafter(c, 0.0), 0.0, 0.0, 1.0 - np.nextafter(c, 0.0)],  # three equal boundaries
            [c, ulp, 1 - ulp - c - ulp, ulp],  # c, c + 2**-53 and 1 - 2**-53, all exact
            [-1e-10, 1.0, 2.0**-52, 0.0],  # clipped to 0, then 1 and nextafter(1, 2)
        ]
        box = BoxTable(np.reshape(rows, (2, 2, 2, 2)), "edges")
        self.check_crafted(monkeypatch, box)

    @staticmethod
    def check_crafted(monkeypatch, obj):
        trials = len(CRAFTED_WORDS)
        counts, records = reference_outcomes(obj, [(CRAFTED_WORDS >> 11) * 2.0**-53] * 4)
        model = isinstance(obj, HVModel)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "Philox", CraftedPhilox)
            table = (sample_hv if model else sample_box)(obj, trials, SEED)
            got = (sample_hv_records if model else sample_box_records)(obj, trials, SEED)
        assert np.array_equal(table.counts, counts)
        assert got == records


class TestInvalidTables:
    """A finite table that fails validation at the default eps is refused,
    not sampled as if its entries were a distribution."""

    @pytest.mark.parametrize("sample", [sample_box, sample_box_records])
    @pytest.mark.parametrize(
        ("entries", "issue"),
        [({(0, 0): 0.5}, r"normalization violated at \(x=0, y=0\): sum=2.0"),
         # one entry below 0, its setting pair still summing to 1
         ({(1, 0, 1, 1): -0.25, (1, 0, 0, 0): 0.75},
          r"entry out of \[0, 1\] at \(x=1, y=0, a=1, b=1\): -0.25")],
        ids=["normalization", "range"],
    )
    def test_rejected(self, sample, entries, issue):
        p = uniform_box().p.copy()
        for cell, value in entries.items():
            p[cell] = value
        with pytest.raises(BoxFormatError, match=f"^table fails validation: {issue}$"):
            sample(BoxTable(p, "bad"), 1000, 1)


class TestNonFiniteTables:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sample", [sample_box, sample_box_records])
    def test_rejected(self, sample, value):
        p = pr_box().p.copy()
        p[0, 1, 1, 1] = value
        with pytest.raises(ValueError, match=r"non-finite entry at \(x=0, y=1, a=1, b=1\)"):
            sample(BoxTable(p, "bad"), 10, SEED)

    @pytest.mark.parametrize("sample", [sample_box, sample_box_records])
    def test_all_nan_rejected(self, sample):
        with pytest.raises(ValueError, match="non-finite"):
            sample(BoxTable(np.full((2, 2, 2, 2), np.nan)), 10, SEED)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_compare_rejected(self, value):
        table = sample_box(pr_box(), 10, SEED)
        p = pr_box().p.copy()
        p[1, 0, 0, 1] = value
        with pytest.raises(ValueError, match=r"non-finite entry at \(x=1, y=0, a=0, b=1\)"):
            compare(table, BoxTable(p, "bad"))


class TestSeeds:
    """A seed is an int of any size, taken mod 2**64; anything else would
    draw one stream and label the table with another value."""

    @pytest.mark.parametrize("seed", [1.5, np.nan, np.inf, "7", 2.0, np.float64(3.0)])
    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_non_integer_rejected(self, sample, obj, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(obj, 50, seed)

    @pytest.mark.parametrize("seed", [True, False, np.True_, np.False_])
    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_bools_rejected(self, sample, obj, seed):
        # bool is an int subclass, so True would draw the seed-1 stream
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(obj, 50, seed)

    @pytest.mark.parametrize(
        "seed, same",
        [(-5, 2**64 - 5), (2**64 + 3, 3), (np.int64(-5), -5), (np.uint64(2**64 - 1), -1),
         (np.int8(7), 7), (2**200 + 11, 2**200 % 2**64 + 11)],
    )
    @pytest.mark.parametrize("sample, obj", SAMPLERS, ids=SAMPLER_IDS)
    def test_integers_keep_their_mod_2_64_meaning(self, sample, obj, seed, same):
        got, expected = sample(obj, 40, seed), sample(obj, 40, same)
        if isinstance(expected, EmpiricalTable):
            assert np.array_equal(got.counts, expected.counts)
            assert got.seed is seed
        else:
            assert got == expected


CHUNK = sampler._CHUNK
OTHER_MODEL = PARITY_INPUTS[-1]
# a sparse, noisy table (three boundaries, clipped cells) and a model whose
# responses differ from the canonical ones
CHUNK_INPUTS = [_parity_boxes()[-1], OTHER_MODEL]


def _views(obj, trials, seed):
    """Counts, records repr and records CSV of one run."""
    model = isinstance(obj, HVModel)
    table = (sample_hv if model else sample_box)(obj, trials, seed)
    records = (sample_hv_records if model else sample_box_records)(obj, trials, seed)
    return table.counts.tolist(), repr(records), records_to_csv(records)


class TestChunking:
    """Philox output does not depend on how it is split into calls, so the
    chunk size changes no output bit."""

    @pytest.mark.parametrize("chunk", [7, 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, -5])
    def test_bit_identical_to_the_default_chunk(self, monkeypatch, chunk, seed):
        for trials in (1, 17, 1000, CHUNK - 1, CHUNK, CHUNK + 1):
            for obj in CHUNK_INPUTS:
                expected = _views(obj, trials, seed)
                with monkeypatch.context() as patch:
                    patch.setattr(sampler, "_CHUNK", chunk)
                    assert _views(obj, trials, seed) == expected, (obj.label, trials)


def _words(pairs):
    """Each pair's chunks of ``_draw``, read in the order given, joined."""
    return [np.concatenate(list(chunks)).tobytes() for *_, chunks in pairs]


class TestStreams:
    """Each setting pair's words come from its own generator, opened by the key
    (seed mod 2**64, 2x + y), so the pairs may be read in any order."""

    @pytest.mark.parametrize("seed", [0, -5, 2**63, 2**64 + 3, 2**70])
    @pytest.mark.parametrize("trials", [1, CHUNK, CHUNK + 1])
    def test_each_pair_reads_its_keyed_philox_stream(self, seed, trials):
        for pair, words in enumerate(_words(sampler._draw(pr_box(), trials, seed))):
            key = np.array([seed % 2**64, pair], dtype=np.uint64)
            assert words == np.random.Philox(key=key).random_raw(trials).tobytes(), pair

    @pytest.mark.parametrize("seed", [0, -5, 2**70])
    @pytest.mark.parametrize("trials", [1, CHUNK + 1])
    def test_pairs_read_last_to_first_give_the_same_words(self, seed, trials):
        in_order = _words(sampler._draw(OTHER_MODEL, trials, seed))
        backwards = _words(reversed(list(sampler._draw(OTHER_MODEL, trials, seed))))
        assert backwards[::-1] == in_order


GOLDEN_INPUTS = {
    "pr": pr_box(),
    "singlet": singlet_box(OPTIMAL_CHSH_ANGLES),
    "local16": convex_mix(all_deterministic_boxes(), np.arange(1, 17) / 136, label="local16"),
    **{f"hv{p0}": pr_hv_model(LambdaDist.from_p0(p0)) for p0 in (0.0, 0.37, 1.0)},
}
# SHA-256 of the counts JSON and of the records CSV of every run at these
# trials and seeds, in this order, made with numpy 2.4.6
GOLDEN_DIGESTS = {
    "pr": ("e0335c03f76577444e4206bb2a32842001d0fca7893f4462e12cfa19da28f551",
           "4660ac37efc076b4c77955034a8e4e30acd29c346648a11a02644771b6ce8b1e"),
    "singlet": ("9c2b253a15d780c42f1e2780a9797fe1cf5a87708e6f5778265812dec99fd62b",
                "288e5759daf3417e22193faf4a33b74bad2b094659a80d2b4abbdd99fcbd1c07"),
    "local16": ("60311b1fb3fc4d2ef81402f21cbe4c13f03085ac10b4e6fe68d54bdf2389daf5",
                "12461b65c4d38a861d06d0b814c33489b0945b36899f047145f567759082098f"),
    "hv0.0": ("20d2c962adbad8a9965b45bd427ed0dc69900285c3aedca5664d089af8be0b13",
              "35200adceede81bd88946bc5397d0e21ac86825cef5101726cd40e9663b2fa11"),
    "hv0.37": ("e3faf0deb37121c6a0aa6983cdf0ab50a0e51e1b304ecf9146c9e3a61482d043",
               "8a659db3db21ff72f243bad089c2e1e8df691dfb634356a4a9fbb998341984af"),
    "hv1.0": ("0c6a7183802a3eb3de3b6f2c730aa4ff28abc6172aa7bff88d5f3e6941cd9223",
              "33e585af0346d457b007a2ddfcdf7cd9e33e26444f46db27c9c9274d9e1d4c8e"),
}
GOLDEN_RUNS = [(trials, seed) for trials in (1, 10, CHUNK, CHUNK + 1) for seed in (0, 2**64 + 3)]


class TestGoldenDigests:
    """Counts and records keep their bytes, at one, a few, one chunk and one
    chunk plus one trial."""

    @pytest.mark.parametrize("name", GOLDEN_INPUTS)
    def test_counts_and_records_keep_their_bytes(self, name):
        obj, model = GOLDEN_INPUTS[name], isinstance(GOLDEN_INPUTS[name], HVModel)
        counts, records = hashlib.sha256(), hashlib.sha256()
        for trials, seed in GOLDEN_RUNS:
            table = (sample_hv if model else sample_box)(obj, trials, seed)
            counts.update(json.dumps(table.counts.tolist()).encode())
            got = (sample_hv_records if model else sample_box_records)(obj, trials, seed)
            records.update(records_to_csv(got).encode())
        assert (counts.hexdigest(), records.hexdigest()) == GOLDEN_DIGESTS[name]


class TestDrawSegments:
    """``_draw`` keeps only the nonempty (lambda, a, b) segments of each
    setting pair: their interior boundaries rise strictly inside (0, 2**53)."""

    @staticmethod
    def segments(obj):
        rows = []
        for ks, cells, records, _ in sampler._draw(obj, 1, SEED):
            ks = ks.tolist()
            assert ks == sorted(set(ks)) and all(0 < k < 2**53 for k in ks)
            assert len(cells) == len(records) == len(ks) + 1
            assert cells == [2 * r.a + r.b for r in records]
            rows.append(list(records))
        return rows

    @pytest.mark.parametrize("p0", [0.0, 0.37, 1.0, 1 + 1e-10])
    @pytest.mark.parametrize("canonical", [True, False])
    def test_a_model_has_one_segment_per_lambda_of_positive_weight(self, p0, canonical):
        model = _model(p0, canonical)
        lambdas = [lam for lam, w in enumerate((model.dist.p0, model.dist.p1)) if w > 0]
        for (x, y), records in zip(SETTING_PAIRS, self.segments(model)):
            assert records == [
                SampleRecord(x, y, model.respond_a(x, y, lam), model.respond_b(x, y, lam), lam)
                for lam in lambdas
            ]

    @pytest.mark.parametrize("box", all_deterministic_boxes(), ids=lambda t: t.label)
    def test_a_deterministic_box_has_no_boundary(self, box):
        for (x, y), records in zip(SETTING_PAIRS, self.segments(box)):
            (a, b), = zip(*np.nonzero(box.p[x, y]))
            assert records == [SampleRecord(x, y, int(a), int(b))]

    def test_the_pr_box_has_one_boundary_per_pair(self):
        for (x, y), records in zip(SETTING_PAIRS, self.segments(pr_box())):
            assert [(r.a, r.b) for r in records] == [(0, x * y), (1, 1 - x * y)]


class TestBoundedMemory:
    @pytest.mark.parametrize(
        "sample, obj",
        [(sample_box, pr_box()), (sample_hv, pr_hv_model(LambdaDist.from_p0(0.3)))],
        ids=["box", "hv"],
    )
    def test_peak_stays_small_at_a_million_trials(self, sample, obj):
        # tracemalloc sees numpy's buffers; one int64 label per trial was 32 MB
        tracemalloc.start()
        try:
            sample(obj, 1_000_000, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@st.composite
def sparse_boxes(draw):
    """Tables with zero cells, then +-1e-11 noise so that entries sit just
    below 0 (clipped) and sums just off 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random((2, 2, 2, 2)) * (rng.random((2, 2, 2, 2)) < draw(st.floats(0.2, 1.0)))
    p[..., draw(st.integers(0, 1)), draw(st.integers(0, 1))] += 1e-3
    p /= p.sum(axis=(2, 3), keepdims=True)
    p += rng.choice([-1e-11, 0.0, 1e-11], size=p.shape)
    return BoxTable(p, "sparse")


EPS = 1e-9
P0S = st.sampled_from([0.0, 1.0, -EPS / 2, 1 + EPS / 2]) | st.floats(0.0, 1.0)


def _model(p0, canonical):
    dist = LambdaDist.from_p0(p0)
    if canonical:
        return pr_hv_model(dist)
    return HVModel(OTHER_MODEL.respond_a, OTHER_MODEL.respond_b, dist, "other")


MODELS = st.builds(_model, P0S, st.booleans())
SEEDS = st.integers(-(2**70), 2**70)


def _recount(records):
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    for r in records:
        counts[r.x, r.y, r.a, r.b] += 1
    return counts


class TestViewParity:
    @given(sparse_boxes(), st.integers(1, 300), SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_box_counts_recount_the_records(self, box, trials, seed):
        records = sample_box_records(box, trials, seed)
        assert np.array_equal(sample_box(box, trials, seed).counts, _recount(records))

    @given(MODELS, st.integers(1, 300), SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_hv_counts_recount_the_records(self, model, trials, seed):
        records = sample_hv_records(model, trials, seed)
        assert np.array_equal(sample_hv(model, trials, seed).counts, _recount(records))
        for r in records:
            assert r.a == model.respond_a(r.x, r.y, r.lambda_value)
            assert r.b == model.respond_b(r.x, r.y, r.lambda_value)


def reference_csv(records):
    lines = ["x,y,lambda,a,b"]
    for r in records:
        lam = "" if r.lambda_value is None else r.lambda_value
        lines.append(f"{r.x},{r.y},{lam},{r.a},{r.b}")
    return "\n".join(lines) + "\n"


BITS = st.integers(-3, 5) | st.booleans()
OWN_RECORDS = st.builds(
    SampleRecord, BITS, BITS, BITS, BITS, st.none() | st.sampled_from([0, 1]) | st.integers()
)


class TestRecordCsv:
    @given(st.lists(OWN_RECORDS, max_size=30), st.integers(0, 50))
    @settings(max_examples=150, deadline=None)
    def test_caller_records_format_like_the_reference(self, own, shared):
        records = sample_hv_records(OTHER_MODEL, 5, shared)[:shared] + own
        records += sample_box_records(pr_box(), 3, shared)
        assert records_to_csv(records) == reference_csv(records)
        assert records_to_csv(iter(records)) == reference_csv(records)

    def test_equal_records_keep_their_own_text(self):
        # SampleRecord(True, ...) == SampleRecord(1, ...), yet it prints True
        shared = sample_box_records(deterministic_local_box((1, 1), (1, 1)), 1, SEED)
        own = [SampleRecord(True, True, True, True), SampleRecord(1, 1, 1, 1, np.int64(1))]
        assert own[0] == shared[-1]
        assert records_to_csv(own + shared) == reference_csv(own + shared)
        assert records_to_csv([]) == "x,y,lambda,a,b\n"


def pinned_line(r):
    """A record's CSV line as the module's former ``_line`` function wrote it;
    the line a record keeps must equal it."""
    return f"{r.x},{r.y},{'' if r.lambda_value is None else r.lambda_value!s},{r.a},{r.b}"


def pinned_csv(records):
    return "\n".join(["x,y,lambda,a,b", *map(pinned_line, records)]) + "\n"


def _rebuilt(r):
    """A record rebuilt as pickle rebuilds one pickled before records kept
    their line: a bare instance given the record's field dict, unformatted."""
    new = object.__new__(SampleRecord)
    new.__dict__.update({f.name: getattr(r, f.name) for f in dataclasses.fields(r)})
    return new


OWN = [
    SampleRecord(True, False, True, True),
    SampleRecord(1, 0, 1, 1, np.int64(1)),
    SampleRecord(0, 1, 0, 0, -(2**70)),
    SampleRecord(1, 1, 0, 1, 7),
    SampleRecord(np.int64(1), np.uint8(0), 1, 0, None),
    SampleRecord(False, True, False, True, True),
]
COPIES = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
    "rebuilt": _rebuilt,
}


def _sampled():
    models = [pr_hv_model(LambdaDist.from_p0(0.3)), OTHER_MODEL]
    return (
        sample_box_records(pr_box(), 40, SEED)
        + sample_box_records(_parity_boxes()[-1], 40, -5)
        + [r for m in models for r in sample_hv_records(m, 40, 7)]
    )


class TestRecordsFormatThemselves:
    """A record computes its CSV line from its fields on first use and keeps
    it; every way of getting a record gives the line the old format gives."""

    def test_sampled_records(self):
        records = _sampled()
        assert {r.lambda_value for r in records} == {None, 0, 1}
        assert records_to_csv(records) == pinned_csv(records)

    def test_caller_records(self):
        assert records_to_csv(OWN) == pinned_csv(OWN)
        assert records_to_csv(OWN).splitlines()[1] == "True,False,,True,True"

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("formatted_first", [False, True])
    def test_copies(self, how, formatted_first):
        records = list(map(_rebuilt, _sampled()[::7] + OWN))
        if formatted_first:
            records_to_csv(records)
        copies = list(map(COPIES[how], records))
        assert copies == records
        assert records_to_csv(copies) == pinned_csv(records)

    def test_a_generator_reads_like_its_list(self):
        records = _sampled() + OWN
        assert records_to_csv(r for r in records) == records_to_csv(records)
        assert records_to_csv(iter([])) == records_to_csv([]) == "x,y,lambda,a,b\n"

    def test_formatting_leaves_equality_hash_repr_and_fields_alone(self):
        records = list(map(_rebuilt, _sampled()[::5] + OWN))
        assert not any("_csv_line" in vars(r) for r in records)
        before = [(r, hash(r), repr(r), dataclasses.asdict(r)) for r in records]
        records_to_csv(records)
        after = [(r, hash(r), repr(r), dataclasses.asdict(r)) for r in records]
        assert after == before
        assert all("_csv_line" in vars(r) for r in records)


class TestSamplersTakeTheirOwnKind:
    """A sampler refuses the other kind of input instead of drawing it."""

    MODEL = pr_hv_model(LambdaDist.from_p0(0.3))

    @pytest.mark.parametrize(
        "sample, wrong, kind",
        [(sample_box, MODEL, "a BoxTable"), (sample_box_records, MODEL, "a BoxTable"),
         (sample_hv, pr_box(), "an HVModel"), (sample_hv_records, pr_box(), "an HVModel")],
        ids=SAMPLER_IDS,
    )
    def test_wrong_kind_rejected(self, sample, wrong, kind):
        got = type(wrong).__name__
        with pytest.raises(TypeError, match=f"^{sample.__name__} takes {kind}, got {got}$"):
            sample(wrong, 10, SEED)

    @pytest.mark.parametrize("wrong", [MODEL, pr_box().p, None], ids=["model", "array", "none"])
    def test_compare_takes_a_box(self, wrong):
        table = sample_box(pr_box(), 10, SEED)
        got = type(wrong).__name__
        with pytest.raises(TypeError, match=f"^compare takes a BoxTable, got {got}$"):
            compare(table, wrong)

    @pytest.mark.parametrize("wrong", [pr_box(), MODEL, None], ids=["box", "model", "none"])
    def test_empirical_readers_take_a_table(self, wrong):
        got = type(wrong).__name__
        with pytest.raises(TypeError, match=f"^empirical_chsh takes an EmpiricalTable, got {got}$"):
            empirical_chsh(wrong)
        # the empirical table is checked first, whatever the exact table is
        for exact in pr_box(), self.MODEL:
            with pytest.raises(TypeError, match=f"^compare takes an EmpiricalTable, got {got}$"):
                compare(wrong, exact)
