import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbox import (
    OPTIMAL_CHSH_ANGLES,
    MeasurementAngles,
    TwoQubitState,
    chsh_value,
    correlation,
    max_chsh_over_random_angles,
    no_signaling,
    pr_box,
    sample_box,
    singlet,
    singlet_box,
    validate,
)
from prbox import quantum
from prbox.chsh import _chsh_s
from prbox.quantum import (
    _MARGIN,
    _SEARCH_BLOCK,
    _block_best,
    _estimate,
    _singlet_tables,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
any_angle = st.floats(allow_nan=False, allow_infinity=False)

EXTREME_ANGLES = [
    0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e308, -1e308, 5e-324, 2 * math.pi, 1e-300
]


def oracle_projector_table(angles):
    """Independent path: full 2x2 projector matrices and a 4x4 kron."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi = singlet().amplitudes

    def projector(theta, outcome):
        sign = 1.0 if outcome == 0 else -1.0
        return (np.eye(2) + sign * (math.cos(theta) * sz + math.sin(theta) * sx)) / 2.0

    p = np.zeros((2, 2, 2, 2))
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        op = np.kron(projector(angles.a_angle(x), a), projector(angles.b_angle(y), b))
        p[x, y, a, b] = float(np.real(np.conj(psi) @ op @ psi))
    return p


def einsum_reference_tables(theta):
    """The generic complex three-operand contraction over the singlet's 2x2
    amplitudes, which the tables must equal bit for bit."""
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    v = np.stack([c, s, -s, c], axis=-1).reshape(*half.shape, 2, 2)
    psi = singlet().amplitudes.reshape(2, 2)
    va, vb = v[..., :2, :, :], v[..., 2:, :, :]
    return np.abs(np.einsum("...xai,ij,...ybj->...xyab", va, psi, vb)) ** 2


def assert_same_bits_as_einsum(rows):
    """The tables of angle rows ``(rows, 4)`` are C-contiguous and have the
    bytes of the einsum's."""
    tables = _singlet_tables(rows)
    assert tables.shape == (len(rows), 2, 2, 2, 2)
    assert tables.flags.c_contiguous
    assert tables.tobytes() == einsum_reference_tables(rows).tobytes()


def assert_box_same_bits_as_einsum(row):
    """The table singlet_box fills from one angle row is the einsum's."""
    table = singlet_box(MeasurementAngles(*np.asarray(row).tolist())).p
    assert table.flags.c_contiguous
    assert table.tobytes() == einsum_reference_tables(row).tobytes()


def exact_abs_s(rows):
    """|s| of the table of each angle row ``(rows, 4)``, as the search scores it."""
    return np.abs(_chsh_s(_singlet_tables(rows))[1])


def reference_search(n_points, seed):
    """The per-point loop: one singlet_box and chsh_value per angle row; a
    row replaces the best only when its |s| is strictly greater."""
    samples = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(n_points, 4))
    best_abs, best = -1.0, None
    for row in samples:
        angles = MeasurementAngles(*row.tolist())
        s = abs(chsh_value(singlet_box(angles)).s)
        if s > best_abs:
            best_abs, best = s, angles
    return best_abs, best


class TestSingletState:
    def test_amplitudes(self):
        amp = singlet().amplitudes
        inv = 1.0 / math.sqrt(2.0)
        assert amp[0] == 0.0
        assert amp[1] == pytest.approx(inv)
        assert amp[2] == pytest.approx(-inv)
        assert amp[3] == 0.0

    def test_normalized(self):
        assert float(np.sum(np.abs(singlet().amplitudes) ** 2)) == pytest.approx(1.0)

    def test_swap_antisymmetry(self):
        amp = singlet().amplitudes.reshape(2, 2)
        assert np.allclose(amp.T, -amp)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_amplitude_rejected(self, slot):
        amp = singlet().amplitudes.copy()
        amp[slot] = np.nan
        with pytest.raises(ValueError, match="normalized"):
            TwoQubitState(amp)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            MeasurementAngles(0.0, math.nan, 0.0, 0.0)


class TestSingletBox:
    def test_equal_angles_never_agree(self):
        for theta in (0.0, 0.4, math.pi / 3, 2.2):
            box = singlet_box(MeasurementAngles(theta, theta, theta, theta))
            for x, y in np.ndindex(2, 2):
                assert box.prob(x, y, 0, 0) == pytest.approx(0.0, abs=1e-12)
                assert box.prob(x, y, 1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_correlation_matches_closed_form_on_grid(self):
        # oracle: singlet correlation is -cos(theta_a - theta_b)
        grid = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
        pairs = 0
        for ta in grid:
            for tb in grid:
                box = singlet_box(MeasurementAngles(ta, 0.0, tb, 0.0))
                assert correlation(box, 0, 0) == pytest.approx(
                    -math.cos(ta - tb), abs=1e-12
                )
                pairs += 1
        assert pairs == 100

    def test_matches_explicit_projector_arithmetic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            angles = MeasurementAngles(*rng.uniform(0, 2 * math.pi, size=4))
            box = singlet_box(angles)
            assert np.allclose(box.p, oracle_projector_table(angles), atol=1e-12)

    @given(angle, angle, angle, angle)
    @settings(max_examples=60, deadline=None)
    def test_always_valid_and_no_signaling(self, a0, a1, b0, b1):
        box = singlet_box(MeasurementAngles(a0, a1, b0, b1))
        assert validate(box).ok
        assert no_signaling(box).holds

    @given(angle, angle, angle, angle, angle)
    @settings(max_examples=40, deadline=None)
    def test_rotational_covariance(self, a0, a1, b0, b1, offset):
        base = singlet_box(MeasurementAngles(a0, a1, b0, b1))
        shifted = singlet_box(
            MeasurementAngles(a0 + offset, a1 + offset, b0 + offset, b1 + offset)
        )
        assert np.allclose(base.p, shifted.p, atol=1e-9)

    @given(st.lists(st.tuples(angle, angle, angle, angle), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_stacked_tables_equal_singlet_box_row_by_row(self, rows):
        tables = _singlet_tables(np.array(rows))
        for table, row in zip(tables, rows):
            assert singlet_box(MeasurementAngles(*row)).p.tobytes() == table.tobytes()


class TestTablesEqualTheEinsum:
    """The tables of every stack of rows, and the one singlet_box builds
    from a row, are the complex contraction's bit for bit."""

    @given(st.lists(st.tuples(any_angle, any_angle, any_angle, any_angle), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_stacked_rows(self, rows):
        assert_same_bits_as_einsum(np.array(rows))
        assert_box_same_bits_as_einsum(rows[0])

    def test_every_quadruple_of_extreme_angles(self):
        rows = np.array(list(itertools.product(EXTREME_ANGLES, repeat=4)))
        assert_same_bits_as_einsum(rows)
        for row in rows:
            assert_box_same_bits_as_einsum(row)

    def test_random_rows_over_every_magnitude(self):
        rng = np.random.default_rng(17)
        theta = np.concatenate(
            [rng.uniform(-scale, scale, size=(_SEARCH_BLOCK + 5, 4)) for scale in (2 * math.pi, 1e3)]
            + [rng.choice([-1.0, 1.0], size=(512, 4)) * 10.0 ** rng.uniform(-300, 300, (512, 4))]
        )
        assert_same_bits_as_einsum(theta)
        # strided and transposed rows give the same bits
        assert_same_bits_as_einsum(theta[::3])
        assert_same_bits_as_einsum(np.asfortranarray(theta))
        assert_same_bits_as_einsum(theta.T.copy().T)

    def test_empty_stack(self):
        theta = np.empty((0, 4))
        assert_same_bits_as_einsum(theta)

    def test_one_row_in_every_form(self):
        row = (0.3, -2.0, 1e3, 5e-324)
        assert_box_same_bits_as_einsum(row)
        assert_box_same_bits_as_einsum(np.array(row))
        assert_same_bits_as_einsum(np.array([row]))

    def test_read_only_rows(self):
        theta = np.random.default_rng(3).uniform(-10.0, 10.0, size=(9, 4))
        theta.setflags(write=False)
        assert_same_bits_as_einsum(theta)
        assert_box_same_bits_as_einsum(theta[4])


def random_blocks():
    """Angle blocks of several sizes in the search's draw range [0, 2 pi)."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        for size in (1, 2, 3, 7, 1000, _SEARCH_BLOCK):
            yield rng.uniform(0.0, 2.0 * math.pi, size=(size, 4))


class TestSearchArithmetic:
    """The search scores its candidates with ``_chsh_s`` on their tables, so
    a block's value is the first maximum of the einsum reference tables."""

    def test_search_values_equal_the_table_route(self):
        for rows in random_blocks():
            # _chsh_s sums in a layout-dependent order, so pin the layout
            tables = einsum_reference_tables(rows)
            assert tables.flags.c_contiguous
            exact = np.abs(_chsh_s(tables)[1])
            k = int(np.argmax(exact))
            s, index = _block_best(rows)
            assert (s.hex(), index) == (exact[k].hex(), k)


class TestTsirelson:
    def test_optimal_angles_attain_the_quantum_bound(self):
        result = chsh_value(singlet_box(OPTIMAL_CHSH_ANGLES))
        assert result.s == pytest.approx(TSIRELSON, abs=1e-9)

    def test_random_search_never_exceeds_the_bound(self):
        best, angles = max_chsh_over_random_angles(2000, seed=13)
        assert best <= TSIRELSON + 1e-6
        assert best > 2.0  # the search does find genuinely nonclassical points
        assert isinstance(angles, MeasurementAngles)

    @pytest.mark.parametrize(
        "n_points",
        [1, 2, _SEARCH_BLOCK - 1, _SEARCH_BLOCK, _SEARCH_BLOCK + 1, 3 * _SEARCH_BLOCK + 7],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_search_equals_the_per_point_loop(self, n_points, seed):
        # repr pins the value and all four angles bit for bit
        assert repr(max_chsh_over_random_angles(n_points, seed)) == repr(
            reference_search(n_points, seed)
        )

    @pytest.mark.parametrize(
        "seed, best_hex",
        [
            (0, "0x1.69813d8257210p+1"),
            (1, "0x1.68bca4c055cb6p+1"),
            (2, "0x1.697470d84b9cep+1"),
            (99, "0x1.699f3519e06b4p+1"),
        ],
    )
    def test_search_values_are_pinned(self, seed, best_hex):
        # the complex einsum tables gave these bits; a faster path must too
        assert max_chsh_over_random_angles(10**4, seed)[0].hex() == best_hex

    def test_search_angles_are_plain_floats(self):
        _, angles = max_chsh_over_random_angles(3 * _SEARCH_BLOCK + 7, 2)
        assert [type(t) for t in vars(angles).values()] == [float] * 4

    def test_search_memory_is_bounded_by_the_block(self):
        # all 10**6 angle rows take 32 MiB; one block's work stays far below that
        tracemalloc.start()
        try:
            max_chsh_over_random_angles(10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_search_keeps_the_first_of_tied_maxima(self, monkeypatch):
        # every row ties in the screen, and its table is the PR box's, of |s| = 4,
        # so the first sampled row must win
        monkeypatch.setattr(quantum, "_estimate", lambda rows: np.ones(len(rows), np.float32))
        monkeypatch.setattr(
            quantum,
            "_singlet_tables",
            lambda rows: np.broadcast_to(pr_box().p, (len(rows), 2, 2, 2, 2)),
        )
        n_points = 2 * _SEARCH_BLOCK + 3
        first = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, size=(n_points, 4))[0]
        assert max_chsh_over_random_angles(n_points, 4) == (4.0, MeasurementAngles(*first))

    def test_search_requires_points(self):
        with pytest.raises(ValueError):
            max_chsh_over_random_angles(0, seed=1)

    @given(n_points=st.integers(1, 2 * _SEARCH_BLOCK + 1), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=15, deadline=None)
    def test_search_equals_the_per_point_loop_on_drawn_cases(self, n_points, seed):
        assert repr(max_chsh_over_random_angles(n_points, seed)) == repr(
            reference_search(n_points, seed)
        )


def optimal_row():
    """OPTIMAL_CHSH_ANGLES in the search's draw range [0, 2 pi)."""
    return np.array(list(vars(OPTIMAL_CHSH_ANGLES).values())) % (2 * math.pi)


def assert_first_exact_maximum(block, index):
    """_block_best picks the first row of the block's largest exact |s|, as
    scoring every row would, and that row is ``index``."""
    exact = exact_abs_s(block)
    assert int(np.argmax(exact)) == index
    s, k = _block_best(block)
    assert (s.hex(), k) == (exact[index].hex(), index)


class TestSearchScreen:
    """The float32 screen keeps every row that could be its block's best."""

    def test_estimate_error_is_far_below_the_margin(self):
        rng = np.random.default_rng(29)
        worst, rows_seen = 0.0, 0
        for _ in range(80):
            for size in (1, 2, 3, 7, 1000, _SEARCH_BLOCK):
                rows = rng.uniform(0.0, 2.0 * math.pi, size=(size, 4))
                est = _estimate(rows)
                assert est.dtype == np.float32
                worst = max(worst, float(np.max(np.abs(est - exact_abs_s(rows)))))
                rows_seen += size
        assert rows_seen >= 4 * 10**5
        assert worst <= _MARGIN / 100

    def test_duplicate_maxima_keep_the_first(self):
        block = np.random.default_rng(31).uniform(0.0, 2.0 * math.pi, size=(_SEARCH_BLOCK, 4))
        block[0] = block[-1] = optimal_row()
        assert_first_exact_maximum(block, 0)

    def test_one_ulp_beats_a_larger_estimate(self):
        # a common shift of all four angles keeps s in real arithmetic, but moves
        # the exact |s| by a few ulp and the estimate by float32 roundings
        shifted = optimal_row() + np.linspace(0.0, 0.5, 200)[:, None]
        exact, est = exact_abs_s(shifted), _estimate(shifted)
        hi = int(np.argmax(exact))
        below = (exact == np.nextafter(exact[hi], 0.0)) & (est > est[hi])
        assert np.count_nonzero(below)
        lo = int(np.argmax(below))
        # in a block of random rows, the row the screen ranks higher comes first
        block = np.random.default_rng(37).uniform(0.0, 2.0 * math.pi, size=(1000, 4))
        block[500], block[501] = shifted[lo], shifted[hi]
        assert _estimate(block)[500] > _estimate(block)[501]
        assert exact_abs_s(block)[501] == np.nextafter(exact_abs_s(block)[500], 3.0)
        assert_first_exact_maximum(block, 501)


class TestSearchInputs:
    """The search takes its seed and point count by the samplers' rules."""

    @pytest.mark.parametrize(
        "seed", [None, True, False, np.True_, np.False_, 1.5, "7"], ids=repr
    )
    def test_non_integer_seeds_rejected(self, seed):
        # None would draw fresh OS entropy, True the seed-1 stream
        with pytest.raises(ValueError, match="seed must be an integer"):
            max_chsh_over_random_angles(10, seed)

    @pytest.mark.parametrize("seed", [-5, -1, np.int64(-5), -(2**70)], ids=repr)
    def test_negative_seeds_rejected(self, seed):
        # default_rng takes no negative seed, and its own error names no argument
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {int(seed)}$"):
            max_chsh_over_random_angles(10, seed)

    def test_seed_zero_accepted(self):
        assert repr(max_chsh_over_random_angles(50, 0)) == repr(reference_search(50, 0))

    @pytest.mark.parametrize(
        "n_points",
        [1.5, np.nan, np.inf, "3", "abc", None, True, np.True_, 3 + 0j, 2**70, 0, -1],
        ids=repr,
    )
    def test_counts_follow_the_sampler_rule(self, n_points):
        with pytest.raises(ValueError) as search_error:
            max_chsh_over_random_angles(n_points, 1)
        with pytest.raises(ValueError) as sampler_error:
            sample_box(pr_box(), n_points, 1)
        rule = str(sampler_error.value).removeprefix("trials_per_setting")
        assert str(search_error.value) == "n_points" + rule

    @pytest.mark.parametrize("n_points", [3.0, np.int64(3), np.float64(3.0), np.array(3)])
    def test_integral_counts_accepted(self, n_points):
        assert repr(max_chsh_over_random_angles(n_points, 5)) == repr(
            max_chsh_over_random_angles(3, 5)
        )

    @pytest.mark.parametrize(
        "seed", [np.int64(3), 2**64 + 3, np.uint64(2**64 - 1), 2**200 + 11], ids=repr
    )
    def test_integer_seeds_keep_their_results(self, seed):
        # the seed reaches default_rng unreduced, as it did before the shared rule
        assert repr(max_chsh_over_random_angles(50, seed)) == repr(reference_search(50, seed))
