"""Two-qubit singlet statistics for planar spin measurements.

Measurement directions are restricted to the x-z plane, so one angle per
setting: the spin observable at angle theta is cos(theta) sigma_z +
sin(theta) sigma_x, with +1 eigenvector (cos(theta/2), sin(theta/2)) and
-1 eigenvector (-sin(theta/2), cos(theta/2)).  The eigenvalue +1 maps to
outcome 0 and -1 to outcome 1, so signed outcomes are recovered by
a' = 1 - 2a.  Joint probabilities are rank-1 projector expectations on
the 4-amplitude state vector.

The singlet has only two nonzero amplitudes, r = 1/sqrt(2) at |01> and -r
at |10>, so every other term of the generic complex contraction
``einsum("...xai,ij,...ybj->...xyab", va, psi, vb)`` is an exact zero and
each amplitude is two real products.  With C, S = fl(cos, sin(theta_Ax/2) r)
and c, s = cos, sin(theta_By/2), the table of a setting pair (x, y) is

    P = p(x, y, 0, 0) = p(x, y, 1, 1) = (C s - S c)^2
    Q = p(x, y, 0, 1) = p(x, y, 1, 0) = (C c + S s)^2

bit for bit the contraction's.  It rounds the amplitude at (0, 1) as
C c - S (-s), which is C c + S s since negation is exact; the one at (1, 1)
as fl(-S c) - fl(C (-s)), the same double as C s - S c at (0, 0); and the
one at (1, 0) as minus the one at (0, 1).  cos and sin must run on
contiguous arrays, as the contraction's do: numpy picks its vectorised
loops by memory layout, and the bits are pinned for contiguous input only.

:func:`_singlet_tables` evaluates P and Q for a block of angle rows and
fills each row's 16 cells from them.  :func:`singlet_box` reads its one row,
and the random search scores its candidate rows with ``chsh``'s evaluator on
their tables, so the search's value is, by construction, the
``chsh_value(singlet_box(angles))`` of the angles it returns.

The search scores a block in two stages.  A float32 screen
(:func:`_estimate`) reads |s| from E(x, y) = -cos(theta_Ax - theta_By),
the singlet's correlation in real arithmetic; numpy runs float32
cos in SIMD loops, several times faster than the float64 cos and sin of the
half angles.  Its error on the search's draw range is far below
``_MARGIN``, so every row whose exact |s| is the block's maximum lies
within ``_MARGIN`` of the largest estimate, and only the rows that do (about
one per block) are scored exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .box import BoxTable, _check_count, _check_seed
from .chsh import _chsh_s

__all__ = [
    "OPTIMAL_CHSH_ANGLES",
    "MeasurementAngles",
    "TwoQubitState",
    "max_chsh_over_random_angles",
    "singlet",
    "singlet_box",
]


@dataclass(frozen=True)
class MeasurementAngles:
    """Planar analyzer angles in radians: A-side for x=0,1; B-side for y=0,1."""

    theta_a0: float
    theta_a1: float
    theta_b0: float
    theta_b1: float

    def __post_init__(self) -> None:
        for name in ("theta_a0", "theta_a1", "theta_b0", "theta_b1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def a_angle(self, x: int) -> float:
        return (self.theta_a0, self.theta_a1)[x]

    def b_angle(self, y: int) -> float:
        return (self.theta_b0, self.theta_b1)[y]


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """State vector over the product basis (|00>, |01>, |10>, |11>)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (4,):
            raise ValueError(f"state needs 4 amplitudes, got shape {amp.shape}")
        norm = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"state must be normalized, got |psi|^2 = {norm}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def singlet() -> TwoQubitState:
    """The antisymmetric two-spin state (|01> - |10>) / sqrt(2)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return TwoQubitState(np.array([0.0, inv_sqrt2, -inv_sqrt2, 0.0], dtype=complex))


# Attains s = +2*sqrt(2) under the fixed combination E00 + E01 + E10 - E11,
# since the singlet correlation is -cos(theta_a - theta_b).
OPTIMAL_CHSH_ANGLES = MeasurementAngles(
    0.0, math.pi / 2, -3 * math.pi / 4, 3 * math.pi / 4
)

# The singlet's amplitude r at |01>; the one at |10> is -r, the others 0.
_R = singlet().amplitudes[1].real

# Rows of the random search evaluated per block; bounds its working memory.
_SEARCH_BLOCK = 4096

# A row is scored exactly when its estimated |s| is within this of the
# block's largest estimate: over 100 times the estimate's error bound.
_MARGIN = 1e-3

# Cell (x, y, a, b) of a table is entry 4 (a ^ b) + 2 x + y of its row's P and Q.
_CELLS = np.array([4 * (a ^ b) + 2 * x + y for x, y, a, b in np.ndindex(2, 2, 2, 2)])


def _singlet_tables(rows: np.ndarray) -> np.ndarray:
    """C-contiguous tables ``(rows, 2, 2, 2, 2)`` of angle rows ``(rows, 4)``
    (a0, a1, b0, b1): cell (x, y, a, b) is P = (C_x s_y - S_x c_y)^2 where
    a == b and Q = (C_x c_y + S_x s_y)^2 where a != b, with C, S =
    fl(cos, sin(theta_Ax / 2) r) and c, s = cos, sin(theta_By / 2)."""
    half = np.divide(rows.T, 2.0, order="C")
    cs = np.empty((2, 4, len(rows)))  # [cos, sin][a0, a1, b0, b1][row]
    np.cos(half, out=cs[0])
    np.sin(half, out=cs[1])
    cs[:, :2] *= _R
    # t[i, j, x, y] = (C, S)[i][x] * (s, c)[j][y]
    t = cs[:, None, :2, None] * cs[None, ::-1, None, 2:]
    t[0, 0] -= t[1, 1]  # C s - S c, squared to P
    t[0, 1] += t[1, 0]  # C c + S s, squared to Q
    pq = t[0]
    pq **= 2
    return pq.reshape(8, len(rows)).T.take(_CELLS, axis=1).reshape(-1, 2, 2, 2, 2)


def _estimate(rows: np.ndarray) -> np.ndarray:
    """A float32 estimate of |s| for angle rows ``(rows, 4)`` drawn from
    [0, 2 pi), from E(x, y) = -cos(theta_Ax - theta_By).

    Its error is at most about 6e-6 on that range: an angle rounds to
    float32 within 2.4e-7, a difference then within 7.2e-7, float32 cos adds
    a few ulp, and the four terms with their three adds stay under 6e-6.
    Outside that range the rounding of the angles grows with their size and
    the bound does not hold.
    """
    t = rows.T.astype(np.float32, order="C")  # [a0, a1, b0, b1][row]
    c = t[:2, None] - t[None, 2:]  # [x, y, row]
    np.cos(c, out=c)
    s = c[0, 0] + c[0, 1]
    s += c[1, 0]
    s -= c[1, 1]
    return np.abs(s, out=s)


def singlet_box(angles: MeasurementAngles) -> BoxTable:
    """Joint outcome table of planar spin measurements on the singlet."""
    theta = (angles.theta_a0, angles.theta_a1, angles.theta_b0, angles.theta_b1)
    label = "singlet:" + ",".join(f"{t:g}" for t in theta)
    return BoxTable(_singlet_tables(np.array([theta], dtype=float))[0], label)


def _block_best(rows: np.ndarray) -> tuple[float, int]:
    """The largest exact |s| of a block of drawn rows and the index of the
    first row that attains it; only the rows the screen keeps are scored."""
    est = _estimate(rows)
    cand = np.flatnonzero(est >= est.max() - _MARGIN)
    s = np.abs(_chsh_s(_singlet_tables(rows[cand]))[1])
    k = int(np.argmax(s))
    return s[k], int(cand[k])


def max_chsh_over_random_angles(
    n_points: int, seed: int
) -> tuple[float, MeasurementAngles]:
    """Random search over angle quadruples; returns (max |s|, argmax angles).

    The value is the largest |s| with the bits that :func:`singlet_box` and
    ``chsh_value`` give its row, and ties keep the first maximum.  The angles
    are drawn and evaluated block by block, so memory stays bounded; the
    stream is the one a single draw of all ``n_points`` rows gives.

    Each block is screened before it is scored.  :func:`_estimate` gives
    every row's |s| within delta of the exact |s| of its table, with delta
    about 6e-6 on the draw range [0, 2 pi).
    If a row's exact |s| is the block's maximum m, no estimate exceeds
    m + delta and the row's own is at least m - delta, so it lies within
    2 delta < ``_MARGIN`` of the largest estimate.  Every row of exact
    |s| = m is therefore a candidate, and only the candidates are scored
    exactly, in row order, so the first of them at m is the block's
    answer, as it would be if every row were scored.
    The estimate is valid only on the search's own draw range.

    ``n_points`` and ``seed`` follow the samplers' rules, except that the
    seed must be at least 0: it goes to ``default_rng`` unreduced, which
    takes no negative seed.
    """
    n_points = int(_check_count(n_points, "n_points"))
    rng = np.random.default_rng(_check_seed(seed, least=0))
    best_abs, best = -1.0, None
    for start in range(0, n_points, _SEARCH_BLOCK):
        rows = rng.uniform(0.0, 2.0 * math.pi, size=(min(_SEARCH_BLOCK, n_points - start), 4))
        s, k = _block_best(rows)
        if s > best_abs:
            best_abs, best = s, rows[k].tolist()
    return float(best_abs), MeasurementAngles(*best)
