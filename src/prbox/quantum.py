"""Two-qubit singlet statistics for planar spin measurements.

Measurement directions are restricted to the x-z plane, so one angle per
setting: the spin observable at angle theta is cos(theta) sigma_z +
sin(theta) sigma_x, with +1 eigenvector (cos(theta/2), sin(theta/2)) and
-1 eigenvector (-sin(theta/2), cos(theta/2)).  The eigenvalue +1 maps to
outcome 0 and -1 to outcome 1, so signed outcomes are recovered by
a' = 1 - 2a.  Joint probabilities are rank-1 projector expectations on
the 4-amplitude state vector.  The singlet has only two nonzero
amplitudes, +-1/sqrt(2), and every other term of the generic complex
contraction ``einsum("...xai,ij,...ybj->...xyab", va, psi, vb)`` is an
exact zero, so each expectation is evaluated as its two real products in
the contraction's own rounding order, and the tables are bit for bit the
contraction's.

Two of the four outcome cells of a setting pair repeat the other two.
With C = fl(cos(theta_A/2) r), S = fl(sin(theta_A/2) r) and c, s of
theta_B/2, the amplitude at (a, b) = (1, 1) is fl(fl(-S c) - fl(C (-s))),
the same double as fl(fl(C s) - fl(S c)) at (0, 0), and the one at (1, 0)
is minus the one at (0, 1), since negation is exact.  So every table is
p(x, y, 0, 0) = p(x, y, 1, 1) = P and p(x, y, 0, 1) = p(x, y, 1, 0) = Q,
bit for bit, and only P and Q are computed (:func:`_singlet_pq`), each
ufunc running along a contiguous axis of rows.  :func:`singlet_box` is
the one-row case of the tables filled as (P, Q, Q, P).  The random search
builds no table: ``chsh``'s einsum adds E(x, y) = P - Q - Q + P pairwise,
as (P - Q) + (P - Q), which is 2(P - Q) exactly, so the search reads its
CHSH values from P and Q directly, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .box import BoxTable, _check_count, _check_seed

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

# The factor rows are cos (0-3), sin (4-7) and -sin (8-11) of the half angles
# (a0, a1, b0, b1); the A rows are multiplied by r and the B rows by 1.0,
# which is exact.
_FACTOR_SCALE = np.array([_R, _R, 1.0, 1.0] * 2)[:, None]

# Cell (b, x, y) of the a = 0 amplitudes is f[i] f[j] - f[k] f[l], with
# ((i, k), (j, l)) = _TERMS[:, :, cell]: C_x s_y - S_x c_y at b = 0 and
# C_x c_y - S_x (-s_y) at b = 1.
_TERMS = np.array(
    [[[x, 4 + x], [(6, 2)[b] + y, (2, 10)[b] + y]] for b, x, y in np.ndindex(2, 2, 2)]
).transpose(1, 2, 0)

# Table cell (x, y, a, b) is P = pq[0, x, y] where a == b and Q = pq[1, x, y]
# where a != b.
_CELLS = np.array([4 * (a ^ b) + 2 * x + y for x, y, a, b in np.ndindex(2, 2, 2, 2)])


def _amplitude_factors(rows: np.ndarray) -> np.ndarray:
    """Factor rows f ``(12, rows)`` of angle rows ``(rows, 4)``: cos, sin and
    -sin of the half angles, the A settings' already multiplied by r."""
    half = np.divide(rows.T, 2.0, order="C")
    f = np.empty((12, len(rows)))
    np.cos(half, out=f[:4])
    np.sin(half, out=f[4:8])
    f[:8] *= _FACTOR_SCALE
    np.negative(f[4:8], out=f[8:])
    return f


def _singlet_pq(rows: np.ndarray) -> np.ndarray:
    """P and Q ``(2, 2, 2, rows)`` of angle rows ``(rows, 4)`` (a0, a1, b0,
    b1): P = pq[0] is p(x, y, 0, 0) and Q = pq[1] is p(x, y, 0, 1), each
    indexed ``[x, y, row]``.

    p(x, y, a, b) = |<v_a(theta_Ax) (x) v_b(theta_By) | psi>|^2, the rank-1
    projector expectation, with v_0 = (c, s) and v_1 = (-s, c) at theta/2.
    The amplitude is (v_a0 r) v_b1 - (v_a1 r) v_b0, rounded in that order as
    the complex contraction rounds it; its real square is |.|^2 exactly.
    """
    products, right = _amplitude_factors(rows).take(_TERMS, axis=0)  # [term, cell, row]
    products *= right
    pq = products[0] - products[1]
    pq **= 2
    return pq.reshape(2, 2, 2, len(rows))


def _singlet_tables(theta: np.ndarray) -> np.ndarray:
    """C-contiguous tables ``(..., 2, 2, 2, 2)`` of angle rows ``(..., 4)``,
    each filled as (P, Q, Q, P) from :func:`_singlet_pq`.

    One gather lays out the 16 cells of every row and one transposing copy
    puts the rows first; a single row needs no copy.
    """
    theta = np.asarray(theta, dtype=float)
    rows = theta.reshape(-1, 4)
    cells = _singlet_pq(rows).reshape(8, len(rows)).take(_CELLS, axis=0)
    return np.ascontiguousarray(cells.T).reshape(theta.shape[:-1] + (2, 2, 2, 2))


def _abs_chsh(rows: np.ndarray) -> np.ndarray:
    """|s| of each angle row ``(rows, 4)``, with the bits of
    ``abs(chsh._chsh_s(_singlet_tables(rows))[1])`` but no table.

    E = 2(P - Q) is the einsum's pairwise sum (P - Q) + (-Q + P), and s adds
    the four E in ``_chsh_s``'s order.
    """
    p, q = _singlet_pq(rows)
    e = p - q
    e *= 2.0
    s = e[0, 0] + e[0, 1]
    s += e[1, 0]
    s -= e[1, 1]
    return np.abs(s, out=s)


def singlet_box(angles: MeasurementAngles) -> BoxTable:
    """Joint outcome table of planar spin measurements on the singlet."""
    theta = (angles.theta_a0, angles.theta_a1, angles.theta_b0, angles.theta_b1)
    label = "singlet:" + ",".join(f"{t:g}" for t in theta)
    return BoxTable(_singlet_tables(theta), label)


def max_chsh_over_random_angles(
    n_points: int, seed: int
) -> tuple[float, MeasurementAngles]:
    """Random search over angle quadruples; returns (max |s|, argmax angles).

    Every point's |s| has the bits that :func:`singlet_box` and
    ``chsh_value`` give it (:func:`_abs_chsh`).  The angles are drawn and
    evaluated block by block, so memory stays bounded; the stream is the one
    a single draw of all ``n_points`` rows gives.  Ties keep the first
    maximum.  ``n_points`` and ``seed`` follow the samplers' rules; the seed
    goes to ``default_rng`` unreduced.
    """
    n_points = int(_check_count(n_points, "n_points"))
    rng = np.random.default_rng(_check_seed(seed))
    best_abs, best = -1.0, None
    for start in range(0, n_points, _SEARCH_BLOCK):
        rows = rng.uniform(0.0, 2.0 * math.pi, size=(min(_SEARCH_BLOCK, n_points - start), 4))
        s = _abs_chsh(rows)
        k = int(np.argmax(s))
        if s[k] > best_abs:
            best_abs, best = s[k], rows[k].tolist()
    return float(best_abs), MeasurementAngles(*best)
