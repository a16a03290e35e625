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
contraction's.  The products run settings first: the angle rows are
transposed once to ``(4, rows)`` and every ufunc then runs along a
contiguous row axis, so a block of rows costs a few long loops rather
than one short loop per row.  One transposing copy at the end gives the
C-contiguous ``(rows, 2, 2, 2, 2)`` tables that ``chsh``'s correlation
sum needs, since it adds in an order that follows memory layout: a
transposed stack of the same tables can give different s bits.  One
array path serves both a single table and a stack of them:
:func:`singlet_box` is its one-row case and the random search runs it
over blocks of rows.
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


def _amplitude_factors(rows: np.ndarray) -> np.ndarray:
    """v[setting, component, outcome, row] of angle rows ``(rows, 4)``, the
    A settings' vectors already multiplied by r.

    A function of its own so that the half angles and their cos and sin are
    freed before :func:`_singlet_tables` allocates its products: the lower
    peak keeps the freed heap from being handed back to the system and
    faulted in again on every search block.
    """
    half = np.divide(rows.T, 2.0, order="C")
    c, s = np.cos(half), np.sin(half)
    v = np.concatenate((c, -s, s, c), axis=1).reshape(4, 2, 2, -1)
    v[:2] *= _R
    return v


def _singlet_tables(theta: np.ndarray) -> np.ndarray:
    """C-contiguous tables ``(..., 2, 2, 2, 2)`` of angle rows ``(..., 4)``
    (a0, a1, b0, b1): p(x, y, a, b) = |<v_a(theta_Ax) (x) v_b(theta_By) | psi>|^2,
    the rank-1 projector expectation, with v_0 = (c, s) and v_1 = (-s, c) at
    theta/2.

    The amplitude is (v_a0 r) v_b1 - (v_a1 r) v_b0, rounded in that order as
    the complex contraction rounds it; its real square is |.|^2 exactly.
    It is formed in place as ``[x, y, a, b, row]`` from half angles
    ``(4, rows)``, and one transposing copy puts the rows first; a single row
    needs no copy.
    """
    theta = np.asarray(theta, dtype=float)
    v = _amplitude_factors(theta.reshape(-1, 4))
    rows = v.shape[-1]
    p = v[:2, None, 0, :, None] * v[None, 2:, 1, None, :]
    p -= v[:2, None, 1, :, None] * v[None, 2:, 0, None, :]
    p **= 2
    return np.ascontiguousarray(p.reshape(16, rows).T).reshape(theta.shape[:-1] + (2, 2, 2, 2))


def singlet_box(angles: MeasurementAngles) -> BoxTable:
    """Joint outcome table of planar spin measurements on the singlet."""
    theta = (angles.theta_a0, angles.theta_a1, angles.theta_b0, angles.theta_b1)
    label = "singlet:" + ",".join(f"{t:g}" for t in theta)
    return BoxTable(_singlet_tables(theta), label)


def max_chsh_over_random_angles(
    n_points: int, seed: int
) -> tuple[float, MeasurementAngles]:
    """Random search over angle quadruples; returns (max |s|, argmax angles).

    Every point goes through the same singlet-table and CHSH arithmetic as
    :func:`singlet_box` and ``chsh_value``.  The angles are drawn and
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
        s = np.abs(_chsh_s(_singlet_tables(rows))[1])
        k = int(np.argmax(s))
        if s[k] > best_abs:
            best_abs, best = s[k], rows[k].tolist()
    return float(best_abs), MeasurementAngles(*best)
