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
contraction's.  They are built C-contiguous because ``chsh``'s
correlation sum adds in an order that follows memory layout: a
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


def _singlet_tables(theta: np.ndarray) -> np.ndarray:
    """C-contiguous tables ``(..., 2, 2, 2, 2)`` of angle rows ``(..., 4)``
    (a0, a1, b0, b1): p(x, y, a, b) = |<v_a(theta_Ax) (x) v_b(theta_By) | psi>|^2,
    the rank-1 projector expectation, with v_0 = (c, s) and v_1 = (-s, c) at
    theta/2.

    The amplitude is (v_a0 r) v_b1 - (v_a1 r) v_b0, rounded in that order as
    the complex contraction rounds it; its real square is |.|^2 exactly.
    """
    half = np.ascontiguousarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    # v[..., setting, outcome, component] for the settings a0, a1, b0, b1
    v = np.stack([c, s, -s, c], axis=-1).reshape(*half.shape, 2, 2)
    # broadcast to [..., x, y, a, b, component]
    wa = v[..., :2, None, :, None, :] * _R
    vb = v[..., None, 2:, None, :, :]
    return (wa[..., 0] * vb[..., 1] - wa[..., 1] * vb[..., 0]) ** 2


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
    :func:`singlet_box` and ``chsh_value``, evaluated block-wise so memory
    stays bounded.  Ties keep the first maximum.  ``n_points`` and ``seed``
    follow the samplers' rules; the seed goes to ``default_rng`` unreduced.
    """
    n_points = int(_check_count(n_points, "n_points"))
    rng = np.random.default_rng(_check_seed(seed))
    samples = rng.uniform(0.0, 2.0 * math.pi, size=(n_points, 4))
    best_abs, best = -1.0, 0
    for start in range(0, n_points, _SEARCH_BLOCK):
        s = np.abs(_chsh_s(_singlet_tables(samples[start : start + _SEARCH_BLOCK]))[1])
        k = int(np.argmax(s))
        if s[k] > best_abs:
            best_abs, best = s[k], start + k
    return float(best_abs), MeasurementAngles(*samples[best])
