"""Signed correlations and the CHSH combination.

Outcomes map to signs via a' = 1 - 2a (0 to +1, 1 to -1).  The combination
is fixed as s = E(0,0) + E(0,1) + E(1,0) - E(1,1), written once, in ``_form``:
of the eight sign-symmetric CHSH forms, the one with the minus on the (1,1)
term.  ``chsh_value`` returns the signed s; compare ``abs(s)`` against bounds
(2 for local models, 2*sqrt(2) for the singlet, 4 algebraically).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box import (
    DEFAULT_EPS,
    _DETERMINISTIC_LABELS,
    _DETERMINISTIC_TABLES,
    BoxTable,
    _check_bit,
    _check_bits,
    _check_type,
)

__all__ = [
    "ChshResult",
    "ClassicalBoundCertificate",
    "chsh_value",
    "classical_bound_certificate",
    "correlation",
    "signed_outcome",
]

# sign_products[a, b] = (1 - 2a) * (1 - 2b)
_SIGN_PRODUCTS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def signed_outcome(outcome: int) -> int:
    """Map outcome 0 to +1 and 1 to -1."""
    return 1 - 2 * _check_bit(outcome, "outcome")


@dataclass(frozen=True)
class ChshResult:
    """The four signed correlations E(x, y) and their CHSH combination."""

    e00: float
    e01: float
    e10: float
    e11: float
    s: float

    def __post_init__(self) -> None:
        # written as "not <=" so that NaN fails both checks
        for name in ("e00", "e01", "e10", "e11"):
            if not abs(getattr(self, name)) <= 1.0 + DEFAULT_EPS:
                raise ValueError(f"{name} out of [-1, 1]: {getattr(self, name)}")
        expected = _form(((self.e00, self.e01), (self.e10, self.e11)))
        if not abs(self.s - expected) <= DEFAULT_EPS:
            raise ValueError(f"s={self.s} inconsistent with correlations ({expected})")

    def as_dict(self) -> dict:
        return {"e": [[self.e00, self.e01], [self.e10, self.e11]], "s": self.s}


def correlation(t: BoxTable, x: int, y: int) -> float:
    """E(x, y): expectation of the product of signed outcomes, the same
    value :func:`chsh_value` reports for that setting pair."""
    p = _check_type(t, BoxTable, "correlation").p
    x, y = _check_bits(x=x, y=y)
    return float(_chsh_s(p)[0][x, y])


def _form(e):
    """E00 + E01 + E10 - E11, added in that order, of any ``e[x][y]``: floats, tuples, arrays."""
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def _chsh_s(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlations E ``(2, 2, ...)`` and s ``(...)`` of tables ``(..., 2, 2, 2, 2)``.

    The batch axes of E come last so that E[x, y] of one table is a scalar,
    not a 0-d array, which keeps the one-table case of ``chsh_value`` cheap.
    """
    e = np.einsum("...xyab,ab->xy...", p, _SIGN_PRODUCTS)
    return e, _form(e)


def chsh_value(t: BoxTable) -> ChshResult:
    e, s = _chsh_s(_check_type(t, BoxTable, "chsh_value").p)
    return ChshResult(*e.ravel().tolist(), float(s))


@dataclass(frozen=True)
class ClassicalBoundCertificate:
    max_abs_s: float
    argmax_label: str


# frozen, so it is computed once, at import, and every call shares it
_ABS_S = np.abs(_chsh_s(_DETERMINISTIC_TABLES)[1]).tolist()
_CERTIFICATE = ClassicalBoundCertificate(max(_ABS_S), _DETERMINISTIC_LABELS[np.argmax(_ABS_S)])


def classical_bound_certificate() -> ClassicalBoundCertificate:
    """Exhaustively certify the deterministic-strategy bound.

    Enumerates all 16 deterministic local boxes and returns the maximum
    |s| together with a strategy attaining it.  Every deterministic s is
    exactly +2 or -2, so the maximum is 2; mixtures cannot exceed it by
    linearity of s.
    """
    return _CERTIFICATE
