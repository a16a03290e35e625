"""Deterministic hidden-variable models over a binary shared variable.

A model is a pair of total response functions (x, y, lambda) -> outcome
plus a distribution over lambda in {0, 1}.  The canonical nonlocal model
uses a = (x + lambda) mod 2 and b = (x + lambda - x*y) mod 2, whose
outputs satisfy a xor b = x*y for every input triple, so its lambda
average saturates the CHSH combination at 4 for *every* lambda
distribution.  Only the balanced distribution (p0 = 1/2) reproduces the
canonical no-signaling table; any other weighting leaks the remote
setting into B's observable marginal, which :func:`lambda_sweep` reports
rather than hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .box import DEFAULT_EPS, BoxTable, pr_constraint_holds, _check_eps
from .chsh import chsh_value
from .locality import Verdict, no_signaling

# Truth-table row order: y varies slowest, then x, then lambda.
TRUTH_TABLE_ORDER: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0),
    (0, 0, 1),
    (1, 0, 0),
    (1, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 1, 0),
    (1, 1, 1),
)


@dataclass(frozen=True)
class LambdaDist:
    """Distribution of the binary hidden variable."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p0) and math.isfinite(self.p1)):
            raise ValueError(
                f"lambda probabilities must be finite, got ({self.p0}, {self.p1})"
            )
        if self.p0 < -DEFAULT_EPS or self.p1 < -DEFAULT_EPS:
            raise ValueError(
                f"lambda probabilities must be nonnegative, got ({self.p0}, {self.p1})"
            )
        if abs(self.p0 + self.p1 - 1.0) > DEFAULT_EPS:
            raise ValueError(
                f"lambda probabilities must sum to 1, got {self.p0 + self.p1}"
            )

    @classmethod
    def from_p0(cls, p0: float) -> LambdaDist:
        return cls(float(p0), 1.0 - float(p0))

    def prob(self, lam: int) -> float:
        if lam not in (0, 1):
            raise ValueError(f"lambda must be 0 or 1, got {lam!r}")
        return self.p0 if lam == 0 else self.p1


@dataclass(frozen=True)
class HVModel:
    """Deterministic response functions plus a lambda distribution.

    Both response functions take the full (x, y, lambda) signature even
    when they ignore an argument; actual dependence is discovered by
    :func:`hv_dependence` instead of being encoded in the type.
    """

    respond_a: Callable[[int, int, int], int]
    respond_b: Callable[[int, int, int], int]
    dist: LambdaDist
    label: str = ""

    def __post_init__(self) -> None:
        for x, y, lam in np.ndindex(2, 2, 2):
            for name, fn in (("respond_a", self.respond_a), ("respond_b", self.respond_b)):
                out = fn(x, y, lam)
                if out not in (0, 1):
                    raise ValueError(
                        f"{name}({x}, {y}, {lam}) must be 0 or 1, got {out!r}"
                    )


def pr_hv_model(dist: LambdaDist) -> HVModel:
    """The canonical nonlocal deterministic model.

    a = (x + lambda) mod 2 ignores y; b = (x + lambda - x*y) mod 2 depends
    on the remote setting x, which is the model's entire nonlocality.
    """
    return HVModel(
        respond_a=lambda x, y, lam: (x + lam) % 2,
        respond_b=lambda x, y, lam: (x + lam - x * y) % 2,
        dist=dist,
        label=f"hv:p0={dist.p0:g}",
    )


def truth_table(m: HVModel) -> list[tuple[int, int, int, int, int]]:
    """All 8 rows (x, y, lambda, a, b) in the canonical row order."""
    return [
        (x, y, lam, m.respond_a(x, y, lam), m.respond_b(x, y, lam))
        for x, y, lam in TRUTH_TABLE_ORDER
    ]


def truth_table_csv(m: HVModel) -> str:
    """CSV emission of the truth table; byte-stable for golden tests."""
    lines = ["x,y,lambda,a,b"]
    lines += [",".join(str(v) for v in row) for row in truth_table(m)]
    return "\n".join(lines) + "\n"


def hv_to_box(m: HVModel) -> BoxTable:
    """Marginalize the hidden variable into an observable box table."""
    p = np.zeros((2, 2, 2, 2))
    for x, y, lam in np.ndindex(2, 2, 2):
        a = m.respond_a(x, y, lam)
        b = m.respond_b(x, y, lam)
        p[x, y, a, b] += m.dist.prob(lam)
    return BoxTable(p, m.label or "hv")


@dataclass(frozen=True)
class HVDependence:
    a_depends_on_y: bool
    b_depends_on_x: bool
    a_depends_on_b: bool
    b_depends_on_a: bool


def hv_dependence(m: HVModel) -> HVDependence:
    """Which inputs each response function actually reacts to.

    The cross-outcome flags are structurally False for every deterministic
    model: responses are functions of the inputs and lambda alone, so an
    outcome can never feed the other party's outcome.
    """
    a_on_y = any(
        m.respond_a(x, 0, lam) != m.respond_a(x, 1, lam)
        for x, lam in np.ndindex(2, 2)
    )
    b_on_x = any(
        m.respond_b(0, y, lam) != m.respond_b(1, y, lam)
        for y, lam in np.ndindex(2, 2)
    )
    return HVDependence(a_on_y, b_on_x, False, False)


@dataclass(frozen=True)
class SweepPoint:
    dist: LambdaDist
    chsh: float
    no_signaling: Verdict
    constraint_ok: bool

    def as_dict(self) -> dict:
        return {
            "p0": self.dist.p0,
            "chsh": self.chsh,
            "no_signaling": self.no_signaling.status,
            "constraint_ok": self.constraint_ok,
        }


def lambda_sweep(
    distributions: list[LambdaDist], eps: float = DEFAULT_EPS
) -> list[SweepPoint]:
    """Evaluate the canonical model across lambda distributions.

    For each distribution: build the model, marginalize to a box, compute
    the CHSH combination, test no-signaling, and check the defining
    relation on all positive-probability cells.  The relation and the
    CHSH value come out identical for every distribution; the no-signaling
    verdict does not, and is reported as found.
    """
    eps = _check_eps(eps)
    points = []
    for dist in distributions:
        box = hv_to_box(pr_hv_model(dist))
        points.append(
            SweepPoint(
                dist=dist,
                chsh=chsh_value(box).s,
                no_signaling=no_signaling(box, eps),
                constraint_ok=pr_constraint_holds(box, eps),
            )
        )
    return points
