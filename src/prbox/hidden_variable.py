"""Deterministic hidden-variable models over a binary shared variable.

A model is a pair of total response functions (x, y, lambda) -> outcome
plus a distribution over lambda in {0, 1}.  Analyses and the sampler read it
through ``_completion``: weights (p0, p1) and per lambda the box one-hot at
the cell 2a + b its responses give (a box is the one-lambda case).  The
observable box is their weighted sum, and :func:`hv_dependence` reads each
lambda-box's verdicts.  The canonical nonlocal model uses a = (x + lambda)
mod 2 and b = (x + lambda - x*y) mod 2, so a xor b = x*y at every input
triple and its average reaches CHSH 4 for *every* lambda distribution.
Only p0 = 1/2 gives the canonical no-signaling table; other weights leak
the remote setting into B's marginal, which :func:`lambda_sweep` reports.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .box import (
    _CELL_TABLES, DEFAULT_EPS, BoxTable, _check_bit, _check_eps, _check_type, _check_weights,
    _mix, _off_support,
)
from .chsh import _chsh_s
from .locality import Verdict, _verdicts

__all__ = [
    "HVDependence",
    "HVModel",
    "LambdaDist",
    "SweepPoint",
    "hv_dependence",
    "hv_to_box",
    "lambda_sweep",
    "pr_hv_model",
    "truth_table",
    "truth_table_csv",
]

# Truth-table row order: y varies slowest, then x, then lambda.
TRUTH_TABLE_ORDER = tuple((x, y, lam) for y, x, lam in np.ndindex(2, 2, 2))


@dataclass(frozen=True)
class LambdaDist:
    """Distribution of the binary hidden variable."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        # stored as the Python floats checked, so a bool or numpy weight serializes
        p0, p1 = _check_weights((self.p0, self.p1), "lambda probabilities", DEFAULT_EPS).tolist()
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    @classmethod
    def from_p0(cls, p0: float) -> LambdaDist:
        return cls(p0, 1.0 - float(p0))

    def prob(self, lam: int) -> float:
        return (self.p0, self.p1)[_check_bit(lam, "lambda")]


@dataclass(frozen=True)
class HVModel:
    """Deterministic response functions plus a lambda distribution.

    Both response functions take the full (x, y, lambda) signature even
    when they ignore an argument; actual dependence is discovered by
    :func:`hv_dependence` instead of being encoded in the type.  They are
    called only on construction, which tabulates them as the read-only
    ``responses[party, x, y, lambda]`` (party 0 is A), the one table that
    all readers use.
    """

    respond_a: Callable[[int, int, int], int]
    respond_b: Callable[[int, int, int], int]
    dist: LambdaDist
    label: str = ""
    responses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_type(self.dist, LambdaDist, "HVModel")
        responses = np.empty((2, 2, 2, 2), dtype=np.int64)
        for x, y, lam in np.ndindex(2, 2, 2):
            for party, name in enumerate(("respond_a", "respond_b")):
                out = getattr(self, name)(x, y, lam)
                responses[party, x, y, lam] = _check_bit(out, name, x, y, lam)
        responses.setflags(write=False)
        object.__setattr__(self, "responses", responses)


def pr_hv_model(dist: LambdaDist) -> HVModel:
    """The canonical nonlocal deterministic model.

    a = (x + lambda) mod 2 ignores y; b = (x + lambda - x*y) mod 2 depends
    on the remote setting x, which is the model's entire nonlocality.
    """
    _check_type(dist, LambdaDist, "pr_hv_model")
    return HVModel(
        respond_a=lambda x, y, lam: (x + lam) % 2,
        respond_b=lambda x, y, lam: (x + lam - x * y) % 2,
        dist=dist,
        label=f"hv:p0={dist.p0:g}",
    )


def truth_table(m: HVModel) -> list[tuple[int, int, int, int, int]]:
    """All 8 rows (x, y, lambda, a, b) in the canonical row order."""
    a, b = _check_type(m, HVModel, "truth_table").responses.tolist()
    return [(x, y, lam, a[x][y][lam], b[x][y][lam]) for x, y, lam in TRUTH_TABLE_ORDER]


def truth_table_csv(m: HVModel) -> str:
    """CSV emission of the truth table; byte-stable for golden tests."""
    lines = ["x,y,lambda,a,b"]
    rows = truth_table(_check_type(m, HVModel, "truth_table_csv"))
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _completion(obj: BoxTable | HVModel) -> tuple[np.ndarray, np.ndarray]:
    """(weights (n,), boxes (n, 2, 2, 2, 2)): the lambda distribution and the
    box at each lambda; a box is its own completion with one lambda."""
    if isinstance(obj, BoxTable):
        return np.ones(1), obj.p[None]
    r = obj.responses
    return np.array((obj.dist.p0, obj.dist.p1)), _CELL_TABLES[(2 * r[0] + r[1]).transpose(2, 0, 1)]


def hv_to_box(m: HVModel) -> BoxTable:
    """Marginalize the hidden variable into an observable box table."""
    return BoxTable(_mix(*_completion(_check_type(m, HVModel, "hv_to_box"))), m.label or "hv")


@dataclass(frozen=True)
class HVDependence:
    a_depends_on_y: bool
    b_depends_on_x: bool
    a_depends_on_b: bool
    b_depends_on_a: bool


def hv_dependence(m: HVModel) -> HVDependence:
    """Which remote setting and outcome each party reacts to at some lambda,
    whatever its weight: the sides ("A", "B") of the witnesses of no-signaling
    and of outcome independence on the lambda-boxes.  The outcome flags come
    out False for every deterministic model, whose lambda-boxes are one-hot."""
    boxes = _completion(_check_type(m, HVModel, "hv_dependence"))[1]
    verdicts = _verdicts(boxes, DEFAULT_EPS, checks=3)  # per lambda: ns, cd, oi
    ns, oi = ({w.side for v in verdicts[i::3] for w in v.witnesses} for i in (0, 2))
    return HVDependence("A" in ns, "B" in ns, "A" in oi, "B" in oi)


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
    distributions: Iterable[LambdaDist], eps: float = DEFAULT_EPS
) -> list[SweepPoint]:
    """Evaluate the canonical model across lambda distributions.

    The boxes are one array of the canonical model's lambda averages, and
    one call each gives every CHSH combination, every check of the defining
    relation on positive-probability cells, and every no-signaling
    comparison.  Only the no-signaling verdict differs between
    distributions, and it is reported as found.
    """
    eps = _check_eps(eps)
    distributions = list(distributions)  # read twice, so an iterator is read once here
    weights = [(_check_type(d, LambdaDist, "lambda_sweep").p0, d.p1) for d in distributions]
    family = _mix(np.reshape(weights, (-1, 2)), _completion(pr_hv_model(LambdaDist(0.5, 0.5)))[1])
    ns = _verdicts(family, eps, checks=1)  # no-signaling is the plan's first check
    ok = (~_off_support(family, eps)).tolist()
    return list(map(SweepPoint, distributions, _chsh_s(family)[1].tolist(), ns, ok))
