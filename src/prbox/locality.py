"""Witness-bearing locality analyses of bipartite boxes.

Five checks, each relative to a comparison tolerance ``eps``:

* ``no_signaling``: each party's outcome marginal is independent of the
  remote setting.
* ``parameter_independence``: the same marginal condition under its other
  name; verdicts are identical to ``no_signaling`` by construction and the
  operation exists so reports carry both vocabularies.
* ``outcome_independence``: conditioning on the remote outcome does not
  move single-party probabilities, wherever the conditioning event has
  positive probability.  Undefined conditionals are skipped, not counted
  as violations.
* ``bell_factorizable``: the joint table is the product of an x-only
  marginal for A and a y-only marginal for B.  Holds exactly when both
  outcome independence and parameter independence hold.
* ``conditioned_dependence``: conditional single-party probabilities given
  the remote *outcome* still react to the remote *setting*.  A box can
  pass the marginal parameter-independence test and still show this
  conditioned form of dependence; both are reported.

Witness convention: a witness row serializes as [x, y, a, b, lhs, rhs].
Comparisons that range over a binary coordinate record the lhs context
(coordinate value 0), with the rhs taken at value 1; an outcome slot that
does not enter the comparison holds -1.  ``Witness.side`` ("A", "B", or
"AB" for joint-vs-product comparisons) records which party's quantity was
compared so any stored row can be recomputed exactly; it is metadata and
is not serialized.

Party swap: exchanging x<->y and a<->b turns party B into party A, so each
check is written once, for A, over the whole (2, 2, 2, 2) array.  A B-side
witness is the A-side witness of the swapped table with its cell mapped
back by (x, y, a, b) -> (y, x, b, a), which also moves the -1 slot.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .box import DEFAULT_EPS, BoxTable, _check_eps, _swap


@dataclass(frozen=True)
class Witness:
    x: int
    y: int
    a: int
    b: int
    lhs: float
    rhs: float
    side: str = "A"

    def as_row(self) -> list:
        return [self.x, self.y, self.a, self.b, self.lhs, self.rhs]


def _ordered(witnesses: list[Witness]) -> tuple[Witness, ...]:
    return tuple(sorted(witnesses, key=lambda w: (w.x, w.y, w.a, w.b, w.side)))


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self) -> None:
        if self.holds != (len(self.witnesses) == 0):
            raise ValueError("a verdict is violated exactly when it has witnesses")

    @property
    def status(self) -> str:
        return "holds" if self.holds else "violated"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witnesses": [w.as_row() for w in self.witnesses],
        }


def _sides(t: BoxTable) -> Iterator[tuple[np.ndarray, str, Callable[..., tuple]]]:
    """(table, side, index map) for party A, then for party B as party A of
    the swapped table, whose cells map back by (x, y, a, b) -> (y, x, b, a)."""
    yield t.p, "A", lambda x, y, a, b: (x, y, a, b)
    yield _swap(t).p, "B", lambda x, y, a, b: (y, x, b, a)


def _conditional(p: np.ndarray, eps: float) -> np.ndarray:
    """P(A=a | x, y; B=b) at every cell; NaN where P(B=b | x, y) <= eps."""
    mb = p.sum(2, keepdims=True)
    return np.divide(p, mb, out=np.full_like(p, np.nan), where=mb > eps)


def _hits(
    lhs: np.ndarray, rhs: np.ndarray, eps: float, key: Callable[..., tuple], side: str
) -> list[Witness]:
    """A witness at each index where lhs and rhs differ by more than eps;
    ``key`` maps the index to the witness cell.  NaN cells never hit."""
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    return [
        Witness(*key(*(int(i) for i in index)), float(lhs[index]), float(rhs[index]), side)
        for index in zip(*np.nonzero(np.abs(lhs - rhs) > eps))
    ]


def no_signaling(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Marginals of each party must not depend on the other party's setting.

    A-side: P(A=a | x, y) equal for y=0 and y=1 at every (x, a).
    B-side: P(B=b | x, y) equal for x=0 and x=1 at every (y, b).
    """
    eps = _check_eps(eps)
    witnesses: list[Witness] = []
    for p, side, cell in _sides(t):
        ma = p.sum(3)
        witnesses += _hits(ma[:, 0], ma[:, 1], eps, lambda x, a: cell(x, 0, a, -1), side)
    return Verdict(not witnesses, _ordered(witnesses))


def parameter_independence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a | x, y) = P(A=a | x) and P(B=b | x, y) = P(B=b | y).

    This is the same marginal condition as :func:`no_signaling`; the two
    operations return identical verdicts on every table.
    """
    return no_signaling(t, eps)


def outcome_independence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a | x, y; B=b) = P(A=a | x, y), and symmetrically for B.

    Cells whose conditioning outcome has zero probability are vacuous and
    skipped.
    """
    eps = _check_eps(eps)
    witnesses: list[Witness] = []
    for p, side, cell in _sides(t):
        witnesses += _hits(_conditional(p, eps), p.sum(3, keepdims=True), eps, cell, side)
    return Verdict(not witnesses, _ordered(witnesses))


def bell_factorizable(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a, B=b | x, y) = P(A=a | x) * P(B=b | y).

    The single-party marginals are first certified setting-independent; if
    they are not, the verdict is violated with the no-signaling witnesses.
    Otherwise each cell is compared against marginal_a(x, 0, a) *
    marginal_b(0, y, b).
    """
    eps = _check_eps(eps)
    return _factorizable(t, eps, no_signaling(t, eps))


def _factorizable(t: BoxTable, eps: float, ns: Verdict) -> Verdict:
    if not ns.holds:
        return Verdict(False, ns.witnesses)
    ma, mb = t.p.sum(3)[:, 0], t.p.sum(2)[0]
    product = ma[:, None, :, None] * mb[None, :, None, :]
    witnesses = _hits(t.p, product, eps, lambda *cell: cell, "AB")
    return Verdict(not witnesses, _ordered(witnesses))


def conditioned_dependence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Dependence of conditional outcome probabilities on the remote setting.

    Violated (dependence present) when P(A=a | x, y; B=b) differs between
    y=0 and y=1 with both conditionals defined, or symmetrically when
    P(B=b | x, y; A=a) differs between x=0 and x=1.  This captures the
    setting dependence that survives after conditioning on the remote
    outcome, which the plain marginal test cannot see.
    """
    eps = _check_eps(eps)
    witnesses: list[Witness] = []
    for p, side, cell in _sides(t):
        c = _conditional(p, eps)
        witnesses += _hits(c[:, 0], c[:, 1], eps, lambda x, a, b: cell(x, 0, a, b), side)
    return Verdict(not witnesses, _ordered(witnesses))


@dataclass(frozen=True)
class LocalityReport:
    no_signaling: Verdict
    outcome_independence: Verdict
    parameter_independence: Verdict
    bell_factorizable: Verdict
    conditioned_parameter_dependence: Verdict

    def as_dict(self) -> dict:
        return {
            "no_signaling": self.no_signaling.as_dict(),
            "outcome_independence": self.outcome_independence.as_dict(),
            "parameter_independence": self.parameter_independence.as_dict(),
            "bell_factorizable": self.bell_factorizable.as_dict(),
            "conditioned_parameter_dependence": (
                self.conditioned_parameter_dependence.as_dict()
            ),
        }


def locality_report(t: BoxTable, eps: float = DEFAULT_EPS) -> LocalityReport:
    """Run all five analyses on one table, checking no-signaling once."""
    eps = _check_eps(eps)
    ns = no_signaling(t, eps)
    return LocalityReport(
        no_signaling=ns,
        outcome_independence=outcome_independence(t, eps),
        parameter_independence=ns,
        bell_factorizable=_factorizable(t, eps, ns),
        conditioned_parameter_dependence=conditioned_dependence(t, eps),
    )
