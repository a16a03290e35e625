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
check is one comparison, for A, over a (side, ..., x, y, a, b) stack of
tables and their party swaps, built once per report or batch; one builder
makes every verdict, mapping a side-1 ("B") cell back by (x, y, a, b) ->
(y, x, b, a), -1 slot included, and sorting by (x, y, a, b, side).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .box import DEFAULT_EPS, BoxTable, _check_eps, _check_finite, _swap


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


_HOLDS = Verdict(True)  # frozen, so every holding verdict can be this one


def _pairs(p: np.ndarray, eps: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(lhs, rhs) of no-signaling, conditioned dependence, then outcome independence,
    each computed when read, as (side, ..., x, y, a, b) stacks over tables
    (..., 2, 2, 2, 2); a conditional on P(B=b | x, y) <= eps is NaN."""
    p = np.array((p, _swap(p)))
    ma = p.sum(-1, keepdims=True)
    yield ma[..., :1, :, :], ma[..., 1:, :, :]
    mb = _swap(ma[::-1])  # P(B=b | x, y) is the other side's marginal
    c = p / np.where(mb > eps, mb, np.nan)
    yield c[..., :1, :, :], c[..., 1:, :, :]
    yield c, ma.repeat(2, -1)


def _table_verdict(t: BoxTable, eps: float, k: int) -> Verdict:
    """The verdict on the k-th of one checked table's :func:`_pairs`."""
    eps = _check_eps(eps)
    _check_finite(t)
    return _verdict(*next(islice(_pairs(t.p, eps), k, None)), eps)


def _verdict(
    lhs: np.ndarray, rhs: np.ndarray, eps: float, sides: tuple[str, ...] = ("A", "B")
) -> Verdict:
    """Verdict on lhs = rhs, two (side, x, y, a, b) stacks of one shape, with
    a witness at each cell differing by more than eps (NaN never does):
    a setting axis of length one holds the lhs context 0, an outcome axis of
    length one the -1 slot, side-1 cells map back by (x, y, a, b) ->
    (y, x, b, a), and witnesses come sorted by (x, y, a, b, side)."""
    differs = np.abs(lhs - rhs) > eps
    hit = np.nonzero(differs)
    if not hit[0].size:
        return _HOLDS
    side, cells = hit[0], np.array(hit[1:])
    cells[2:][np.array(differs.shape[3:]) == 1] = -1
    cells = np.where(side == 1, cells[[1, 0, 3, 2]], cells)
    order = np.lexsort((side, *cells[::-1]))
    lhs, rhs = lhs[hit][order].tolist(), rhs[hit][order].tolist()
    labels = [sides[s] for s in side[order].tolist()]
    return Verdict(False, tuple(map(Witness, *cells[:, order].tolist(), lhs, rhs, labels)))


def no_signaling(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Marginals of each party must not depend on the other party's setting.

    A-side: P(A=a | x, y) equal for y=0 and y=1 at every (x, a).
    B-side: P(B=b | x, y) equal for x=0 and x=1 at every (y, b).
    """
    return _table_verdict(t, eps, 0)


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
    return _table_verdict(t, eps, 2)


def bell_factorizable(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a, B=b | x, y) = P(A=a | x) * P(B=b | y).

    The single-party marginals are first certified setting-independent; if
    they are not, the verdict is violated with the no-signaling witnesses.
    Otherwise each cell is compared against marginal_a(x, 0, a) *
    marginal_b(0, y, b).
    """
    return _factorizable(t, _check_eps(eps), no_signaling(t, eps))


def _factorizable(t: BoxTable, eps: float, ns: Verdict) -> Verdict:
    if not ns.holds:
        return ns
    ma, mb = t.p.sum(3)[:, 0], t.p.sum(2)[0]
    product = ma[:, None, :, None] * mb[None, :, None, :]
    return _verdict(t.p[None], product[None], eps, ("AB",))


def conditioned_dependence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Dependence of conditional outcome probabilities on the remote setting.

    Violated (dependence present) when P(A=a | x, y; B=b) differs between
    y=0 and y=1 with both conditionals defined, or symmetrically when
    P(B=b | x, y; A=a) differs between x=0 and x=1.  This captures the
    setting dependence that survives after conditioning on the remote
    outcome, which the plain marginal test cannot see.
    """
    return _table_verdict(t, eps, 1)


@dataclass(frozen=True)
class LocalityReport:
    no_signaling: Verdict
    outcome_independence: Verdict
    parameter_independence: Verdict
    bell_factorizable: Verdict
    conditioned_parameter_dependence: Verdict

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name).as_dict() for f in fields(self)}


def locality_report(t: BoxTable, eps: float = DEFAULT_EPS) -> LocalityReport:
    """Run all five analyses on one table from one pass of :func:`_pairs`."""
    eps = _check_eps(eps)
    _check_finite(t)
    ns, cd, oi = (_verdict(*pair, eps) for pair in _pairs(t.p, eps))
    return LocalityReport(
        no_signaling=ns,
        outcome_independence=oi,
        parameter_independence=ns,
        bell_factorizable=_factorizable(t, eps, ns),
        conditioned_parameter_dependence=cd,
    )
