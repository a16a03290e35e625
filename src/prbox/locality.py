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

Party swap and witness plan: exchanging x<->y and a<->b turns party B into
party A, so each check compares A's quantities over a (side, x, y, a, b)
stack of a table and its party swap.  A plan built at import fixes where each
compared cell lands (a side-1 "B" cell maps back by (x, y, a, b) -> (y, x, b, a),
-1 slot included; cells sort by (x, y, a, b, side)) and its Witness template;
a report makes one comparison of its 72 cells in plan order and splits the
hits at the check boundaries, and a batch of tables takes the same path.
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


def _quantities(p: np.ndarray, eps: float) -> Iterator[np.ndarray]:
    """For tables (..., 2, 2, 2, 2), flat and each computed when read: marginals
    P(A=a | x, y) of tables and party swaps, the tables, products P(A=a | x, 0)
    P(B=b | 0, y), and conditionals P(A=a | x, y; B=b), NaN if P(B=b | x, y) <= eps."""
    p = np.stack((p, _swap(p)), -5)  # (..., side, x, y, a, b)
    n = p.size // 32
    ma = p.sum(-1, keepdims=True)
    yield ma.reshape(n, 16)
    yield p[..., 0, :, :, :, :].reshape(n, 16)
    mb = _swap(ma[..., ::-1, :, :, :, :])  # P(B=b | x, y) is the other side's marginal
    yield (ma[..., 0, :, :1, :, :] * mb[..., 0, :1, :, :, :]).reshape(n, 16)
    yield (p / np.where(mb > eps, mb, np.nan)).reshape(n, 32)


# (lhs, rhs) positions in the flat quantities, as (side, x, y, a, b) stacks, of
# no-signaling, conditioned dependence, outcome independence and factorizability
_STARTS = (16, 32, 48)  # of the tables, products and conditionals
_MA, _P, _PRODUCT, _C = np.split(np.arange(80).reshape(5, 2, 2, 2, 2), (1, 2, 3))
_MA = _MA.reshape(2, 2, 2, 2, 1)
_COMPARISONS = ((_MA[:, :, :1], _MA[:, :, 1:]), (_C[:, :, :1], _C[:, :, 1:]),
                (_C, _MA.repeat(2, -1)), (_P, _PRODUCT))


def _plan(*checks: int) -> tuple:
    """The chosen comparisons one after another, each in witness order: (lhs
    positions, rhs positions, Witness field templates, check ends, quantities read)."""
    positions, templates, ends = [], [], []
    for lhs, rhs in map(_COMPARISONS.__getitem__, checks):
        cells = np.indices(lhs.shape).reshape(5, -1)  # side, x, y, a, b
        cells[3:][np.array(lhs.shape[3:]) == 1] = -1
        side, cells = cells[0], np.where(cells[0] == 1, cells[[2, 1, 4, 3]], cells[1:])
        order = np.lexsort((side, *cells[::-1]))
        positions.append((lhs.ravel()[order], rhs.ravel()[order]))
        names = np.array(("A", "B") if len(lhs) == 2 else ("AB",))[side[order]].tolist()
        templates += [dict(x=x, y=y, a=a, b=b, lhs=None, rhs=None, side=s)
                      for x, y, a, b, s in zip(*cells[:, order].tolist(), names)]
        ends.append(len(templates))
    lhs_at, rhs_at = map(np.concatenate, zip(*positions))
    reads = np.searchsorted(_STARTS, max(lhs_at.max(), rhs_at.max()), "right") + 1
    return lhs_at, rhs_at, templates, np.array(ends), reads


_REPORT, _NO_SIGNALING, _FACTORIZABLE = _plan(0, 1, 2, 3), _plan(0), _plan(0, 3)
_CONDITIONED, _OUTCOME = _plan(1), _plan(2)


def _verdicts(p: np.ndarray, eps: float, plan: tuple) -> list[Verdict]:
    """The plan's verdicts on tables (..., 2, 2, 2, 2), checks varying fastest: a
    witness at each cell differing by more than eps (NaN never does)."""
    lhs_at, rhs_at, templates, ends, reads = plan
    values = np.concatenate([*islice(_quantities(p, eps), reads)], -1)
    lhs, rhs = values[:, lhs_at].ravel(), values[:, rhs_at].ravel()
    hits = np.flatnonzero(np.abs(lhs - rhs) > eps)
    witnesses, m = [], len(templates)
    if not hits.size:
        return [_HOLDS] * (lhs.size // m * len(ends))
    cells = (hits % m).tolist()
    for cell, left, right in zip(cells, lhs[hits].tolist(), rhs[hits].tolist()):
        w = object.__new__(Witness)  # frozen: fill its field dict, in field order
        (attrs := w.__dict__).update(templates[cell])
        attrs["lhs"], attrs["rhs"] = left, right
        witnesses.append(w)
    stops = hits.searchsorted((np.arange(0, lhs.size, m)[:, None] + ends).ravel()).tolist()
    spans = zip([0, *stops], stops)
    return [Verdict(False, tuple(witnesses[i:j])) if j > i else _HOLDS for i, j in spans]


def _table_verdicts(t: BoxTable, eps: float, plan: tuple) -> list[Verdict]:
    eps = _check_eps(eps)
    _check_finite(t)
    return _verdicts(t.p, eps, plan)


def no_signaling(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Marginals of each party must not depend on the other party's setting.

    A-side: P(A=a | x, y) equal for y=0 and y=1 at every (x, a).
    B-side: P(B=b | x, y) equal for x=0 and x=1 at every (y, b).
    """
    return _table_verdicts(t, eps, _NO_SIGNALING)[0]


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
    return _table_verdicts(t, eps, _OUTCOME)[0]


def bell_factorizable(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a, B=b | x, y) = P(A=a | x) * P(B=b | y).

    The single-party marginals are first certified setting-independent; if
    they are not, the verdict is violated with the no-signaling witnesses.
    Otherwise each cell is compared against marginal_a(x, 0, a) *
    marginal_b(0, y, b).
    """
    ns, factorizable = _table_verdicts(t, eps, _FACTORIZABLE)
    return factorizable if ns.holds else ns


def conditioned_dependence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Dependence of conditional outcome probabilities on the remote setting.

    Violated (dependence present) when P(A=a | x, y; B=b) differs between
    y=0 and y=1 with both conditionals defined, or symmetrically when
    P(B=b | x, y; A=a) differs between x=0 and x=1.  This captures the
    setting dependence that survives after conditioning on the remote
    outcome, which the plain marginal test cannot see.
    """
    return _table_verdicts(t, eps, _CONDITIONED)[0]


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
    """Run all five analyses on one table from one comparison of its 72 cells."""
    ns, cd, oi, factorizable = _table_verdicts(t, eps, _REPORT)
    return LocalityReport(ns, oi, ns, factorizable if ns.holds else ns, cd)
