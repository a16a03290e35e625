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
stack of a table and its party swap.  One plan built at import fixes, for
no-signaling, conditioned dependence, outcome independence and factorizability
in that order, where each compared cell lands (a side-1 "B" cell maps back by
(x, y, a, b) -> (y, x, b, a), -1 slot included; cells sort by (x, y, a, b,
side)) and its Witness template.  A report makes one comparison of its 72
cells and splits the hits at the check boundaries; a single check reads its
report, and a batch of tables may compare a prefix of the plan.  Each hit
fills its cell's template with its lhs and rhs values to give a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .box import DEFAULT_EPS, _C, _MA, _P, _PRODUCT, BoxTable, _check_eps, _check_type, _quantities

__all__ = [
    "LocalityReport",
    "Verdict",
    "Witness",
    "bell_factorizable",
    "conditioned_dependence",
    "locality_report",
    "no_signaling",
    "outcome_independence",
    "parameter_independence",
]


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
    """A check's outcome: it holds, or it is violated at its witnesses."""

    holds: bool
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self) -> None:
        if self.holds != (len(self.witnesses) == 0):
            raise ValueError("a verdict is violated exactly when it has witnesses")

    @property
    def status(self) -> str:
        return "holds" if self.holds else "violated"

    def as_dict(self) -> dict:
        return {"status": self.status, "witnesses": [w.as_row() for w in self.witnesses]}


_HOLDS = Verdict(True)  # frozen, so every holding verdict can be this one


def _violated(cells: list[int], lhs: list[float], rhs: list[float]) -> Verdict:
    """The violated verdict whose witnesses are these plan cells' templates
    filled with their lhs and rhs, at about a quarter of ``Witness(...)``'s cost."""
    witnesses = []
    for cell, left, right in zip(cells, lhs, rhs):
        w = object.__new__(Witness)  # frozen: fill its field dict, in field order
        (attrs := w.__dict__).update(_TEMPLATES[cell])
        attrs["lhs"], attrs["rhs"] = left, right
        witnesses.append(w)
    return Verdict(False, tuple(witnesses))


def _plan() -> tuple:
    """No-signaling, conditioned dependence, outcome independence and
    factorizability one after another, each in witness order: (lhs and rhs
    positions in the flat quantities, Witness field templates, check ends)."""
    ma = _MA[..., None]  # (side, x, y, a, b): a marginal's b slot is not compared
    comparisons = ((ma[:, :, :1], ma[:, :, 1:]), (_C[:, :, :1], _C[:, :, 1:]),
                   (_C, ma.repeat(2, -1)), (_P[None], _PRODUCT[None]))
    positions, templates, ends = [], [], []
    for lhs, rhs in comparisons:
        cells = np.indices(lhs.shape).reshape(5, -1)  # side, x, y, a, b
        cells[3:][np.array(lhs.shape[3:]) == 1] = -1
        side, cells = cells[0], np.where(cells[0] == 1, cells[[2, 1, 4, 3]], cells[1:])
        order = np.lexsort((side, *cells[::-1]))
        positions.append((lhs.ravel()[order], rhs.ravel()[order]))
        names = np.array(("A", "B") if len(lhs) == 2 else ("AB",))[side[order]].tolist()
        templates += [dict(x=x, y=y, a=a, b=b, lhs=None, rhs=None, side=s)
                      for x, y, a, b, s in zip(*cells[:, order].tolist(), names)]
        ends.append(len(templates))
    return (*map(np.concatenate, zip(*positions)), templates, ends)


_LHS_AT, _RHS_AT, _TEMPLATES, _ENDS = _plan()


def _verdicts(p: np.ndarray, eps: float, checks: int = 4) -> list[Verdict]:
    """The plan's first ``checks`` verdicts on tables (..., 2, 2, 2, 2), checks
    varying fastest: a witness at each cell differing by more than eps (NaN never does)."""
    ends, m = _ENDS[:checks], _ENDS[checks - 1]
    values = _quantities(p, eps)
    lhs, rhs = values[:, _LHS_AT[:m]].ravel(), values[:, _RHS_AT[:m]].ravel()
    hits = np.flatnonzero(np.abs(lhs - rhs) > eps)
    if not hits.size:
        return [_HOLDS] * (lhs.size // m * checks)
    cells, left, right = (hits % m).tolist(), lhs[hits].tolist(), rhs[hits].tolist()
    stops = hits.searchsorted((np.arange(0, lhs.size, m)[:, None] + ends).ravel()).tolist()
    spans = zip([0, *stops], stops)
    return [_violated(cells[i:j], left[i:j], right[i:j]) if j > i else _HOLDS for i, j in spans]


def no_signaling(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Marginals of each party must not depend on the other party's setting.

    A-side: P(A=a | x, y) equal for y=0 and y=1 at every (x, a).
    B-side: P(B=b | x, y) equal for x=0 and x=1 at every (y, b).
    """
    return _report(t, eps, "no_signaling").no_signaling


def parameter_independence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a | x, y) = P(A=a | x) and P(B=b | x, y) = P(B=b | y).

    This is the same marginal condition as :func:`no_signaling`; the two
    operations return identical verdicts on every table.
    """
    return _report(t, eps, "parameter_independence").parameter_independence


def outcome_independence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a | x, y; B=b) = P(A=a | x, y), and symmetrically for B.

    Cells whose conditioning outcome has zero probability are vacuous and
    skipped.
    """
    return _report(t, eps, "outcome_independence").outcome_independence


def bell_factorizable(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """P(A=a, B=b | x, y) = P(A=a | x) * P(B=b | y).

    The single-party marginals are first certified setting-independent; if
    they are not, the verdict is violated with the no-signaling witnesses.
    Otherwise each cell is compared against marginal_a(x, 0, a) *
    marginal_b(0, y, b).
    """
    return _report(t, eps, "bell_factorizable").bell_factorizable


def conditioned_dependence(t: BoxTable, eps: float = DEFAULT_EPS) -> Verdict:
    """Dependence of conditional outcome probabilities on the remote setting.

    Violated (dependence present) when P(A=a | x, y; B=b) differs between
    y=0 and y=1 with both conditionals defined, or symmetrically when
    P(B=b | x, y; A=a) differs between x=0 and x=1.  This captures the
    setting dependence that survives after conditioning on the remote
    outcome, which the plain marginal test cannot see.
    """
    return _report(t, eps, "conditioned_dependence").conditioned_parameter_dependence


@dataclass(frozen=True)
class LocalityReport:
    no_signaling: Verdict
    outcome_independence: Verdict
    parameter_independence: Verdict
    bell_factorizable: Verdict
    conditioned_parameter_dependence: Verdict

    def as_dict(self) -> dict:
        return {name: getattr(self, name).as_dict() for name in _REPORT_FIELDS}


_REPORT_FIELDS = tuple(f.name for f in fields(LocalityReport))


def locality_report(t: BoxTable, eps: float = DEFAULT_EPS) -> LocalityReport:
    """Run all five analyses on one table from one comparison of its 72 cells."""
    return _report(t, eps, "locality_report")


def _report(t: BoxTable, eps: float, caller: str) -> LocalityReport:
    """The report of every public analysis; a wrong input's error names ``caller``."""
    ns, cd, oi, factorizable = _verdicts(_check_type(t, BoxTable, caller).p, _check_eps(eps))
    return LocalityReport(ns, oi, ns, factorizable if ns.holds else ns, cd)
