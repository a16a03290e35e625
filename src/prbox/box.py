"""Conditional-probability tables for bipartite binary boxes.

A *box* is the full table P(a, b | x, y) over binary settings x, y and
binary outcomes a, b.  Tables are stored as read-only (2, 2, 2, 2) float
arrays indexed ``[x][y][a][b]``; this is the one object every analyzer in
the package consumes.  Every table is finite: :class:`BoxTable` refuses a
NaN or infinite entry when it is built, so no analysis can read a NaN
comparison as "no difference".  All constructors return tables that pass
:func:`validate`, every operation is a pure function of immutable inputs,
and a table may be shared across concurrent analyzers without locking.

Serialization: a box is the JSON object ``{"label": str, "p": nested}``
where ``p`` is a 4-level nested array indexed ``[x][y][a][b]``.
Deserialization re-runs :func:`validate` and rejects invalid tables.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EPS",
    "BoxFormatError",
    "BoxTable",
    "ValidationIssue",
    "ValidationResult",
    "all_deterministic_boxes",
    "conditional",
    "conditional_b",
    "convex_mix",
    "deterministic_local_box",
    "from_json",
    "marginal_a",
    "marginal_b",
    "pr_box",
    "pr_constraint_holds",
    "to_json",
    "uniform_box",
    "validate",
]

DEFAULT_EPS = 1e-9


class BoxFormatError(ValueError):
    """A serialized box is structurally malformed or fails validation."""


def _check_bit(value: int, name: str, *args: int) -> int:
    """``args``, if any, are the arguments of the call ``name`` that gave
    ``value``; they are formatted into the message only when it fails."""
    if value not in (0, 1):
        if args:
            name = f"{name}({', '.join(map(str, args))})"
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _check_bits(**bits: int) -> tuple[int, ...]:
    return tuple(_check_bit(value, name) for name, value in bits.items())


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < math.inf:  # NaN fails too; at inf every comparison passes
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return eps


def _check_seed(seed: int, least: int | None = None) -> int:
    """An int of any size, at least ``least`` if that is given; True, 1.5, NaN or
    "7" would silently mislabel a stream."""
    try:
        if isinstance(seed, (bool, np.bool_)):
            raise TypeError
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if least is not None and value < least:
        raise ValueError(f"seed must be >= {least}, got {value}")
    return value


def _check_type(value: object, kind: type, caller: str) -> object:
    """``value`` itself if it is a ``kind``; a box passed where a model belongs,
    or the reverse, would otherwise be drawn as the other or fail deep inside."""
    if not isinstance(value, kind):  # "an" before a vowel sound: EmpiricalTable, HVModel
        article = "an" if kind.__name__[0] in "AEHIO" else "a"
        raise TypeError(f"{caller} takes {article} {kind.__name__}, got {type(value).__name__}")
    return value


def _check_count(values: object, name: str, least: int = 1) -> np.ndarray:
    """An int64 copy of ``values``; ValueError at bools or complex numbers (True
    would pass as 1, 3+0j as 3), at values the cast refuses ("abc", None), at
    the first entry the cast would change (a fraction, NaN, inf or a value out
    of range) and at an entry below ``least``."""
    raw = np.asarray(values)
    if raw.dtype.kind in "bc":
        raise ValueError(f"{name} must be integers, got {values!r}")
    try:  # a float cast warns at NaN, inf or out of range; the checks below refuse those
        with np.errstate(invalid="ignore"):
            cast = raw.astype(np.int64)
    except OverflowError:
        raise ValueError(f"{name} must be int64 integers, got {values!r}") from None
    except (TypeError, ValueError):  # a string int() cannot parse, None, an object
        raise ValueError(f"{name} must be integers, got {values!r}") from None
    for bad, rule in (cast != raw, "integers"), (cast < least, f">= {least}"):
        if np.count_nonzero(bad):  # about a third of np.any's cost on a scalar's 0-d result
            # the entry as given: a list that mixes ints above the int64 range
            # with small ones is float64 in raw, which rounds them
            first = np.asarray(values, dtype=object)[bad][0]
            if isinstance(first, np.generic):
                first = first.item()
            if rule == "integers" and isinstance(first, numbers.Integral):
                rule = "int64 integers"  # an integer the cast changes is out of range
            raise ValueError(f"{name} must be {rule}, got {first!r}")
    return cast


def _check_weights(values: Sequence[float], name: str, eps: float) -> np.ndarray:
    """``values`` as a float array: the rule for a probability vector, whose
    entries are finite, at least -eps each and sum to 1 within eps."""
    finite = all(map(math.isfinite, values))  # TypeError at "0.5", which float() would parse
    w = np.asarray(values, dtype=float)
    listed = w.tolist()
    if not finite:
        raise ValueError(f"{name} must be finite, got {listed}")
    if min(listed) < -eps:
        raise ValueError(f"{name} must be nonnegative, got {listed}")
    total = float(w.sum())  # numpy's summation order, which long mixtures depend on
    if abs(total - 1.0) > eps:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return w


@dataclass(frozen=True, eq=False)
class BoxTable:
    """Joint conditional distribution of a bipartite binary box.

    ``p[x, y, a, b]`` is the probability of outcomes (a, b) given settings
    (x, y).  The array is coerced to float64 and frozen on construction;
    derive new tables instead of mutating.  Construction refuses (BoxFormatError)
    a bad label or shape and the first NaN or infinite entry in (x, y, a, b) order.
    """

    p: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise BoxFormatError(f"label must be a string, got {self.label!r}")
        arr = np.array(self.p, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise BoxFormatError(
                f"box table must be nested [x][y][a][b] with two values per level, "
                f"i.e. have shape (2, 2, 2, 2), got {arr.shape}"
            )
        if not all(map(math.isfinite, arr.ravel().tolist())):
            x, y, a, b = np.argwhere(~np.isfinite(arr))[0].tolist()
            cell = f"(x={x}, y={y}, a={a}, b={b}): {float(arr[x, y, a, b])}"
            raise BoxFormatError(f"box {self.label!r}: non-finite entry at {cell}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def prob(self, x: int, y: int, a: int, b: int) -> float:
        return float(self.p[_check_bits(x=x, y=y, a=a, b=b)])

    def relabel(self, label: str) -> BoxTable:
        return BoxTable(self.p, label)

    def allclose(self, other: BoxTable, eps: float = DEFAULT_EPS) -> bool:
        return bool(np.max(np.abs(self.p - other.p)) <= _check_eps(eps))

    def to_dict(self) -> dict:
        return {"label": self.label, "p": self.p.tolist()}

    @classmethod
    def from_dict(cls, data: object, eps: float = DEFAULT_EPS) -> BoxTable:
        """Rebuild a table from its JSON form, re-running validation."""
        if not isinstance(data, dict):
            raise BoxFormatError(f"expected a JSON object, got {type(data).__name__}")
        if "p" not in data:
            raise BoxFormatError("missing entry table 'p'")
        try:
            arr = np.asarray(data["p"])
        except (TypeError, ValueError) as exc:
            raise BoxFormatError(f"entry table is not numeric: {exc}") from None
        if arr.dtype.kind not in "iuf":
            raise BoxFormatError(
                f"entry table must hold JSON numbers, got dtype {arr.dtype}"
            )
        return _require_valid(cls(arr, data.get("label", "")), eps)


@dataclass(frozen=True)
class ValidationIssue:
    """One violated table invariant.

    ``kind`` is ``"normalization"`` (value = the offending setting-pair sum,
    a and b are None) or ``"range"`` (value = the out-of-range entry).  A
    non-finite entry is no issue: no table can hold one.
    """

    kind: str
    x: int
    y: int
    a: int | None
    b: int | None
    value: float

    def __str__(self) -> str:
        if self.kind == "normalization":
            return f"normalization violated at (x={self.x}, y={self.y}): sum={self.value}"
        return (
            f"entry out of [0, 1] at (x={self.x}, y={self.y}, a={self.a}, "
            f"b={self.b}): {self.value}"
        )


@dataclass(frozen=True)
class ValidationResult:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


_VALID = ValidationResult(())  # frozen, so every valid table can share it


def validate(t: BoxTable, eps: float = DEFAULT_EPS) -> ValidationResult:
    """Check normalization per setting pair and entrywise range.

    Returns a verdict rather than raising: every setting pair must sum to 1
    within ``eps`` and every entry must lie in [0, 1] within ``eps``.  Issues
    come in (x, y, a, b) order, normalization first.  Entries are finite
    already, since :class:`BoxTable` refuses any other.
    """
    _check_type(t, BoxTable, "validate")
    eps = _check_eps(eps)
    totals = t.p.sum(axis=(2, 3))
    if (np.abs(totals - 1.0) <= eps).all() and ((t.p >= -eps) & (t.p <= 1.0 + eps)).all():
        return _VALID
    issues = [
        ValidationIssue("normalization", int(x), int(y), None, None, float(totals[x, y]))
        for x, y in np.argwhere(np.abs(totals - 1.0) > eps)
    ]
    issues += [
        ValidationIssue("range", int(x), int(y), int(a), int(b), float(t.p[x, y, a, b]))
        for x, y, a, b in np.argwhere((t.p < -eps) | (t.p > 1.0 + eps))
    ]
    return ValidationResult(tuple(issues))


def _require_valid(t: BoxTable, eps: float) -> BoxTable:
    """``t`` itself, or BoxFormatError listing every issue :func:`validate` finds."""
    result = validate(t, eps)
    if not result.ok:
        raise BoxFormatError("table fails validation: " + "; ".join(map(str, result.issues)))
    return t


# Cells allowed by the PR relation (a + b) mod 2 = x*y.
_PR_SUPPORT = np.fromfunction(
    lambda x, y, a, b: (a + b) % 2 == x * y, (2, 2, 2, 2), dtype=int
)
_PR_SUPPORT.setflags(write=False)

# BoxTable is frozen, its array read-only and it compares by identity (eq=False),
# so the constant boxes are built once, through every check, and shared.
_PR_BOX = BoxTable(np.where(_PR_SUPPORT, 0.5, 0.0), "pr")
_UNIFORM_BOX = BoxTable(np.full((2, 2, 2, 2), 0.25), "uniform")


def pr_box() -> BoxTable:
    """The canonical nonlocal box: a xor b = x*y, weight 1/2 per allowed pair.

    The defining relation only constrains the support; uniform weight on the
    two satisfying outcome pairs is the unique no-signaling completion and is
    what the equal-weight hidden-variable average reproduces.
    """
    return _PR_BOX


_CELL_TABLES = np.eye(4).reshape(4, 2, 2)  # row 2a + b is one-hot at (a, b)
# Row 8*f0 + 4*f1 + 2*g0 + g1 is the product box of a = f[x], b = g[y]: at
# (x, y) it is the cell table of 2*f[x] + g[y].
_DETERMINISTIC_TABLES = _CELL_TABLES[
    [np.add.outer(2 * np.array(fg[:2]), fg[2:]) for fg in np.ndindex(2, 2, 2, 2)]
]
_DETERMINISTIC_TABLES.setflags(write=False)
_DETERMINISTIC_LABELS = tuple(
    f"local:{f0},{f1},{g0},{g1}" for f0, f1, g0, g1 in np.ndindex(2, 2, 2, 2)
)
_DETERMINISTIC_BOXES = tuple(map(BoxTable, _DETERMINISTIC_TABLES, _DETERMINISTIC_LABELS))


def deterministic_local_box(f: Sequence[int], g: Sequence[int]) -> BoxTable:
    """Product box for deterministic strategies a = f[x], b = g[y]."""
    if len(f) != 2 or len(g) != 2:
        raise ValueError("f and g must each map both settings, i.e. have length 2")
    f0, f1 = (_check_bit(v, "f") for v in f)
    g0, g1 = (_check_bit(v, "g") for v in g)
    return _DETERMINISTIC_BOXES[8 * f0 + 4 * f1 + 2 * g0 + g1]


def all_deterministic_boxes() -> list[BoxTable]:
    """All 16 deterministic local strategies, ordered by (f0, f1, g0, g1)."""
    return list(_DETERMINISTIC_BOXES)


def uniform_box() -> BoxTable:
    """The maximally mixed table, p = 1/4 everywhere."""
    return _UNIFORM_BOX


def _mix(weights: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Per weight row ``(..., l)``, the sum in l order of weight times table ``(l, 2, 2, 2, 2)``."""
    return np.einsum("...l,lxyab->...xyab", weights, tables)


def convex_mix(
    boxes: Sequence[BoxTable],
    weights: Sequence[float],
    eps: float = DEFAULT_EPS,
    label: str | None = None,
) -> BoxTable:
    """Entrywise weighted average of valid boxes.

    Weights must be finite, nonnegative and sum to 1 within ``eps``.
    """
    eps = _check_eps(eps)
    if len(boxes) == 0:
        raise ValueError("cannot mix an empty list of boxes")
    if len(boxes) != len(weights):
        raise ValueError(f"got {len(boxes)} boxes but {len(weights)} weights")
    w = _check_weights(weights, "weights", eps)
    p = _mix(w, np.array([_check_type(box, BoxTable, "convex_mix").p for box in boxes]))
    if label is None:
        parts = (f"{box.label or 'box'}@{weight:g}" for box, weight in zip(boxes, w))
        label = "mix(" + "+".join(parts) + ")"
    return BoxTable(p, label)


def _gathers() -> tuple:
    """Flat indices for :func:`_quantities`, per (side, x, y, a, b) cell of a table and
    its party swap: the entry it holds and the other side's marginal it is conditioned
    on; per (x, y, a, b), the product's factors P(A=a | x, 0) and P(B=b | 0, y)."""
    flat = np.arange(16).reshape(2, 2, 2, 2)  # [i, j, k, m]: its place in a flat table
    s, x, y, a, b = np.indices((2, 2, 2, 2, 2)).reshape(5, -1)
    return (np.where(s == 1, flat[y, x, b, a], flat[x, y, a, b]), flat[1 - s, y, x, b],
            flat[0, x, 0, a][:16], flat[1, y, 0, b][:16])


_STACK, _GIVEN, _FACTOR_A, _FACTOR_B = _gathers()

# The blocks of a row of _quantities, as positions in it; side 1 is the party swap.
_MA, _P, _PRODUCT = np.arange(48).reshape(3, 2, 2, 2, 2)  # [side, x, y, a], [x, y, a, b] twice
_C = np.arange(48, 80).reshape(2, 2, 2, 2, 2)  # [side, x, y, a, b]


def _quantities(p: np.ndarray, eps: float) -> np.ndarray:
    """For n tables (..., 2, 2, 2, 2), flat (n, 80): marginals P(A=a | x, y) of
    tables and party swaps, the tables, products P(A=a | x, 0) P(B=b | 0, y),
    and conditionals P(A=a | x, y; B=b), NaN if P(B=b | x, y) <= eps."""
    stack = p.reshape(-1, 16)[:, _STACK]
    ma = stack.reshape(-1, 16, 2).sum(-1)  # not a + b: numpy sums -0.0 and -0.0 to 0.0
    given = ma[:, _GIVEN]
    c = stack / np.where(given > eps, given, np.nan)
    return np.concatenate((ma, stack[:, :16], ma[:, _FACTOR_A] * ma[:, _FACTOR_B], c), -1)


def _read(t: BoxTable, at: int, eps: float = DEFAULT_EPS) -> float | None:
    """Column ``at`` of ``t``'s :func:`_quantities`; None where it is NaN."""
    value = float(_quantities(t.p, _check_eps(eps))[0, at])
    return None if math.isnan(value) else value


def marginal_a(t: BoxTable, x: int, y: int, a: int) -> float:
    """P(A=a | x, y), summing the joint table over b."""
    return _read(_check_type(t, BoxTable, "marginal_a"), _MA[(0, *_check_bits(x=x, y=y, a=a))])


def marginal_b(t: BoxTable, x: int, y: int, b: int) -> float:
    """P(B=b | x, y), summing the joint table over a."""
    return _read(_check_type(t, BoxTable, "marginal_b"), _MA[(1, *_check_bits(y=y, x=x, b=b))])


def conditional(
    t: BoxTable, x: int, y: int, a: int, b: int, eps: float = DEFAULT_EPS
) -> float | None:
    """P(A=a | x, y; B=b) = p(x,y,a,b) / P(B=b | x, y).

    Returns None (in-band "undefined") when the conditioning event has
    probability at most ``eps``; conditioning on an impossible outcome is
    not an error because dependence analyses iterate over all cells.
    """
    _check_type(t, BoxTable, "conditional")
    y, x, b, a = _check_bits(y=y, x=x, b=b, a=a)  # the bits of P(B=b | x, y) first
    return _read(t, _C[0, x, y, a, b], eps)


def conditional_b(
    t: BoxTable, x: int, y: int, a: int, b: int, eps: float = DEFAULT_EPS
) -> float | None:
    """P(B=b | x, y; A=a) = p(x,y,a,b) / P(A=a | x, y), None as :func:`conditional`."""
    _check_type(t, BoxTable, "conditional_b")
    return _read(t, _C[(1, *_check_bits(y=y, x=x, b=b, a=a))], eps)


def pr_constraint_holds(t: BoxTable, eps: float = DEFAULT_EPS) -> bool:
    """True iff every cell with probability above ``eps`` satisfies
    (a + b) mod 2 = x*y."""
    return not _off_support(_check_type(t, BoxTable, "pr_constraint_holds").p, _check_eps(eps))


def _off_support(p: np.ndarray, eps: float) -> np.ndarray:
    """Per table (..., 2, 2, 2, 2): has it a cell above eps off (a + b) mod 2 = x*y?"""
    return ((p > eps) & ~_PR_SUPPORT).any((-4, -3, -2, -1))


def to_json(t: BoxTable) -> str:
    return json.dumps(_check_type(t, BoxTable, "to_json").to_dict(), indent=2)


def from_json(text: str, eps: float = DEFAULT_EPS) -> BoxTable:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BoxFormatError(f"not valid JSON: {exc}") from None
    return BoxTable.from_dict(data, eps)
