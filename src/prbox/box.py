"""Conditional-probability tables for bipartite binary boxes.

A *box* is the full table P(a, b | x, y) over binary settings x, y and
binary outcomes a, b.  Tables are stored as read-only (2, 2, 2, 2) float
arrays indexed ``[x][y][a][b]``; this is the one object every analyzer in
the package consumes.  All constructors return tables that pass
:func:`validate`, every operation is a pure function of immutable inputs,
and a table may be shared across concurrent analyzers without locking.

Serialization: a box is the JSON object ``{"label": str, "p": nested}``
where ``p`` is a 4-level nested array indexed ``[x][y][a][b]``.
Deserialization re-runs :func:`validate` and rejects invalid tables.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-9

BITS = (0, 1)


class BoxFormatError(ValueError):
    """A serialized box is structurally malformed or fails validation."""


def _check_bit(value: int, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


def _check_bits(**bits: int) -> tuple[int, ...]:
    return tuple(_check_bit(value, name) for name, value in bits.items())


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    return eps


@dataclass(frozen=True, eq=False)
class BoxTable:
    """Joint conditional distribution of a bipartite binary box.

    ``p[x, y, a, b]`` is the probability of outcomes (a, b) given settings
    (x, y).  The array is coerced to float64 and frozen on construction;
    derive new tables instead of mutating.
    """

    p: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.array(self.p, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise BoxFormatError(
                f"box table must have shape (2, 2, 2, 2), got {arr.shape}"
            )
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
        label = data.get("label", "")
        if not isinstance(label, str):
            raise BoxFormatError(f"label must be a string, got {label!r}")
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
        if arr.shape != (2, 2, 2, 2):
            raise BoxFormatError(
                f"entry table must be nested [x][y][a][b] with two values per "
                f"level, got shape {arr.shape}"
            )
        table = cls(arr, label)
        result = validate(table, eps)
        if not result.ok:
            raise BoxFormatError(
                "table fails validation: " + "; ".join(str(i) for i in result.issues)
            )
        return table


@dataclass(frozen=True)
class ValidationIssue:
    """One violated table invariant.

    ``kind`` is ``"normalization"`` (value = the offending setting-pair sum,
    a and b are None), ``"range"`` (value = the out-of-range entry) or
    ``"non_finite"`` (value = the NaN or infinite entry).
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
        what = "entry out of [0, 1]" if self.kind == "range" else "non-finite entry"
        return (
            f"{what} at (x={self.x}, y={self.y}, a={self.a}, "
            f"b={self.b}): {self.value}"
        )


@dataclass(frozen=True)
class ValidationResult:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(t: BoxTable, eps: float = DEFAULT_EPS) -> ValidationResult:
    """Check normalization per setting pair and entrywise range.

    Returns a verdict rather than raising: every setting pair must sum to 1
    within ``eps`` and every entry must be finite and lie in [0, 1] within
    ``eps``.  Issues come in (x, y, a, b) order, normalization first.
    """
    eps = _check_eps(eps)
    totals = t.p.sum(axis=(2, 3))
    issues = [
        ValidationIssue("normalization", int(x), int(y), None, None, float(totals[x, y]))
        for x, y in np.argwhere(np.abs(totals - 1.0) > eps)
    ]
    finite = np.isfinite(t.p)
    for x, y, a, b in np.argwhere(~finite | (t.p < -eps) | (t.p > 1.0 + eps)):
        kind = "range" if finite[x, y, a, b] else "non_finite"
        issues.append(
            ValidationIssue(kind, int(x), int(y), int(a), int(b), float(t.p[x, y, a, b]))
        )
    return ValidationResult(tuple(issues))


# Cells allowed by the PR relation (a + b) mod 2 = x*y.
_PR_SUPPORT = np.fromfunction(
    lambda x, y, a, b: (a + b) % 2 == x * y, (2, 2, 2, 2), dtype=int
)
_PR_SUPPORT.setflags(write=False)


def pr_box() -> BoxTable:
    """The canonical nonlocal box: a xor b = x*y, weight 1/2 per allowed pair.

    The defining relation only constrains the support; uniform weight on the
    two satisfying outcome pairs is the unique no-signaling completion and is
    what the equal-weight hidden-variable average reproduces.
    """
    return BoxTable(np.where(_PR_SUPPORT, 0.5, 0.0), "pr")


def deterministic_local_box(f: Sequence[int], g: Sequence[int]) -> BoxTable:
    """Product box for deterministic strategies a = f[x], b = g[y]."""
    if len(f) != 2 or len(g) != 2:
        raise ValueError("f and g must each map both settings, i.e. have length 2")
    f0, f1 = (_check_bit(v, "f") for v in f)
    g0, g1 = (_check_bit(v, "g") for v in g)
    p = np.zeros((2, 2, 2, 2))
    resp = ((f0, f1), (g0, g1))
    for x, y in np.ndindex(2, 2):
        p[x, y, resp[0][x], resp[1][y]] = 1.0
    return BoxTable(p, f"local:{f0},{f1},{g0},{g1}")


def all_deterministic_boxes() -> list[BoxTable]:
    """All 16 deterministic local strategies, ordered by (f0, f1, g0, g1)."""
    return [
        deterministic_local_box((f0, f1), (g0, g1))
        for f0, f1, g0, g1 in np.ndindex(2, 2, 2, 2)
    ]


def uniform_box() -> BoxTable:
    """The maximally mixed table, p = 1/4 everywhere."""
    return BoxTable(np.full((2, 2, 2, 2), 0.25), "uniform")


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
        raise ValueError(
            f"got {len(boxes)} boxes but {len(weights)} weights"
        )
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    if np.any(w < -eps):
        raise ValueError(f"weights must be nonnegative, got {w.min()}")
    total = float(w.sum())
    if abs(total - 1.0) > eps:
        raise ValueError(f"weights must sum to 1, got {total}")
    p = np.zeros((2, 2, 2, 2))
    for box, weight in zip(boxes, w):
        p += weight * box.p
    if label is None:
        label = "mix(" + "+".join(
            f"{box.label or 'box'}@{weight:g}" for box, weight in zip(boxes, w)
        ) + ")"
    return BoxTable(p, label)


def _swap(t: BoxTable) -> BoxTable:
    """The party-swapped table: x<->y and a<->b, so B's quantities become A's."""
    return BoxTable(t.p.transpose(1, 0, 3, 2), t.label)


def marginal_a(t: BoxTable, x: int, y: int, a: int) -> float:
    """P(A=a | x, y), summing the joint table over b."""
    return float(t.p[_check_bits(x=x, y=y, a=a)].sum())


def marginal_b(t: BoxTable, x: int, y: int, b: int) -> float:
    """P(B=b | x, y): :func:`marginal_a` of the party-swapped table."""
    return marginal_a(_swap(t), *_check_bits(y=y, x=x, b=b))


def conditional(
    t: BoxTable, x: int, y: int, a: int, b: int, eps: float = DEFAULT_EPS
) -> float | None:
    """P(A=a | x, y; B=b) = p(x,y,a,b) / P(B=b | x, y).

    Returns None (in-band "undefined") when the conditioning event has
    probability at most ``eps``; conditioning on an impossible outcome is
    not an error because dependence analyses iterate over all cells.
    """
    mb = marginal_b(t, x, y, b)
    if mb <= _check_eps(eps):
        return None
    return t.prob(x, y, a, b) / mb


def conditional_b(
    t: BoxTable, x: int, y: int, a: int, b: int, eps: float = DEFAULT_EPS
) -> float | None:
    """P(B=b | x, y; A=a): :func:`conditional` of the party-swapped table."""
    return conditional(_swap(t), *_check_bits(y=y, x=x, b=b, a=a), eps)


def pr_constraint_holds(t: BoxTable, eps: float = DEFAULT_EPS) -> bool:
    """True iff every cell with probability above ``eps`` satisfies
    (a + b) mod 2 = x*y."""
    return not np.any((t.p > _check_eps(eps)) & ~_PR_SUPPORT)


def to_json(t: BoxTable) -> str:
    return json.dumps(t.to_dict(), indent=2)


def from_json(text: str, eps: float = DEFAULT_EPS) -> BoxTable:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BoxFormatError(f"not valid JSON: {exc}") from None
    return BoxTable.from_dict(data, eps)
