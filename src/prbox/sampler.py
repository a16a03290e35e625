"""Seeded Monte Carlo sampling of boxes and hidden-variable models.

Reproducibility contract: streams come from the Philox 4x64 counter-based
generator (numpy's implementation of the published algorithm), keyed by
(seed mod 2**64, setting-pair index 2x + y).  Each setting pair owns an
independent stream, so per-pair sampling may run concurrently and still
reproduce the sequential result bit for bit.  One trial consumes one
double u in [0, 1), and boxes and models share one draw: an inverse CDF
over ordered segments of [0, 1), whose index is the number of interior
boundaries c with u >= c.  A box's segments are its four (a, b) cells in
lexicographic order (boundaries at the cumulative sums of P(a, b | x, y),
negative entries clipped to 0); a hidden-variable model's are lambda = 0
and 1 (one boundary at p0), whose tabulated responses then give (a, b).
Counts and records are two views of the same draw, so identical (input,
trials, seed) yield identical tables and records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .box import BoxTable, _check_finite
from .chsh import ChshResult, chsh_value
from .hidden_variable import HVModel

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class InsufficientTrialsError(ValueError):
    """An estimate was requested from a table with an unsampled setting pair."""


@dataclass(frozen=True)
class SampleRecord:
    """One trial; lambda_value is present only for hidden-variable runs."""

    x: int
    y: int
    a: int
    b: int
    lambda_value: int | None = None


def _int64(values: object, name: str) -> np.ndarray:
    """An int64 copy of ``values``; ValueError at the first entry the cast
    would change (a fraction, NaN, inf or a value out of range)."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):
        try:
            cast = raw.astype(np.int64)
        except OverflowError:
            raise ValueError(f"{name} must be int64 integers, got {values!r}") from None
    changed = cast != raw
    if np.any(changed):
        raise ValueError(f"{name} must be integers, got {raw[changed].tolist()[0]!r}")
    return cast


@dataclass(frozen=True, eq=False)
class EmpiricalTable:
    """Outcome counts per setting pair from a seeded run."""

    counts: np.ndarray
    trials_per_setting: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        counts = _int64(self.counts, "counts")
        trials = _int64(self.trials_per_setting, "trials")
        if counts.shape != (2, 2, 2, 2):
            raise ValueError(f"counts must have shape (2, 2, 2, 2), got {counts.shape}")
        if trials.shape != (2, 2):
            raise ValueError(f"trials must have shape (2, 2), got {trials.shape}")
        if np.any(counts < 0) or np.any(trials < 0):
            raise ValueError("counts and trials must be nonnegative")
        sums = counts.sum(axis=(2, 3))
        if np.any(sums != trials):
            raise ValueError(
                f"per-setting counts {sums.tolist()} do not match trials "
                f"{trials.tolist()}"
            )
        counts.setflags(write=False)
        trials.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "trials_per_setting", trials)

    def frequencies(self) -> np.ndarray:
        for x, y in SETTING_PAIRS:
            if self.trials_per_setting[x, y] < 1:
                raise InsufficientTrialsError(
                    f"no trials recorded for setting pair (x={x}, y={y})"
                )
        return self.counts / self.trials_per_setting[:, :, None, None]

    def as_box(self, label: str | None = None) -> BoxTable:
        if label is None:
            label = f"empirical(seed={self.seed})"
        return BoxTable(self.frequencies(), label)

    def to_csv(self) -> str:
        lines = ["x,y,a,b,count"]
        for x, y, a, b in np.ndindex(2, 2, 2, 2):
            lines.append(f"{x},{y},{a},{b},{self.counts[x, y, a, b]}")
        return "\n".join(lines) + "\n"


def _check_trials(trials_per_setting: int) -> int:
    trials = int(_int64(trials_per_setting, "trials_per_setting"))
    if trials < 1:
        raise ValueError(f"trials_per_setting must be >= 1, got {trials_per_setting}")
    return trials


def _pair_stream(seed: int, x: int, y: int) -> np.random.Generator:
    key = np.array([int(seed) % 2**64, 2 * x + y], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(obj: BoxTable | HVModel, trials: int, seed: int) -> Iterator[tuple]:
    """(x, y, cells 2a + b, lambdas or None for a box) of ``trials`` draws,
    one setting pair at a time in ``SETTING_PAIRS`` order."""
    model = isinstance(obj, HVModel)
    if model:
        bounds = np.full((2, 2, 1), obj.dist.p0)
        cells_by_lambda = 2 * obj.responses[0] + obj.responses[1]
    else:
        _check_finite(obj)
        # The fourth boundary is 1, above every u in [0, 1), so it is left out.
        bounds = np.cumsum(np.clip(obj.p.reshape(2, 2, 4), 0.0, None), axis=2)[..., :3]
    for x, y in SETTING_PAIRS:
        u = _pair_stream(seed, x, y).random(trials)
        k = np.zeros(trials, dtype=np.int64)
        for c in bounds[x, y]:
            k += u >= c
        yield (x, y, cells_by_lambda[x, y][k], k) if model else (x, y, k, None)


def _counts(obj: BoxTable | HVModel, trials: int, seed: int) -> EmpiricalTable:
    trials = _check_trials(trials)
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    for x, y, cells, _ in _draw(obj, trials, seed):
        counts[x, y] = np.bincount(cells, minlength=4).reshape(2, 2)
    return EmpiricalTable(counts, np.full((2, 2), trials), seed)


def _records(obj: BoxTable | HVModel, trials: int, seed: int) -> list[SampleRecord]:
    records: list[SampleRecord] = []
    for x, y, cells, lambdas in _draw(obj, _check_trials(trials), seed):
        a, b = (cells >> 1).tolist(), (cells & 1).tolist()
        lams = repeat(None) if lambdas is None else lambdas.tolist()
        records += map(SampleRecord, repeat(x), repeat(y), a, b, lams)
    return records


def sample_box(t: BoxTable, trials_per_setting: int, seed: int) -> EmpiricalTable:
    """Draw outcome pairs from the exact table, per setting pair."""
    return _counts(t, trials_per_setting, seed)


def sample_box_records(
    t: BoxTable, trials_per_setting: int, seed: int
) -> list[SampleRecord]:
    """Per-trial records for the same stream :func:`sample_box` consumes."""
    return _records(t, trials_per_setting, seed)


def sample_hv(m: HVModel, trials_per_setting: int, seed: int) -> EmpiricalTable:
    """Draw the hidden variable per trial, then apply the response functions."""
    return _counts(m, trials_per_setting, seed)


def sample_hv_records(
    m: HVModel, trials_per_setting: int, seed: int
) -> list[SampleRecord]:
    return _records(m, trials_per_setting, seed)


def records_to_csv(records: Iterable[SampleRecord]) -> str:
    """Record-level dump; the lambda column is blank for box sampling."""
    lines = ["x,y,lambda,a,b"]
    for r in records:
        lam = "" if r.lambda_value is None else str(r.lambda_value)
        lines.append(f"{r.x},{r.y},{lam},{r.a},{r.b}")
    return "\n".join(lines) + "\n"


def empirical_chsh(e: EmpiricalTable) -> ChshResult:
    """CHSH combination with frequencies substituted for probabilities."""
    return chsh_value(e.as_box())


@dataclass(frozen=True)
class ComparisonResult:
    linf: float
    per_cell: dict[tuple[int, int, int, int], float]


def compare(e: EmpiricalTable, t: BoxTable) -> ComparisonResult:
    """L-infinity distance between empirical frequencies and exact
    probabilities, with signed per-cell deltas (frequency minus exact).
    A NaN or infinite entry of ``t`` raises ValueError."""
    _check_finite(t)
    deltas = e.frequencies() - t.p
    per_cell = {
        (x, y, a, b): float(deltas[x, y, a, b]) for x, y, a, b in np.ndindex(2, 2, 2, 2)
    }
    return ComparisonResult(float(np.max(np.abs(deltas))), per_cell)
