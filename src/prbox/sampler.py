"""Seeded Monte Carlo sampling of boxes and hidden-variable models.

Reproducibility contract: streams come from the Philox 4x64 counter-based
generator (numpy's implementation of the published algorithm), keyed by
(seed mod 2**64, setting-pair index 2x + y) for an int seed.  Each setting
pair owns an independent stream, so per-pair sampling may run concurrently
and still reproduce the sequential result bit for bit.  One trial consumes
one raw 64-bit word w, read in chunks of ``_CHUNK`` so memory stays
bounded; Philox output does not depend on how it is split into calls.
numpy's ``Generator.random`` maps that word to the double
u = (w >> 11) / 2**53 in [0, 1), and the sampler compares in integers
instead: scaling by 2**53 is exact, so u >= c holds exactly when
w >> 11 >= k with k = ceil(c * 2**53) clipped to [0, 2**53].
Boxes and models share one draw: an inverse CDF over ordered segments of
[0, 1), whose index is the number of interior boundaries c with u >= c.  A
box's segments are its four (a, b) cells in lexicographic order
(boundaries at the cumulative sums of P(a, b | x, y), negative entries
clipped to 0); a hidden-variable model's are lambda = 0 and 1 (one
boundary at p0), whose tabulated responses then give (a, b).  The
boundaries never decrease, so counts tally #(w >> 11 >= k) in one pass
per distinct threshold, and in none for k = 0 (every word passes) or
2**53 (no word does), then take segment counts as differences, labelling
no trial; records index the 48 shared frozen records by segment.  A
record formats its own CSV line on first use and keeps it, so the shared
records format once per process and ``records_to_csv`` only joins lines.
Counts and records are two views of the same draw, so identical (input,
trials, seed) yield identical tables and records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .box import BoxTable, _check_count, _check_seed, _check_type
from .chsh import ChshResult, chsh_value
from .hidden_variable import HVModel

__all__ = [
    "ComparisonResult",
    "EmpiricalTable",
    "InsufficientTrialsError",
    "SampleRecord",
    "compare",
    "empirical_chsh",
    "records_to_csv",
    "sample_box",
    "sample_box_records",
    "sample_hv",
    "sample_hv_records",
]

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CELLS = tuple(np.ndindex(2, 2, 2, 2))  # (x, y, a, b) in the row-major order of a table


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

    @cached_property
    def _csv_line(self) -> str:
        """The record's ``records_to_csv`` line, computed from its fields on
        first use and kept in its ``__dict__``, outside ``==``, hash and repr."""
        lam = "" if self.lambda_value is None else str(self.lambda_value)
        return f"{self.x},{self.y},{lam},{self.a},{self.b}"


@dataclass(frozen=True, eq=False)
class EmpiricalTable:
    """Outcome counts per setting pair from a seeded run."""

    counts: np.ndarray
    trials_per_setting: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        _check_seed(self.seed)  # the caller's seed object is kept, labels included
        counts = _check_count(self.counts, "counts", least=0)
        trials = _check_count(self.trials_per_setting, "trials", least=0)
        if counts.shape != (2, 2, 2, 2):
            raise ValueError(f"counts must have shape (2, 2, 2, 2), got {counts.shape}")
        if trials.shape != (2, 2):
            raise ValueError(f"trials must have shape (2, 2), got {trials.shape}")
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
        empty = self.trials_per_setting < 1
        if np.count_nonzero(empty):
            x, y = SETTING_PAIRS[int(np.argmax(empty))]  # the first in SETTING_PAIRS order
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
        for (x, y, a, b), n in zip(_CELLS, self.counts.ravel().tolist()):
            lines.append(f"{x},{y},{a},{b},{n}")
        return "\n".join(lines) + "\n"


_CHUNK = 1 << 14
_ONE = 2**53  # the threshold of c = 1: u = (w >> 11) / 2**53 < 1 for every word

# Every record a run can yield, [pair 2x + y, lambda None/0/1, cell 2a + b].
_RECORDS = np.array(
    [SampleRecord(*xy, *ab, lam) for xy in SETTING_PAIRS for lam in (None, 0, 1)
     for ab in np.ndindex(2, 2)],
    dtype=object,
).reshape(4, 3, 4)


def _draw(obj: BoxTable | HVModel, trials: int, seed: int) -> Iterator[tuple]:
    """Per setting pair in ``SETTING_PAIRS`` order: (uint64 thresholds k of
    the interior boundaries, shared records of the segments, chunks of raw
    words).  The pairs re-key one generator, so a caller reads each pair's
    chunks before it asks for the next pair."""
    key = _check_seed(seed) % 2**64
    if isinstance(obj, HVModel):
        bounds = np.full((4, 1), obj.dist.p0)
        cells = (2 * obj.responses[0] + obj.responses[1]).reshape(4, 2)
        shared = _RECORDS[np.arange(4)[:, None], [1, 2], cells]
    else:
        # The fourth boundary is 1, above every u in [0, 1), so it is left out.
        bounds = np.cumsum(np.clip(obj.p.reshape(4, 4), 0.0, None), axis=1)[:, :3]
        shared = _RECORDS[:, 0]
    ks = np.ceil(np.clip(bounds, 0.0, 1.0) * _ONE).astype(np.uint64)
    philox = np.random.Philox(key=key)  # fresh OS entropy once per call, not per pair
    state = philox.state
    for pair in range(4):
        state["state"]["key"][1] = pair  # Philox(key=[key, pair]): counter 0, buffer empty
        philox.state = state
        sizes = (min(_CHUNK, trials - i) for i in range(0, trials, _CHUNK))
        yield ks[pair], shared[pair], map(philox.random_raw, sizes)


def _counts(obj: BoxTable | HVModel, trials: int, seed: int) -> EmpiricalTable:
    trials = int(_check_count(trials, "trials_per_setting"))
    counts = [0] * 16
    for ks, shared, chunks in _draw(obj, trials, seed):
        ks = ks.tolist()
        # #(w >> 11 >= k) in one pass per distinct k; every word passes 0, none 2**53
        inner = {k: 0 for k in ks if 0 < k < _ONE}
        for w in chunks:
            for k in inner:
                inner[k] += np.count_nonzero(w >= k << 11)
        tails = {0: trials, _ONE: 0, **inner}
        ends = [trials, *map(tails.get, ks), 0]
        for r, passed, beyond in zip(shared, ends, ends[1:]):
            counts[8 * r.x + 4 * r.y + 2 * r.a + r.b] += passed - beyond
    table = np.array(counts, dtype=np.int64).reshape(2, 2, 2, 2)
    return EmpiricalTable(table, np.full((2, 2), trials), seed)


def _records(obj: BoxTable | HVModel, trials: int, seed: int) -> list[SampleRecord]:
    trials = int(_check_count(trials, "trials_per_setting"))
    records: list[SampleRecord] = []
    for ks, shared, chunks in _draw(obj, trials, seed):
        for w in chunks:  # side="right" counts the thresholds k <= w >> 11
            records += shared[np.searchsorted(ks, w >> 11, side="right")].tolist()
    return records


def sample_box(t: BoxTable, trials_per_setting: int, seed: int) -> EmpiricalTable:
    """Draw outcome pairs from the exact table, per setting pair."""
    return _counts(_check_type(t, BoxTable, "sample_box"), trials_per_setting, seed)


def sample_box_records(
    t: BoxTable, trials_per_setting: int, seed: int
) -> list[SampleRecord]:
    """Per-trial records for the same stream :func:`sample_box` consumes."""
    return _records(_check_type(t, BoxTable, "sample_box_records"), trials_per_setting, seed)


def sample_hv(m: HVModel, trials_per_setting: int, seed: int) -> EmpiricalTable:
    """Draw the hidden variable per trial, then apply the response functions."""
    return _counts(_check_type(m, HVModel, "sample_hv"), trials_per_setting, seed)


def sample_hv_records(
    m: HVModel, trials_per_setting: int, seed: int
) -> list[SampleRecord]:
    return _records(_check_type(m, HVModel, "sample_hv_records"), trials_per_setting, seed)


def records_to_csv(records: Iterable[SampleRecord]) -> str:
    """Record-level dump; the lambda column is blank for box sampling."""
    return "\n".join(["x,y,lambda,a,b", *map(attrgetter("_csv_line"), records)]) + "\n"


def empirical_chsh(e: EmpiricalTable) -> ChshResult:
    """CHSH combination with frequencies substituted for probabilities."""
    return chsh_value(_check_type(e, EmpiricalTable, "empirical_chsh").as_box())


@dataclass(frozen=True)
class ComparisonResult:
    linf: float
    per_cell: dict[tuple[int, int, int, int], float]


def compare(e: EmpiricalTable, t: BoxTable) -> ComparisonResult:
    """L-infinity distance between empirical frequencies and exact
    probabilities, with signed per-cell deltas (frequency minus exact)."""
    _check_type(e, EmpiricalTable, "compare")
    deltas = e.frequencies() - _check_type(t, BoxTable, "compare").p
    per_cell = dict(zip(_CELLS, deltas.ravel().tolist()))
    return ComparisonResult(float(np.max(np.abs(deltas))), per_cell)
