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
Boxes and models share one draw on their completion: weights w over
lambda and a box P_lambda per lambda (a box has one lambda).  It is an
inverse CDF over the (lambda, a, b) segments of [0, 1), of widths
w_lambda P_lambda(a, b | x, y): lambda spans [W_(lambda-1), W_lambda) for
its cumulative weight W clipped to [0, 1], the last lambda up to 1 even
where p0 + p1 < 1, and its cells split that span by their cumulative sums
(negative entries clipped to 0).  Only the nonempty segments are drawn,
those whose threshold k is above the one before; a trial lands in segment
j when w >> 11 >= k at j of their interior boundaries.  Counts tally
#(w >> 11 >= k) in one pass per boundary and take segment counts as
differences, labelling no trial; records index the 48 shared frozen
records by segment, which format their CSV lines once per process.
Counts and records are two views of the same draw, so identical (input,
trials, seed) yield identical tables and records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .box import BoxTable, _check_count, _check_seed, _check_type
from .chsh import ChshResult, chsh_value
from .hidden_variable import HVModel, _completion

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

# Every record a run can yield, [pair 2x + y, 4 * (lambda None/0/1) + cell 2a + b].
_RECORDS = np.array(
    [SampleRecord(*xy, *ab, lam) for xy in SETTING_PAIRS for lam in (None, 0, 1)
     for ab in np.ndindex(2, 2)],
    dtype=object,
).reshape(4, 12)


def _draw(obj: BoxTable | HVModel, trials: int, seed: int) -> Iterator[tuple]:
    """Per setting pair in ``SETTING_PAIRS`` order, of its nonempty segments:
    (uint64 thresholds k of the interior boundaries, strictly rising inside
    (0, 2**53); each segment's cell 2a + b; its shared record; chunks of raw
    words).  The pairs re-key one generator, so a caller reads each pair's
    chunks before it asks for the next pair."""
    key = _check_seed(seed) % 2**64
    weights, boxes = _completion(obj)
    n = len(weights)
    cdf = np.minimum(np.cumsum(np.maximum(boxes.reshape(n, 4, 4), 0.0), axis=2), 1.0)
    cdf[:, :, 3] = 1.0  # each lambda's last cell ends where the lambda does
    # each lambda's thresholds [lo, hi) from its cumulative weight clipped to [0, 1], the
    # last lambda ending at 1; a box's one lambda has them all
    cum = (math.ceil(min(max(c, 0.0), 1.0) * _ONE) for c in accumulate(weights.tolist()[:-1]))
    hi = [*accumulate(cum, max), _ONE]
    lo, hi = np.array([[0, *hi[:-1]], hi], dtype=float)[:, :, None, None]
    # per pair, the upper boundary of each (lambda, a, b) segment, the last at 2**53
    ends = (lo + np.ceil((hi - lo) * cdf)).astype(np.uint64).transpose(1, 0, 2).reshape(4, -1)
    shared = _RECORDS[:, :4] if n == 1 else _RECORDS[:, 4:]
    philox = np.random.Philox(key=key)  # fresh OS entropy once per call, not per pair
    state = philox.state
    for pair, row in enumerate(ends.tolist()):
        # the nonempty segments, each ending above the one before; the last ends at 2**53
        kept = [j for j, (before, k) in enumerate(zip([0, *row], row)) if k > before]
        state["state"]["key"][1] = pair  # Philox(key=[key, pair]): counter 0, buffer empty
        philox.state = state
        sizes = (min(_CHUNK, trials - i) for i in range(0, trials, _CHUNK))
        ks, cells = ends[pair].take(kept[:-1]), [j % 4 for j in kept]
        yield ks, cells, shared[pair].take(kept), map(philox.random_raw, sizes)


def _counts(obj: BoxTable | HVModel, trials: int, seed: int) -> EmpiricalTable:
    trials = int(_check_count(trials, "trials_per_setting"))
    counts = [0] * 16  # flat (x, y, a, b): pairs come in SETTING_PAIRS order
    for pair, (ks, cells, _, chunks) in enumerate(_draw(obj, trials, seed)):
        ks, tails = ks.tolist(), [0] * len(ks)  # #(w >> 11 >= k), one pass per boundary
        for w in chunks:
            for i, k in enumerate(ks):
                tails[i] += int(np.count_nonzero(w >= k << 11))
        ends = [trials, *tails, 0]  # segment i holds ends[i] - ends[i + 1]
        for cell, above, below in zip(cells, ends, ends[1:]):
            counts[4 * pair + cell] += above - below
    table = np.array(counts, dtype=np.int64).reshape(2, 2, 2, 2)
    return EmpiricalTable(table, np.full((2, 2), trials), seed)


def _records(obj: BoxTable | HVModel, trials: int, seed: int) -> list[SampleRecord]:
    trials = int(_check_count(trials, "trials_per_setting"))
    records: list[SampleRecord] = []
    for ks, _, shared, chunks in _draw(obj, trials, seed):
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
