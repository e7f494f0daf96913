"""Finite-horizon density bookkeeping for subsets of the natural numbers.

Upper and lower densities are limits of prefix ratios card(A cap [1, N]) / N;
at a finite horizon all we can report is the running envelope of those
ratios, so every verdict built on one carries an "at horizon N" qualifier.

An IndexPredicate may bundle a closed-form counter with the membership test;
when both exist they are cross-checked on small prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .numerics import chunk_spans


@dataclass
class IndexPredicate:
    """Membership test plus optional closed-form prefix counter.

    count(N) must equal card(A cap [1, N]).  count_array is a vectorized
    variant over an int64 numpy array of horizons (needed for million-point
    envelope sweeps).
    """

    member: Callable[[int], bool]
    count: Callable[[int], int] | None = None
    count_array: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def prefix_count(self, n: int) -> int:
        if n < 1:
            return 0
        if self.count is not None:
            return int(self.count(n))
        return sum(1 for j in range(1, n + 1) if self.member(j))

    def member_mask(self, n: int) -> np.ndarray:
        """Boolean mask over 1..n by brute membership (small n only)."""
        return np.array([bool(self.member(j)) for j in range(1, n + 1)])


def naturals() -> IndexPredicate:
    return IndexPredicate(lambda j: j >= 1, count=lambda n: max(n, 0),
                          count_array=lambda ns: np.maximum(ns, 0), name="N")


def evens() -> IndexPredicate:
    return IndexPredicate(lambda j: j % 2 == 0, count=lambda n: n // 2,
                          count_array=lambda ns: ns // 2, name="evens")


def prefix_ratio(pred: IndexPredicate, n: int) -> float:
    if n < 1:
        raise ValueError("prefix ratios need N >= 1")
    return pred.prefix_count(n) / n


def check_counter_agreement(pred: IndexPredicate, n_max: int = 10_000) -> bool:
    """Closed-form counter vs naive counting on every prefix up to n_max."""
    if pred.count is None:
        return True
    running = 0
    for j in range(1, n_max + 1):
        if pred.member(j):
            running += 1
        if pred.count(j) != running:
            return False
    return True


@dataclass(frozen=True)
class DensityEnvelope:
    """Prefix-ratio extremes over [1, horizon]; a horizon statement only."""

    horizon: int
    ratio_at_horizon: float
    lower: float       # min over N <= horizon of prefix ratio
    lower_at: int
    upper: float       # max over N <= horizon
    upper_at: int


def density_envelope(pred: IndexPredicate, horizon: int,
                     start: int = 1) -> DensityEnvelope:
    """Envelope of prefix ratios for N in [start, horizon].

    Uses the vectorized counter when present, else chunked brute counting.
    """
    if horizon < start or start < 1:
        raise ValueError("need 1 <= start <= horizon")
    if pred.count_array is not None:
        counts = pred.count_array(np.arange(start, horizon + 1, dtype=np.int64))
    elif pred.count is not None:
        counts = np.array([pred.count(n) for n in range(start, horizon + 1)],
                          dtype=np.int64)
    else:
        counts = np.cumsum(pred.member_mask(horizon))[start - 1:]
    return envelope_of_counts([counts], start)


def count_chunks(pred: IndexPredicate, horizon: int) -> Iterator[tuple[int, np.ndarray]]:
    """(n0, card(A cap [1, N]) for N in [n0, n1]) per chunk [n0, n1] of
    [1, horizon], as int64: from the vectorized counter where there is one,
    else running counts of the member test."""
    mask = None if pred.count_array is not None else pred.member_mask(horizon)
    before = 0
    for n0, n1 in chunk_spans(1, horizon):
        if mask is None:
            counts = pred.count_array(np.arange(n0, n1 + 1, dtype=np.int64)).astype(np.int64)
        else:
            counts = before + np.cumsum(mask[n0 - 1:n1], dtype=np.int64)
            before = counts[-1]
        yield n0, counts


def envelope_of_counts(chunks: Iterable[np.ndarray], start: int = 1) -> DensityEnvelope:
    """Envelope of counts[t] / N at N = start + t over consecutive chunks of
    the prefix counts card(A cap [1, N]), for callers that already hold or
    stream them.  The first N of a tie wins, as in one argmin/argmax."""
    n0, lower, upper = start, None, None
    for counts in chunks:
        ratios = np.asarray(counts, dtype=np.int64) / np.arange(n0, n0 + len(counts),
                                                                dtype=np.int64)
        lo_i, hi_i = int(np.argmin(ratios)), int(np.argmax(ratios))
        if lower is None or ratios[lo_i] < lower[0]:
            lower = (float(ratios[lo_i]), n0 + lo_i)
        if upper is None or ratios[hi_i] > upper[0]:
            upper = (float(ratios[hi_i]), n0 + hi_i)
        n0, last = n0 + len(counts), float(ratios[-1])
    return DensityEnvelope(n0 - 1, last, *lower, *upper)
