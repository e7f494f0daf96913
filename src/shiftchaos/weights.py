"""Weight sequences for backward shifts and their orbit products.

The quantity every criterion consumes is the backward product

    P(i, n) = w_{i-n} * ... * w_{i-1}        (P(i, 0) = 1),

i.e. the scalar that survives when the n-th shift iterate hits the basis
vector e_i.  On the natural numbers the convention w_j = 0 for j < 1 makes
P(i, n) vanish as soon as the orbit falls off the left edge.

Only |P(i, n)| is ever read, and negative weights stay accepted input: every
space here is solid, so D e_j = eps_j e_j with eps_j = eps_{j-1} sgn w_{j-1}
is an isometry of every seminorm, and D^-1 B_w D = B_|w|.  Every reader takes
ln |w_j| from _log_abs, numpy's log as for the matrix rows, so the routes
below agree at ties.  Products are served three ways:
  products(w, pairs)          exact counts: fsum of count * ln|v| over the
                              per-value counts of the weights on each span
                              [i-n, i-1], as differences of prefix counts
                              at the sorted distinct span ends.  Those come
                              from one run_arrays read of the covered
                              interval when it reaches fewer blocks than
                              the ends have gaps (a witness batch), else
                              from one read per gap (cached per-block
                              prefix counts, O(log blocks) plus the runs of
                              two end blocks each; closed forms one value
                              per index); fine for n ~ 10**200.
                              product(w, i, n) is its one-pair case
  product_log_slice(w, i, a, b, carry)
                              ln|P(i, n)| for n in [a, b] from one runs pass
                              and one cumsum seeded with ln|P(i, a - 1)|, so
                              consecutive slices are bit for bit one cumsum
                              (a slice on |w| = 1 is filled with the seed);
                              shift.basis_orbit_logs walks a dense horizon
                              (N <= ~2e7) in CHUNK-cell slices of it
  product_log_table(w, i, N)  the whole-range reference: one slice over
                              [0, N], no check reads it
  product_pieces(w, i, ...)   piecewise log-linear form for closed-form
                              counting and summing at astronomical horizons
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import NEG_INF, LogScalar
from .sequences import (Run, RunQueryTooWide, SequenceBase, SplitSequence, _count_dtype,
                        run_arrays)
from .spaces import IndexSet

MAX_DENSE = 20_000_000


def _zero_weight(j: int) -> ValueError:
    return ValueError(f"weight at {j} is zero; weights must be nonzero on-domain")


def _log_abs(vals) -> np.ndarray:
    """ln |v| of nonzero weight values: the one weight log of every reader."""
    return np.log(np.abs(np.asarray(vals, dtype=float)))


class WeightSpec:
    """Weight sequence over an index set; values must be nonzero on-domain.

    Off-domain unilateral indices (j < 1) read as exact zeros: that is the
    annihilation convention, not a data error.
    """

    def __init__(self, index_set: IndexSet, seq: SequenceBase):
        self.index_set = index_set
        self.seq = seq
        for j in ([1, 2, 3, 17] if index_set is IndexSet.N else [-17, -2, -1, 0, 1, 17]):
            if seq.value_at(j) == 0.0:
                raise _zero_weight(j)

    def run_logs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(ln |v| once per run, run counts) for on-domain j in [lo, hi] from
        one runs pass; (once per index, None) without runs.  A zero raises,
        naming the zero nearest hi."""
        vals, counts = run_arrays(self.seq, lo, hi)
        zeros = np.flatnonzero(vals == 0.0)
        if zeros.size:
            z = int(zeros[-1])
            stop = z if counts is None else int(counts[:z + 1].sum()) - 1  # end of run z
            raise _zero_weight(lo + stop)
        return _log_abs(vals), counts

    def dense_logs(self, lo: int, hi: int) -> np.ndarray:
        """ln |w_j| for on-domain j in [lo, hi]: run_logs repeated over the
        run counts."""
        logs, counts = self.run_logs(lo, hi)
        return logs if counts is None else np.repeat(logs, counts)

    def runs_over(self, lo: int, hi: int) -> list[Run] | None:
        """Signed-value runs clipped to the domain (off-domain part dropped).
        Nothing in the package reads it: perfbench/tracer.py wraps it by name."""
        lo, hi = self.index_set.clip(lo, hi)
        if hi < lo:
            return []
        return self.seq.runs_over(lo, hi)

    def value_counts(self, lo: int, hi: int) -> dict[float, int] | None:
        """Exact {value: count} over [lo, hi] clipped to the domain."""
        lo, hi = self.index_set.clip(lo, hi)
        if hi < lo:
            return {}
        return self.seq.value_counts(lo, hi)


def bilateral_weights(negative: SequenceBase, nonnegative: SequenceBase) -> WeightSpec:
    return WeightSpec(IndexSet.Z, SplitSequence(negative, nonnegative, split=0))


def unilateral_weights(seq: SequenceBase) -> WeightSpec:
    return WeightSpec(IndexSet.N, seq)


def product(w: WeightSpec, i: int, n: int) -> LogScalar:
    """|P(i, n)| = |w_{i-n} ... w_{i-1}|; exact zero if the range leaves the
    domain.

    The one-pair case of `products`.  An on-domain zero weight in the range
    raises ValueError naming its index.
    """
    return LogScalar.from_log(products(w, [(i, n)])[0])


def products(w: WeightSpec, pairs: Sequence[tuple[int, int]]) -> list[float]:
    """ln |P(i, n)| for the (i, n) in pairs, in order, from one exact-count
    pass; -inf marks a span that leaves the domain (an exact zero).

    Each span [i-n, i-1] takes its per-value counts as the difference of the
    prefix counts at its two ends, over the sorted distinct ends of all
    spans.  Those prefix counts come from one of two reads:
      one run read   when the interval the spans cover reaches fewer blocks
                     (block_count) than there are gaps between consecutive
                     ends, one run_arrays call over it: each end's count of
                     each value is a cumsum of that value's run counts up
                     to the run the end falls in (np.searchsorted on the
                     run ends), plus its part of that run;
      a read per gap otherwise (one-pair products, deep spans over many
                     blocks, closed forms, and an interval of more than
                     MAX_RUNS_PER_QUERY runs): one value_counts read (one
                     value_at for a one-index gap), so spans that share or
                     nest ends share their reads.  On a gap without value
                     counts (closed-form weights) the read is one value
                     per index, up to MAX_DENSE of them.
    Counts are int64 while the covered interval fits one and exact Python
    ints past 2**63, so spans of length 10**200 work, and each span is one
    fsum of the terms count * ln|v| over the batch's distinct values,
    whichever read served it.  Pairs are settled in order, so a zero weight
    raises for the first pair whose span holds one, naming the zero nearest
    that span's right end.
    """
    if any(n < 0 for _, n in pairs):
        raise ValueError("n must be >= 0")
    logs = np.zeros(len(pairs))
    half = w.index_set is IndexSet.N
    if half:  # spans leaving the half line: exact zeros
        logs[[p for p, (i, n) in enumerate(pairs) if n and i - n < 1]] = NEG_INF
    # the spans [lo, stop - 1] of the pairs in pos
    pos = [p for p, (i, n) in enumerate(pairs) if n and not (half and i - n < 1)]
    los = [pairs[p][0] - pairs[p][1] for p in pos]
    stops = [pairs[p][0] for p in pos]
    if not pos:
        return logs.tolist()
    lo, hi = min(los), max(stops) - 1
    dtype = _count_dtype(lo, hi)
    # ends as offsets from lo, and where each span's two ends sit among them
    ends, at = np.unique(np.array([e - lo for e in los + stops], dtype),
                         return_inverse=True)
    blocks, read = w.seq.block_count(lo, hi), None
    if blocks is not None and blocks < ends.size - 1:
        try:
            read = _run_prefix_counts(w.seq, lo, hi, ends)
        except RunQueryTooWide:  # blocks of very many runs: read per gap instead
            pass
    values, pre = read or _gap_prefix_counts(w, lo, ends.tolist(), dtype)
    counts = pre[:, at[len(pos):]] - pre[:, at[:len(pos)]]  # value x span
    zero = values == 0.0
    held = (counts[zero] != 0).any(axis=0)
    logv = _log_abs(values[~zero])
    if dtype is object:  # a Python int times a Python float, exactly as below 2**63
        logv = logv.astype(object)
    sums = np.array([math.fsum(terms)
                     for terms in (counts[~zero] * logv[:, None]).T.tolist()])
    bad = np.flatnonzero(held | (sums == NEG_INF))
    if bad.size:  # the first pair in order that holds a zero or underflows
        s = int(bad[0])
        if held[s]:
            w.run_logs(los[s], stops[s] - 1)  # raises, naming the zero nearest stop - 1
        raise ValueError(f"ln |P| over [{los[s]}, {stops[s] - 1}] overflows to -inf")
    logs[pos] = sums
    return logs.tolist()


def _run_prefix_counts(seq: SequenceBase, lo: int, hi: int, ends: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, each one's count on [lo, lo + e) at each offset e
    of ends) from one run_arrays read of [lo, hi]."""
    vals, counts = seq.run_arrays(lo, hi)
    past = np.cumsum(counts)  # offset just past each run
    r = np.searchsorted(past, ends, "right")  # the runs wholly before each end
    values, which = np.unique(vals, return_inverse=True)  # 0.0 and -0.0 alike
    order = np.argsort(which, kind="stable")  # runs grouped by value, in index order
    bounds = np.searchsorted(which[order], np.arange(values.size + 1))
    pre = np.empty((values.size, ends.size), counts.dtype)
    for u, (a, b) in enumerate(zip(bounds, bounds[1:])):
        runs = order[a:b]
        cum = np.concatenate((np.zeros(1, counts.dtype), np.cumsum(counts[runs])))
        pre[u] = cum[np.searchsorted(runs, r)]
    inside = np.flatnonzero(r < vals.size)  # ends that fall in a run, not past the last
    run = r[inside]
    pre[which[run], inside] += ends[inside] - (past[run] - counts[run])
    return values, pre


def _gap_prefix_counts(w: WeightSpec, lo: int, ends: list[int], dtype
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, each one's count on [lo, lo + e) at each offset e
    of ends) from one read of each gap between consecutive ends."""
    cols: dict[float, list[int]] = {}  # 0.0 and -0.0 alike
    for t, (a, b) in enumerate(zip(ends, ends[1:]), 1):
        start, stop = lo + a, lo + b
        if stop == start + 1:
            gap = ((w.seq.value_at(start), 1),)
        else:
            gap = w.value_counts(start, stop - 1)
            if gap is None:  # no runs either: the gap's values one by one
                if stop - start > MAX_DENSE:
                    raise ValueError("closed-form weights cannot take products "
                                     f"of length {stop - start}")
                gap = Counter(run_arrays(w.seq, start, stop - 1)[0].tolist())
            gap = gap.items()
        for v, c in gap:
            if v not in cols:
                cols[v] = [0] * len(ends)
            cols[v][t] = c
    return np.array(list(cols)), np.cumsum(np.array(list(cols.values()), dtype), axis=1)


def check_dense_length(n_max: int) -> None:
    if not 0 <= n_max <= MAX_DENSE:
        raise ValueError(f"dense product table of length {n_max} is outside "
                         f"[0, {MAX_DENSE}]; long tables take the piecewise path")


def product_log_slice(w: WeightSpec, i: int, n0: int, n1: int,
                      carry: float = 0.0) -> np.ndarray:
    """ln |P(i, n)| for n in [n0, n1] from one runs pass, given carry =
    ln |P(i, n0 - 1)| (0.0 at n0 = 0).

    The carry is added to the first factor before the cumsum, never after,
    so consecutive slices are bit for bit one cumsum over [0, n1].  Where
    every weight of the slice has |w| = 1 (every run log is 0) each prefix
    is carry + 0, so the slice is filled with it and neither repeated nor
    summed.  Entries past `live` (the last n with i - n on the domain) are
    -inf: annihilation, not an error.  A zero weight raises, naming the zero
    nearest n0.  The array is a fresh one, the caller's to overwrite.
    """
    live = max(0, w.index_set.alive_to(i, n1))
    a = max(n0, 1)  # the first n with a weight factor
    logs = np.empty(0)
    if live >= a:
        run_logs, counts = w.run_logs(i - live, i - a)  # in index order
        if not run_logs.any():  # |w| = 1 on the span: carry + 0, as the cumsum adds it
            logs = np.full(live - a + 1, carry + 0.0)
        else:
            la = run_logs if counts is None else np.repeat(run_logs, counts)
            la[-1] += carry  # the factor at n = a; entry t is ln|w_{i-live+t}|
            logs = la[::-1]  # entry n - a, summed in place
            np.cumsum(logs, out=logs)
    if (a, live) == (n0, n1):
        return logs
    out = np.full(n1 - n0 + 1, NEG_INF)
    if n0 == 0:
        out[0] = 0.0  # P(i, 0) = 1
    out[a - n0:a - n0 + logs.size] = logs
    return out


def product_log_table(w: WeightSpec, i: int, n_max: int) -> np.ndarray:
    """ln |P(i, n)| for n = 0..n_max: the whole-range reference, one
    product_log_slice over [0, n_max]."""
    check_dense_length(n_max)
    return product_log_slice(w, i, 0, n_max)


# ---------------------------------------------------------------------------
# piecewise log-linear products: on a stretch of n where the incoming factor
# w_{i-n} sits inside one constant run, ln |P(i, n)| is affine in n.


@dataclass(frozen=True)
class Piece:
    """q(n) = exp(log0 + slope * (n - n0)) for integer n in [n0, n1];
    log0 = -inf encodes q identically zero on the piece."""

    n0: int
    n1: int
    log0: float
    slope: float

    def __post_init__(self):
        if self.n1 < self.n0:
            raise ValueError(f"empty piece [{self.n0}, {self.n1}]")

    @property
    def count(self) -> int:
        return self.n1 - self.n0 + 1

    def log_at(self, n: int) -> float:
        if self.log0 == NEG_INF:
            return NEG_INF
        return self.log0 + _run_span(self.slope, n - self.n0)


def _run_span(slope: float, length) -> float:
    """slope * length, saturating instead of overflowing on huge int lengths."""
    if slope == 0.0:
        return 0.0
    try:
        return slope * float(length)
    except OverflowError:
        return math.inf if slope > 0 else -math.inf


def product_pieces(w: WeightSpec, i: int, n_lo: int, n_hi: int) -> list[Piece]:
    """ln |P(i, n)| for n in [n_lo, n_hi] as log-linear pieces.

    Requires run-structured weights, asked of value_counts (a sequence keeps
    counts exactly where it has runs), so a closed form is never read index
    by index.  Unilateral annihilation (i - n < 1) appears as a trailing
    zero piece, never as an error.
    """
    if n_lo < 0 or n_hi < n_lo:
        raise ValueError(f"bad n range [{n_lo}, {n_hi}]")
    alive_hi = w.index_set.alive_to(i, n_hi)
    if alive_hi < n_lo:
        return [Piece(n_lo, n_hi, NEG_INF, 0.0)]
    base = product(w, i, n_lo)
    if base.sign == 0:
        return [Piece(n_lo, n_hi, NEG_INF, 0.0)]
    out = [Piece(n_lo, n_lo, base.logmag, 0.0)]
    cur_log = base.logmag  # ln |P(i, n)| at the end of the last piece
    if alive_hi > n_lo:
        lo, hi = i - alive_hi, i - n_lo - 1
        if w.value_counts(lo, hi) is None:
            raise ValueError("piecewise products need run-structured weights")
        slopes, counts = w.run_logs(lo, hi)
        n = n_lo + 1
        # descending index order = ascending n: a piece over n in [n, n + c - 1]
        for slope, c in zip(slopes[::-1].tolist(), counts[::-1].tolist()):
            start_log = cur_log + slope
            out.append(Piece(n, n + c - 1, start_log, slope))
            cur_log = start_log + _run_span(slope, c - 1)
            n += c
    if alive_hi < n_hi:
        out.append(Piece(alive_hi + 1, n_hi, NEG_INF, 0.0))
    return coalesce_pieces(out)


def coalesce_pieces(pieces: list[Piece]) -> list[Piece]:
    out: list[Piece] = []
    for p in pieces:
        if out:
            q = out[-1]
            joined = q.n1 + 1 == p.n0
            same_zero = q.log0 == NEG_INF and p.log0 == NEG_INF
            same_line = (q.log0 != NEG_INF and p.log0 != NEG_INF
                         and q.slope == p.slope and q.log_at(p.n0) == p.log0)
            if joined and (same_zero or same_line):
                out[-1] = Piece(q.n0, p.n1, q.log0, q.slope)
                continue
        out.append(p)
    return out


def shift_pieces(pieces: list[Piece], offset_log: float) -> list[Piece]:
    """Multiply q by a constant: add offset_log to every finite piece."""
    return [p if p.log0 == NEG_INF else Piece(p.n0, p.n1, p.log0 + offset_log, p.slope)
            for p in pieces]


def overlay_row_runs(pieces: list[Piece], row_runs: list[Run], anchor: int) -> list[Piece]:
    """Multiply q(n) by the matrix row value at j = anchor - n.

    row_runs hold ln a(j, m) over a j-interval covering {anchor - n} for all
    n spanned by `pieces`.  Two-pointer sweep: both lists are sorted and
    disjoint, so the result has at most len(pieces) + len(row_runs) pieces.
    """
    # rewrite runs over j as sorted intervals over n = anchor - j
    intervals = sorted((anchor - r.stop, anchor - r.start, r.value) for r in row_runs)
    out: list[Piece] = []
    ptr = 0
    for p in pieces:
        n = p.n0
        while n <= p.n1:
            while ptr < len(intervals) and intervals[ptr][1] < n:
                ptr += 1
            if ptr >= len(intervals) or intervals[ptr][0] > n:
                raise ValueError(f"matrix row runs leave a gap at n={n}")
            a, b, logv = intervals[ptr]
            hi = min(b, p.n1)
            if p.log0 == NEG_INF or logv == NEG_INF:
                out.append(Piece(n, hi, NEG_INF, 0.0))
            else:
                out.append(Piece(n, hi, p.log_at(n) + logv, p.slope))
            n = hi + 1
    return out
