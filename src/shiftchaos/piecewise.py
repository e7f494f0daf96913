"""Exact counting and stable summation over piecewise log-linear functions.

A list of Pieces describes q(n) > 0 (or = 0) on consecutive integer
intervals, with ln q affine on each piece.  Certificate counts reduce to
"how many n have ln q(n) > threshold", answered per piece by bisection on a
monotone float predicate, so a horizon of 10**200 costs a few hundred
comparisons instead of 10**200 evaluations.  Piece lengths are Python ints;
sums use the closed form of geometric series in the log domain.

Where q is flat in its weight factor (every weight has |w| = 1), only how
often each value occurs matters: the count form {ln q: count} answers the
same count (a sum of the counts above the threshold) and sum
(log_sum_values) with no pieces at all.  Pieces serve the spans that are
not flat.

Where ln q is concave on each piece rather than affine (concave_superlevel),
the cells at or above a level form one interval around the piece's peak,
bisected for on both sides, every piece at once in numpy.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .numerics import NEG_INF, logsumexp_p
from .weights import Piece, _run_span


def _first_offset_above(piece: Piece, thr: float) -> int | None:
    """Minimal t in [0, count-1] with log0 + slope*t > thr, assuming slope > 0.

    The float predicate is monotone in t (multiplication and addition are
    monotone under rounding), so bisection gives the exact strict boundary.
    """
    last = piece.count - 1
    if not piece.log0 + _run_span(piece.slope, last) > thr:
        return None
    lo, hi = 0, last
    while lo < hi:
        mid = (lo + hi) // 2
        if piece.log0 + _run_span(piece.slope, mid) > thr:
            hi = mid
        else:
            lo = mid + 1
    return lo

def _last_offset_above(piece: Piece, thr: float) -> int | None:
    """Maximal t with log0 + slope*t > thr, assuming slope < 0."""
    if not piece.log0 > thr:
        return None
    lo, hi = 0, piece.count - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if piece.log0 + _run_span(piece.slope, mid) > thr:
            lo = mid
        else:
            hi = mid - 1
    return lo


def count_above(pieces: list[Piece], thr: float) -> int:
    """card {n : ln q(n) > thr}; strict, no slack, ties excluded."""
    total = 0
    for p in pieces:
        if p.log0 == NEG_INF:
            continue
        if p.slope == 0.0:
            if p.log0 > thr:
                total += p.count
        elif p.slope > 0.0:
            t = _first_offset_above(p, thr)
            if t is not None:
                total += p.count - t
        else:
            t = _last_offset_above(p, thr)
            if t is not None:
                total += t + 1
    return total


def piece_log_sum(p: Piece) -> float:
    """ln sum_{n in piece} q(n) via the geometric closed form."""
    if p.log0 == NEG_INF:
        return NEG_INF
    length = p.count
    if p.slope == 0.0:
        return p.log0 + math.log(length)
    s = p.slope
    if s > 0:
        # (e^{sL} - 1)/(e^s - 1) = e^{s(L-1)} * (1 - e^{-sL}) / (1 - e^{-s})
        head = _run_span(s, length - 1)
        return (p.log0 + head
                + math.log(-math.expm1(-_run_span(s, length)))
                - math.log(-math.expm1(-s)))
    return (p.log0
            + math.log(-math.expm1(_run_span(s, length)))
            - math.log(-math.expm1(s)))


def log_sum(pieces: list[Piece]) -> float:
    """ln sum_n q(n) over all pieces: one fsum of the pieces' closed forms."""
    return logsumexp_p([piece_log_sum(p) for p in pieces], 1)


def log_sum_values(counts: dict[float, int]) -> float:
    """ln sum_n q(n) for q given in count form {ln q: count}.  Counts stay
    ints (math.log takes them at any size), so horizons past 2**1024 are
    fine."""
    return logsumexp_p([lv + math.log(c) for lv, c in counts.items()], 1)


def concave_superlevel(g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       n0: np.ndarray, n1: np.ndarray, peak: np.ndarray,
                       levels: np.ndarray, guess: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per level row l and piece t: the first and last n in [n0[t], n1[t]]
    with g(n, t) >= levels[l, t], or (peak + 1, peak) where there is none.

    g(ns, ts) evaluates pieces ts at cells ns, and g(., t) must rise up to
    peak[t] and fall after it (a concave function does), so the cells at
    least a level form one interval holding the peak.  Its two ends are
    bisected for on either side of the peak, every piece and level at once.

    guess[l, t], where given, estimates where piece t crosses level l (its
    one crossing, or the last n of a piece that never falls below it).  The
    search first probes the cells floor(guess) and floor(guess) + 1 in one
    step, clipped into each bracket, so an estimate within a cell of the end
    settles it there; the probes only narrow the brackets, so no estimate
    (infinite or NaN included) can move an end.
    """
    rows, p = levels.shape
    half = rows * p
    t = np.arange(2 * half) % p
    level = levels.ravel()
    level = np.concatenate((level, level))
    pk = peak[t]
    hit = g(pk[:half], t[:half]) >= level[:half]  # the same on either side
    hit = np.concatenate((hit, hit))
    rising = np.arange(2 * half) < half
    # left of the peak hi ends as the first n at the level, right of it as
    # the first n past it
    lo = np.concatenate((n0[t[:half]] - 1, pk[half:]))
    hi = np.concatenate((pk[:half], n1[t[half:]] + 1))
    live = np.flatnonzero(hit & (hi - lo > 1))
    if guess is not None and live.size:
        # one step probing c and c + 1, lo <= c < c + 1 < hi: past(lo) is
        # false, so past(c) moves hi to c, else past(c + 1) leaves
        # (c, c + 1), else lo moves to c + 1
        both = np.concatenate((live, live))
        c = np.fmin(np.fmax(np.floor(guess).ravel()[live % half], lo[live]), hi[live] - 2)
        c = c.astype(np.int64)  # a NaN estimate reads lo
        past = (g(np.concatenate((c, c + 1)), t[both]) >= level[both]) == rising[both]
        at_c, at_next = past[:live.size] & (c > lo[live]), past[live.size:]
        hi[live] = np.where(at_c, c, np.where(at_next, c + 1, hi[live]))
        lo[live] = np.where(at_c, lo[live], np.where(at_next, c, c + 1))
        live = live[hi[live] - lo[live] > 1]
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        past = (g(mid, t[live]) >= level[live]) == rising[live]
        hi[live] = np.where(past, mid, hi[live])
        lo[live] = np.where(past, lo[live], mid)
        live = live[hi[live] - lo[live] > 1]
    first = np.where(hit, hi, pk + 1)[:half]
    last = np.where(hit, hi - 1, pk)[half:]
    return first.reshape(rows, p), last.reshape(rows, p)
