"""Exact counting and stable summation over piecewise log-linear functions.

A list of Pieces describes q(n) > 0 (or = 0) on consecutive integer
intervals, with ln q affine on each piece.  Certificate counts reduce to
"how many n have ln q(n) > threshold", answered per piece by bisection on a
monotone float predicate, so a horizon of 10**200 costs a few hundred
comparisons instead of 10**200 evaluations.  Piece lengths are Python ints;
sums use the closed form of geometric series in the log domain.  These
are the readers of the pieces route; orbit describes it and the others.
"""

from __future__ import annotations

import math

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
