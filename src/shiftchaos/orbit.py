"""Witness orbits, n -> ||B^n x||_m over [1, N] for a finitely supported
x = sum_j b_j e_{i_j}, and the routes that read them.

dc_cert counts the n <= N_k where the orbit exceeds k ||x||_p(k), mly_cert
averages it.  A WitnessOrbit picks a level's route once and answers both:

  counts  a single term whose weights on the alive range all have modulus
          1: how many n take each value (single_term_counts), exact at any
          horizon in one O(log blocks) read;
  pieces  a single term elsewhere: log-linear envelopes, exact at
          astronomical horizons, 10**200 included (single_term_pieces);
  dense   within the caps (MAX_DENSE, DENSE_CELL_CAP): numpy chunks of the
          orbit (shift.orbit_seminorm_log_chunks), summed in blocks that no
          chunk size moves (numerics.logsumexp_blocks).

Mode "auto" reads a single term's count form first, at every horizon, then
runs dense within the caps, else pieces; mode "pieces" reads the count form
or pieces; mode "dense" always runs dense.  The other dense checks take
require_dense as their size guard; condition (A) and the two refutations
read run ends, with the dense route's arithmetic only on the cells rounding
could decide (dc_cert._bad_steps, dc_cert.refute_hypercyclicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import piecewise
from .numerics import NEG_INF, LogScalar, SparseVector, logsumexp_blocks
from .shift import ShiftOperator, orbit_seminorm_log_chunks
from .spaces import IndexSet
from .weights import MAX_DENSE, Piece, overlay_row_runs, product_pieces, shift_pieces

# max terms * horizon cells for the dense route: a cap on time, since the
# dense route streams its horizon in numerics.CHUNK-cell chunks
DENSE_CELL_CAP = 40_000_000


@dataclass(frozen=True)
class WitnessTerm:
    """One coefficient b at basis index i of a witness vector."""

    index: int
    coeff: LogScalar

    @staticmethod
    def of(index: int, coeff) -> "WitnessTerm":
        c = coeff if isinstance(coeff, LogScalar) else LogScalar.from_real(float(coeff))
        return WitnessTerm(int(index), c)


def single_term_pieces(op: ShiftOperator, term: WitnessTerm, m: int,
                       n_hi: int) -> list[Piece]:
    """ln |b| * |P(i, n)| * a(i - n, m) over n in [1, n_hi] as pieces.

    Unilateral annihilation shows up as a trailing zero piece; the matrix row
    is only consulted on the alive stretch, so row generators never see
    off-domain indices.
    """
    i = term.index
    alive_hi = n_hi
    if op.space.index_set is IndexSet.N:
        alive_hi = min(n_hi, i - 1)
        if alive_hi < 1:
            return [Piece(1, n_hi, NEG_INF, 0.0)]
    pieces = product_pieces(op.weights, i, 1, alive_hi)
    row_runs = op.space.matrix.log_row_runs(m, i - alive_hi, i - 1)
    if row_runs is None:
        raise ValueError("piecewise route needs run-structured matrix rows")
    pieces = overlay_row_runs(pieces, row_runs, anchor=i)
    pieces = shift_pieces(pieces, term.coeff.logmag)
    if alive_hi < n_hi:
        pieces.append(Piece(alive_hi + 1, n_hi, NEG_INF, 0.0))
    return pieces


def single_term_counts(op: ShiftOperator, term: WitnessTerm, m: int,
                       n_hi: int) -> dict[float, int] | None:
    """The count form of single_term_pieces where P(i, n) is flat:
    {ln |b * a(i - n, m)|: how many n in [1, n_hi] take it}, zero terms left
    out.

    Flat means every weight on the alive range [i - alive_hi, i - 1] has
    |w| = 1; then only the row's value counts matter, read in O(log blocks).
    Keys are (m ln v) + ln |b| with m ln v the float every row reader gives
    (KotheMatrix.log_row_counts), so counts match the piece and dense routes
    and the seminorms exactly.  None (take the piece route) when a weight
    has |w| != 1, the row rule is custom, or a sequence keeps no value counts.
    """
    i = term.index
    alive_hi = n_hi
    if op.space.index_set is IndexSet.N:
        alive_hi = min(n_hi, i - 1)
        if alive_hi < 1:
            return {}
    weights = op.weights.value_counts(i - alive_hi, i - 1)
    if weights is None or any(abs(v) != 1.0 for v in weights):
        return None
    rows = op.space.matrix.log_row_counts(m, i - alive_hi, i - 1)
    if rows is None:
        return None
    out: dict[float, int] = {}
    for lv, c in rows.items():
        key = lv + term.coeff.logmag
        out[key] = out.get(key, 0) + c
    return out


def valid_mode(mode) -> str:
    """mode, where it names a route rule: auto, dense or pieces."""
    if mode not in ("auto", "dense", "pieces"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _dense_fits(n_terms: int, horizon: int) -> bool:
    return horizon <= MAX_DENSE and n_terms * (horizon + 1) <= DENSE_CELL_CAP


def require_dense(n_terms: int, horizon: int) -> None:
    """The dense route's size guard: raises where it cannot run."""
    if not _dense_fits(n_terms, horizon):
        raise ValueError(
            f"dense route too large ({n_terms} terms, horizon {horizon}); "
            "single-term schedules can use mode='pieces'")


class WitnessOrbit:
    """ln ||B^n x||_m over n in [1, horizon], x the sum of the terms, on the
    route (counts, pieces or dense) its mode gives; raises where none can run."""

    def __init__(self, op: ShiftOperator, terms: Sequence[WitnessTerm], m: int,
                 horizon: int, mode: str = "auto"):
        valid_mode(mode)
        single = len(terms) == 1
        if mode == "pieces" and not single:
            raise ValueError("piecewise route handles single-term witnesses only")
        if mode == "dense":
            require_dense(len(terms), horizon)
        fits = _dense_fits(len(terms), horizon)
        if not (single or fits):
            raise ValueError("no feasible route: multi-term witness at a horizon "
                             "beyond the dense cap")
        x = SparseVector.from_terms([(t.index, t.coeff) for t in terms])
        # dense: the orbit's (n0, logs) chunks, read afresh for each answer
        self.route, self.form = "dense", lambda: orbit_seminorm_log_chunks(op, x, m, 1, horizon)
        if mode != "dense" and single:
            counts = single_term_counts(op, terms[0], m, horizon)
            if counts is not None:
                self.route, self.form = "counts", counts
            elif mode == "pieces" or not fits:
                self.route, self.form = "pieces", single_term_pieces(op, terms[0], m, horizon)

    def count_above(self, thr: float) -> int:
        """card {n <= horizon : ln ||B^n x||_m > thr}."""
        if self.route == "counts":
            return sum(c for lv, c in self.form.items() if lv > thr)
        if self.route == "pieces":
            return piecewise.count_above(self.form, thr)
        return sum(int(np.count_nonzero(logs > thr)) for _, logs in self.form())

    def log_sum(self) -> float:
        """ln sum_{n <= horizon} ||B^n x||_m, -inf for an orbit that vanishes;
        the dense sum's error bound is numerics.logsumexp_blocks', which
        nothing returns yet."""
        if self.route == "counts":
            return piecewise.log_sum_values(self.form)
        if self.route == "pieces":
            return piecewise.log_sum(self.form)
        return logsumexp_blocks(logs for _, logs in self.form())
