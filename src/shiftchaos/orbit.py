"""Witness orbits n -> ||B^n x||_m over [1, N], x = sum_j b_j e_{i_j}
finitely supported, and the four routes that read them: which cells lie
above a level, and the orbit's sum:

  counts  a single term whose weights on the alive range all have modulus
          1: how many n take each value (single_term_counts), exact at any
          horizon in one O(log blocks) read;
  pieces  a single term elsewhere: log-linear envelopes, exact at
          astronomical horizons, 10**200 included (single_term_pieces);
  dense   within the caps (MAX_DENSE, DENSE_CELL_CAP): numpy chunks of the
          orbit (shift.orbit_seminorm_log_chunks), summed in blocks that no
          chunk size moves (numerics.logsumexp_blocks);
  runs    basis orbits as intervals (superlevel_steps).  Where the weight
          and the row are constant, or the row is |j| + 1 and j keeps its
          sign, the orbit is concave (_OrbitPieces), so its cells at least
          level + margin form one interval, sure to be in, and those at
          least level - margin a wider one (concave_superlevel).  The cells
          between, which rounding could put on either side, get the dense
          route's own arithmetic (_DenseCells); without runs that is every
          cell, the dense scan itself.

A WitnessOrbit picks a condition-(B) level's route once and answers its
count (dc_cert) and its sum (mly_cert).  Mode "auto" reads a single term's
count form first, at every horizon, then runs dense within the caps, else
pieces; mode "pieces" reads the count form or pieces; mode "dense" always
runs dense.  Condition (A) and its refutation walk the runs route; the other
dense checks take require_dense as their size guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics, piecewise
from .numerics import (NEG_INF, LogScalar, SparseVector, chunk_spans, logsumexp_blocks,
                       logsumexp_p)
from .shift import ShiftOperator, _lockstep, orbit_seminorm_log_chunks
from .weights import (MAX_DENSE, Piece, overlay_row_runs, product_log_slice, product_pieces,
                      shift_pieces)

# max terms * horizon cells for the dense route: a cap on time, since the
# dense route streams its horizon in numerics.CHUNK-cell chunks
DENSE_CELL_CAP = 40_000_000


@dataclass(frozen=True)
class WitnessTerm:
    """One coefficient |b| at basis index i of a witness vector: the indices
    of a witness are distinct, so B^n x has one term per coordinate and no
    seminorm of it reads the sign of b."""

    index: int
    coeff: LogScalar

    @staticmethod
    def of(index: int, coeff: float) -> "WitnessTerm":
        return WitnessTerm(int(index), LogScalar.from_real(abs(float(coeff))))


def single_term_pieces(op: ShiftOperator, term: WitnessTerm, m: int,
                       n_hi: int) -> list[Piece]:
    """ln |b| * |P(i, n)| * a(i - n, m) over n in [1, n_hi] as pieces.

    Unilateral annihilation shows up as a trailing zero piece; the matrix row
    is only consulted on the alive stretch, so row generators never see
    off-domain indices.
    """
    i = term.index
    alive_hi = op.space.index_set.alive_to(i, n_hi)
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
    alive_hi = op.space.index_set.alive_to(i, n_hi)
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
            return log_sum_values(self.form)
        if self.route == "pieces":
            return piecewise.log_sum(self.form)
        return logsumexp_blocks(logs for _, logs in self.form())


def log_sum_values(counts: dict[float, int]) -> float:
    """ln sum_n q(n) for q given in count form {ln q: count}.  Counts stay
    ints (math.log takes them at any size), so horizons past 2**1024 are
    fine."""
    return logsumexp_p([lv + math.log(c) for lv, c in counts.items()], 1)


# ---------------------------------------------------------------------------
# the runs route


# (key, start, end) columns of intervals, sorted by key, then by start, and
# disjoint within a key; key = anchor * levels + level, the positions of
# the anchor and of its k in the lists asked for
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]
_NO_CELLS = (np.zeros(0, np.int64),) * 3
_U = 2.0 ** -53  # the unit roundoff of float64
# The run route walks [1, horizon] in steps of STEP_CHUNKS chunks: each step
# costs a fixed set of numpy calls, and its arrays grow with the runs and
# pieces it holds.  Under tracemalloc (ex1's refutation from anchor 0) 4
# chunks keep the peak at 4 * 2**20 cells within 1.25 times the peak at
# 2**20; 8 chunks and the whole horizon at once do not (README).
STEP_CHUNKS = 4


def superlevel_steps(op: ShiftOperator, anchors: list[int], horizon: int, level: float,
                     ks: tuple[int, ...]) -> Iterator[tuple[int, int, Cells]]:
    """(n0, n1, cells) per step [n0, n1] of [1, horizon]: per anchor i and
    k in ks the n in it with ln |P(i, n) a(i - n, k)| >= level, as
    intervals, each cell on the side the dense route's float puts it (the
    runs route), the pieces of every anchor and level in a step split at
    once.  The anchors' orbits are walked in step (shift._lockstep), so an
    error surfaces as if each anchor ran to the end in turn.
    """
    dense = [_DenseCells(op, i, ks, a * len(ks)) for a, i in enumerate(anchors)]
    walks = [_orbit_walk(op, i, horizon, level, cells) for i, cells in zip(anchors, dense)]
    for (n0, n1), step in zip(chunk_spans(1, horizon, STEP_CHUNKS * numerics.CHUNK),
                              _lockstep(walks)):
        parts = [s for s in step if not isinstance(s, _OrbitPieces)]  # decided cells
        pieces = [s for s in step if isinstance(s, _OrbitPieces)]
        if pieces:
            sure, undecided = _OrbitPieces.stack(pieces).split_at(level)
            parts.append(sure)
            owner = undecided[0] // len(ks)  # np.unique would import numpy.ma
            for a in sorted(set(owner.tolist())):
                mine = owner == a
                parts.append(dense[a](tuple(c[mine] for c in undecided), level))
        if len(parts) == 1:
            key, starts, ends = parts[0]
        else:
            key, starts, ends = (np.concatenate(c) for c in zip(*parts))
            order = np.lexsort((starts, key))
            key, starts, ends = key[order], starts[order], ends[order]
        yield n0, n1, (key, starts, ends)


def _orbit_walk(op: ShiftOperator, i: int, horizon: int, level: float,
                dense: "_DenseCells") -> Iterator["_OrbitPieces | Cells"]:
    """Per step of [1, horizon], the orbit of i as pieces of every level
    (keys from dense's first key), or its cells at or above the level where
    no piece is needed: none once the orbit has left N, every cell from
    dense where the runs give out."""
    # past alive the orbit has left N: no cell there reaches a level
    alive = op.space.index_set.alive_to(i, horizon)
    carry = (0.0, 0.0, 0.0)
    for n0, n1 in chunk_spans(1, horizon, STEP_CHUNKS * numerics.CHUNK):
        hi = min(n1, alive)
        if n0 > hi:
            yield _NO_CELLS
            continue
        built = None if carry is None else _OrbitPieces.of(op, i, n0, hi, carry, dense.ks,
                                                           dense.key0)
        if built is None:  # no runs: from here on every cell is undecided
            carry, every = None, dense.key0 + np.arange(len(dense.ks))
            yield dense((every, np.full(every.size, n0), np.full(every.size, hi)), level)
        else:
            pieces, carry = built
            yield pieces


@dataclass(frozen=True)
class _OrbitPieces:
    """f_k(n) = ln |P(i, n)| + ln a(i - n, k) over pieces [n0, n1] of a
    step on which the weight w_{i-n} and the row are constant, or the row's
    base is |j| + 1 (s(J)) and j = i - n keeps its sign: there

        f_k(n) = (A + slope * (n - B)) + (r + power * ln(|i - n| + 1)),

    with ln |P(i, n)| affine and either a constant row r (power 0) or
    power * ln(|j| + 1) (power k on power rows, 1 on constant ones), so f_k
    is concave.  Pieces of several anchors and levels stack, each under the
    key of its anchor and level.  Rows and slopes are the dense route's
    floats (np.log once per run, k * ln base, as run_log_rows gives them),
    so `at` is off the dense float of a cell only by the dense cumsum's
    rounding and a few more roundings: margin bounds that, per piece.
    Pieces where the row is 0 (r = -inf) are left out: no cell there
    reaches any level.
    """

    key: np.ndarray
    i: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    A: np.ndarray  # ln |P(i, B)|
    B: np.ndarray
    slope: np.ndarray
    r: np.ndarray
    power: np.ndarray | None  # None: every piece has power 0, else every piece >= 1
    margin: np.ndarray

    @staticmethod
    def of(op: ShiftOperator, i: int, n0: int, n1: int, carry: tuple[float, float, float],
           ks: tuple[int, ...], key0: int
           ) -> "tuple[_OrbitPieces, tuple[float, float, float]] | None":
        """The pieces of every level in ks (keys from key0) over the step
        [n0, n1] (i - n on the domain throughout), from one runs pass over
        the weights and one over the row's base, and the carry for the next
        step (ln |P(i, n1)| and the margin's sums), given the carry of the
        step before; None where either has no runs (and the base is not
        |j| + 1), or the row rule is custom."""
        lo, hi = i - n1, i - n0
        matrix = op.space.matrix
        wl, wc = op.weights.run_logs(lo, hi)
        if wc is None or matrix.rule == "custom":
            return None
        if matrix.sign_affine:  # split where j = i - n changes sign
            r0 = np.array([n0, i + 1] if n0 < i + 1 <= n1 else [n0])
            rl = np.zeros((len(ks), r0.size))
        else:
            rows = [(row, rc) for _, row, rc in matrix.run_log_rows(lo, hi, ks)]
            rc = rows[0][1]
            if rc is None:
                return None
            rl, rc = np.stack([row[::-1] for row, _ in rows]), rc[::-1]  # in ascending n
            r0 = n0 + np.cumsum(rc) - rc
        # weight runs in ascending n, and ln |P(i, n)| at their ends
        wl, wc = wl[::-1], wc[::-1]
        w0 = n0 + np.cumsum(wc) - wc
        steps = wc * wl
        steps[0] += carry[0]
        T = np.cumsum(steps)
        before = np.concatenate(([carry[0]], T[:-1]))
        p0 = _union(w0, r0)
        p1 = np.append(p0[1:] - 1, n1)
        wt = np.searchsorted(w0, p0, "right") - 1
        A, B, slope = before[wt], w0[wt] - 1, wl[wt]
        r = rl[:, np.searchsorted(r0, p0, "right") - 1]  # (levels, pieces)
        # The dense cumsum rounds each partial sum once, so it is off the
        # exact sum of the same logs by at most u * sum_{m <= n} |ln P(i, m)|
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        # section 4.2); |ln P| is affine on a run, so its sum there lies
        # under the chord.  T rounds one product and one sum per run, and
        # `at` and the dense route's last addition round a few more terms,
        # each no larger than `local` (|ln P| is at most |A| + |slope| (n - B)
        # on a piece).  Doubled for slack.
        chord = carry[1] + np.cumsum(wc * (np.abs(before + wl) + np.abs(T)) / 2)
        chain = carry[2] + np.cumsum(np.abs(wc * wl) + np.abs(T))
        local = 2 * (np.abs(A) + np.abs(slope) * (p1 - B)) + np.abs(r)
        power = None
        if matrix.sign_affine:  # times the larger ln(|j| + 1) of the piece's ends
            power = np.outer(np.array(ks if matrix.rule == "power" else [1] * len(ks), float),
                             np.ones(p0.size))
            local += power * np.log(np.maximum(np.abs(i - p0), np.abs(i - p1)) + 1.0)
        margin = 2 * _U * (1.01 * chord[wt] + chain[wt] + 4 * local)
        cell = np.flatnonzero(r > NEG_INF)  # level * pieces + piece
        t = cell % p0.size
        pieces = _OrbitPieces(key0 + cell // p0.size, np.full(t.size, i), p0[t], p1[t], A[t],
                              B[t], slope[t], r.ravel()[cell],
                              None if power is None else power.ravel()[cell],
                              margin.ravel()[cell])
        return pieces, (float(T[-1]), float(chord[-1]), float(chain[-1]))

    @staticmethod
    def stack(parts: list["_OrbitPieces"]) -> "_OrbitPieces":
        """The pieces of every part, in order: one split serves them all."""
        if len(parts) == 1:
            return parts[0]
        columns = {f.name: [getattr(p, f.name) for p in parts] for f in fields(_OrbitPieces)}
        return _OrbitPieces(**{name: None if col[0] is None else np.concatenate(col)
                               for name, col in columns.items()})

    def at(self, ns: np.ndarray, t: np.ndarray) -> np.ndarray:
        """f at cells ns of pieces t; the row is power * np.log(|j| + 1.0)
        as the dense route takes it, and x + 0.0 == x."""
        row = self.r[t]
        if self.power is not None:
            row = row + self.power[t] * np.log(np.abs(self.i[t] - ns) + 1.0)
        return (self.A[t] + self.slope[t] * (ns - self.B[t])) + row

    def peaks(self) -> np.ndarray:
        """The n of each piece up to which f rises and after which it falls.

        f'(x) = slope - power / (i - x + 1) where j >= 0 (n <= i) and
        slope + power / (x - i + 1) past it, so f peaks inside a piece only
        at x = i + 1 - power / slope (slope > 0) or x = i - 1 - power / slope
        (slope < 0).  The integer peak is floor(x) or floor(x) + 1, the one
        f is larger at: not always the nearer, as f is not symmetric about x.
        """
        if self.power is None:  # affine: an end
            return np.where(self.slope > 0, self.n1, self.n0)
        left = self.n1 <= self.i
        inner = np.where(left, self.slope > 0, self.slope < 0)
        x = (np.where(left, self.i + 1.0, self.i - 1.0)
             - self.power / np.where(inner, self.slope, 1.0))
        below = np.clip(np.floor(x), self.n0, self.n1).astype(np.int64)
        above, t = np.minimum(below + 1, self.n1), np.arange(below.size)
        peak = np.where(self.at(above, t) > self.at(below, t), above, below)
        return np.where(inner, peak, np.where(~left & (self.slope >= 0), self.n1, self.n0))

    def split_at(self, level: float) -> tuple[Cells, Cells]:
        """(sure, undecided): the cells whose dense float is >= level
        beyond doubt, and those within margin of the level, as intervals
        under each piece's key.  Where every f is affine, the bisection
        starts from each real crossing, or from the last cell where f is
        flat."""
        levels = level + np.stack((self.margin, -self.margin))
        guess = None
        if self.power is None:
            flat = self.slope == 0
            with np.errstate(over="ignore"):
                guess = np.where(flat, self.n1, self.B + (levels - self.A - self.r)
                                 / np.where(flat, 1.0, self.slope))
        first, last = concave_superlevel(self.at, self.n0, self.n1, self.peaks(), levels,
                                         guess)
        fs, ls = first[0], last[0]
        fu, lu = np.minimum(first[1], fs), np.maximum(last[1], ls)
        band = np.stack((fu, fs - 1, ls + 1, lu), axis=1).reshape(-1, 2)
        some, sure = band[:, 0] <= band[:, 1], fs <= ls
        return ((self.key[sure], fs[sure], ls[sure]),
                (np.repeat(self.key, 2)[some], band[some, 0], band[some, 1]))


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a and b: np.union1d, without the
    numpy.ma import its first call costs a process (about 15 ms)."""
    s = np.sort(np.concatenate((a, b)))
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


class _DenseCells:
    """The dense route's own floats at chosen cells of one orbit, walked
    forward: ln |P(i, n)| from product_log_slice, carried from the last
    cell read (only the carry is kept past it), and the rows of every level
    in ks through one log_rows per slice of the cells asked for, added as
    basis_orbit_logs adds them.  Cells are keyed key0 + the position of
    their k."""

    def __init__(self, op: ShiftOperator, i: int, ks: tuple[int, ...], key0: int):
        self.op, self.i, self.ks, self.key0 = op, i, ks, key0
        self.at, self.carry = 0, 0.0  # ln |P(i, at)|

    def __call__(self, cells: Cells, level: float) -> Cells:
        """The n of the intervals (past any cell read before) whose value at
        their level is >= level, as intervals: read in CHUNK-cell slices of
        the span from the first cell asked for to the last, skipping slices
        that hold no cell."""
        key, starts, ends = cells
        if not starts.size:
            return _NO_CELLS
        out = []
        for m0, m1 in chunk_spans(int(starts.min()), int(ends.max())):
            inside = (starts <= m1) & (ends >= m0)
            if inside.any():
                out.append(self._read(key[inside], np.maximum(starts[inside], m0),
                                      np.minimum(ends[inside], m1), level))
        if len(out) < 2:
            return out[0] if out else _NO_CELLS
        key, starts, ends = (np.concatenate(c) for c in zip(*out))
        order = np.lexsort((starts, key))
        return key[order], starts[order], ends[order]

    def _read(self, key: np.ndarray, starts: np.ndarray, ends: np.ndarray,
              level: float) -> Cells:
        """__call__ on the intervals of one slice."""
        op, i = self.op, self.i
        a, b = int(starts.min()), int(ends.max())
        for m0, m1 in chunk_spans(self.at + 1, a - 1):
            self.carry = product_log_slice(op.weights, i, m0, m1, self.carry)[-1]
        logs = product_log_slice(op.weights, i, a, b, self.carry)
        self.at, self.carry = b, logs[-1]
        out = []
        for t, (_, row) in enumerate(op.space.log_rows(i - b, i - a, self.ks), self.key0):
            mine = key == t
            if not mine.any():
                continue
            inside = np.zeros(b - a + 2, np.int64)
            np.add.at(inside, starts[mine] - a, 1)
            np.add.at(inside, ends[mine] - a + 1, -1)
            hit = (np.cumsum(inside[:-1]) > 0) & (logs + row[::-1] >= level)
            edges = np.flatnonzero(np.diff(hit, prepend=False, append=False)).reshape(-1, 2)
            out.append((np.full(len(edges), t), edges[:, 0] + a, edges[:, 1] + a - 1))
        return tuple(np.concatenate(c) for c in zip(*out)) if out else _NO_CELLS


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
