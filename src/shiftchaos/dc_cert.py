"""Finite-horizon certificate checkers for distributional chaos of shifts.

Nothing here claims a limit statement.  A witness schedule supplies finitely
many levels k, each with a horizon N_k and a finitely supported vector, and a
level passes by the exact integer comparison

    count * k > (k - 1) * N_k        <=>        count / N_k > 1 - 1/k,

where count is how many times n <= N_k the orbit ratio strictly exceeds k.
Ratios are compared in the log domain with no tolerance slack, so engineered
ties (ratio exactly equal to k) fail, as a strict inequality demands.

Routes (count form, pieces, dense sweep, run ends) are described in `orbit`.
The four condition-(B) checks share one level loop and verdict ladder
(level_report), which rejects witness indices off the domain; the counting
level (_dc_level) compares seminorms, so check_dc_condition_B and
check_kothe_dc run the same comparison.  Condition (A) comes in as a report.
Anchors must lie in the domain.  Verdicts come from the closed vocabulary in
`reports` and are always horizon-stamped.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import numerics
from .density import (IndexPredicate, RunColumns, density_envelope, envelope_of_runs,
                      interval_runs, last_ratio_at_most, members_in, naturals, run_columns)
from .numerics import NEG_INF, LogScalar, SparseVector, chunk_spans, logsumexp_p_rows
# single_term_* stay importable from here: perfbench's tracer wraps dc_cert.single_term_pieces
from .orbit import (DENSE_CELL_CAP, WitnessOrbit, WitnessTerm, require_dense,
                    single_term_counts, single_term_pieces)
from .piecewise import concave_superlevel
from .reports import POSITIVE_VERDICTS, CertificateReport
from .shift import ShiftOperator, _lockstep, basis_orbit_logs
from .spaces import IndexSet, index_array, seminorm
from .weights import MAX_DENSE, product_log_slice, products

# ---------------------------------------------------------------------------
# witness schedules


@dataclass(frozen=True)
class DCWitnessEntry:
    k: int
    horizon: int
    terms: tuple[WitnessTerm, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"levels start at k = 1, got {self.k}")
        if self.horizon < 1:
            raise ValueError(f"nonpositive horizon {self.horizon}")
        if not self.terms:
            raise ValueError(f"entry k={self.k} has no terms")
        seen = set()
        for t in self.terms:
            if t.coeff.sign == 0:
                raise ValueError(f"zero coefficient at index {t.index} (k={self.k})")
            if t.index in seen:
                raise ValueError(f"duplicate witness index {t.index} (k={self.k})")
            seen.add(t.index)

    def vector(self) -> SparseVector:
        return SparseVector.from_terms([(t.index, t.coeff) for t in self.terms])


@dataclass(frozen=True)
class WitnessScheduleDC:
    """m, then per level k: horizon N_k and the witness terms.  Condition (A)
    is settled apart, by a report handed to the condition-(B) checks."""

    m: int
    entries: tuple[DCWitnessEntry, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("seminorm index m must be >= 1")
        if not self.entries:
            raise ValueError("schedule has no entries")
        ks = [e.k for e in self.entries]
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate levels in schedule")
        horizons = [e.horizon for e in self.entries]
        if any(b <= a for a, b in zip(horizons, horizons[1:])):
            raise ValueError("horizons N_k must be strictly increasing")

    def p_of(self, k: int) -> int:
        return self.m if k <= self.m else k


def schedule_dc(m: int, entries: Iterable[tuple[int, int, Iterable[tuple[int, float]]]]
                ) -> WitnessScheduleDC:
    """Build a schedule from plain (k, N_k, [(index, coeff), ...]) triples."""
    built = tuple(DCWitnessEntry(int(k), int(N),
                                 tuple(WitnessTerm.of(i, b) for i, b in terms))
                  for k, N, terms in entries)
    return WitnessScheduleDC(int(m), built)


# ---------------------------------------------------------------------------
# condition (A): decay along a density-1 candidate set


def check_dc_condition_A(op: ShiftOperator, D: IndexPredicate | None,
                         anchors: Iterable[int], horizon: int,
                         decay_tol: float = 1e-6, k_max: int = 4,
                         tail_fraction_min: float = 0.5) -> CertificateReport:
    """Is ||P(i, n) e_{i-n}||_k eventually below decay_tol along D?

    "Eventually at this horizon" means: past the last violating n in D, the
    remaining D-tail is clean and makes up at least tail_fraction_min of
    D cap [1, horizon] (a nonnegligible settled stretch, not a lucky last
    sample).  Verdicts speak only about the checked range.

    The violating n of every anchor and level come step by step as
    intervals (_bad_steps: one split of all their pieces, the dense
    route's arithmetic only on cells rounding could decide), and D's run
    blocks over the step are read at their ends (density.members_in): per
    anchor and level, how many members violate, the last one, and the
    members up to it.
    """
    D = D if D is not None else naturals()
    anchors = list(anchors)
    if horizon < 1 or not anchors:
        raise ValueError("need a positive horizon and at least one anchor")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _require_anchors(op, anchors)
    require_dense(1, horizon)
    env = density_envelope(D, horizon)
    d_total = D.prefix_count(horizon)
    params = {"horizon": horizon, "decay_tol": decay_tol, "k_max": k_max,
              "tail_fraction_min": tail_fraction_min, "set": D.name or "D"}
    if d_total == 0:
        return CertificateReport("dc-condition-A", "inconclusive", params,
                                 notes=["candidate set has no members in range"])
    params["set_ratio_at_horizon"] = env.ratio_at_horizon
    params["set_ratio_lower"] = env.lower
    log_tol = math.log(decay_tol)
    # per anchor and level (key anchor * k_max + k - 1): violations, the
    # last violating n, members in [1, last]
    keys = len(anchors) * k_max
    viol, last, through = np.zeros(keys, np.int64), [0] * keys, [0] * keys
    blocks, runs = run_columns(D, 1, horizon), None
    for n0, n1, (key, starts, ends) in _bad_steps(op, anchors, horizon, log_tol,
                                                  tuple(range(1, k_max + 1))):
        if not starts.size:
            continue
        runs = _runs_through(blocks, runs, n0, n1)
        count, upto, at = members_in(runs, starts, ends)
        viol += np.bincount(key, count, keys).astype(np.int64)
        hit = np.flatnonzero(count)  # by key, then n: each key's last
        for t in hit[np.diff(key[hit], append=keys) != 0].tolist():
            last[key[t]], through[key[t]] = int(at[t]), int(upto[t])
    rows = []
    for key in range(keys):
        n_viol, tail = int(viol[key]), d_total - through[key]
        rows.append({"anchor": anchors[key // k_max], "seminorm": key % k_max + 1,
                     "violations": n_viol, "last_violation": last[key],
                     "tail_members": tail,
                     "ok": n_viol == 0 or tail >= tail_fraction_min * d_total})
    verdict = ("condition-A-holds-at-horizon" if all(r["ok"] for r in rows)
               else "condition-failed")
    return CertificateReport("dc-condition-A", verdict, params, rows)


def _runs_through(blocks: Iterator[RunColumns], runs: RunColumns | None, n0: int,
                  n1: int) -> RunColumns:
    """D's runs over the step [n0, n1] as one block: those of `runs`, the
    block read before, from n0 on, then every block after it up to the one
    holding n1 (a set without runs gives one block per chunk, so a step
    spans several, and skipping one would miscount)."""
    held = []
    if runs is not None and runs[1][-1] >= n0:
        t = int(np.searchsorted(runs[1], n0))  # the first run ending at n0 or later
        held.append(tuple(c[t:] for c in runs))
    while not held or held[-1][1][-1] < n1:
        block = next(blocks)
        if block[1][-1] >= n0:
            held.append(block)
    return held[0] if len(held) == 1 else tuple(np.concatenate(c) for c in zip(*held))


def _require_anchors(op: ShiftOperator, anchors: Iterable[int]) -> None:
    """An anchor names a basis vector e_i, so it must lie in the domain."""
    domain = op.space.index_set
    for i in anchors:
        if not domain.contains(i):
            raise ValueError(f"anchor {i} is outside the domain {domain.value}")


def refute_dc_condition_A(op: ShiftOperator, anchors: Iterable[int], horizon: int,
                          bound: float = 0.5, delta: float = 1 / 6,
                          settle_by: int = 50) -> CertificateReport:
    """No density-1 set can carry the decay: the bad set is too thick.

    For each anchor i, bad(i) = {n : ||P(i, n) e_{i-n}||_1 >= bound}.  If the
    prefix ratio of bad(i) exceeds delta at every N from some N0 <= settle_by
    up to the horizon, any candidate D with prefix ratio -> 1 must meet bad(i)
    with positive frequency, so the decay fails along every such D.

    bad(i) comes step by step as intervals read off the runs of the
    weights and the row (_bad_steps at level 1), each cell on the side the
    dense route's float puts it, and density reads the prefix ratios off
    their ends: settles_at is one past the last N with ratio <= delta,
    min_ratio the least ratio from there (the first N of a tie), bad_count
    exact.
    """
    anchors = list(anchors)
    if horizon < 1 or not anchors:
        raise ValueError("need a positive horizon and at least one anchor")
    _require_anchors(op, anchors)
    require_dense(1, horizon)
    log_bound = math.log(bound)
    # per anchor: the last low N, the least ratio past it and its N, bad cells so far
    last_low, least, bad = [0] * len(anchors), [None] * len(anchors), [0] * len(anchors)
    for n0, n1, (key, starts, ends) in _bad_steps(op, anchors, horizon, log_bound, (1,)):
        cut = np.searchsorted(key, np.arange(len(anchors) + 1))
        for a, (s, e) in enumerate(zip(cut[:-1], cut[1:])):
            starts_a, ends_a = starts[s:e], ends[s:e]
            runs = interval_runs(starts_a, ends_a, n0, n1, n0, bad[a])
            low = last_ratio_at_most(runs, delta)
            if low:
                last_low[a], least[a] = low, None
            if low < n1:
                env = envelope_of_runs(interval_runs(starts_a, ends_a, max(low + 1, n0), n1,
                                                     n0, bad[a]))
                if least[a] is None or env.lower < least[a][0]:
                    least[a] = (env.lower, env.lower_at)
            bad[a] += int(np.sum(ends_a - starts_a + 1))
    rows = []
    for i, low, at_least, count in zip(anchors, last_low, least, bad):
        n0 = low + 1  # just past the last low N
        ok = n0 <= min(settle_by, horizon)
        min_ratio, min_at = at_least if ok else (0.0, n0)
        rows.append({"anchor": i, "settles_at": n0, "min_ratio": min_ratio,
                     "min_ratio_at": min_at, "bad_count": count, "ok": ok})
    verdict = ("condition-A-refuted-at-horizon" if all(r["ok"] for r in rows)
               else "inconclusive")
    params = {"horizon": horizon, "bound": bound, "delta": delta,
              "settle_by": settle_by}
    return CertificateReport("dc-condition-A-refutation", verdict, params, rows)


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


def _steps(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[lo, hi] cut into consecutive steps of STEP_CHUNKS * numerics.CHUNK
    cells (the last may be shorter); none when hi < lo."""
    step = STEP_CHUNKS * numerics.CHUNK
    for a in range(lo, hi + 1, step):
        yield a, min(a + step - 1, hi)


def _bad_steps(op: ShiftOperator, anchors: list[int], horizon: int, level: float,
               ks: tuple[int, ...]) -> Iterator[tuple[int, int, Cells]]:
    """(n0, n1, cells) per step [n0, n1] of [1, horizon]: per anchor i and
    k in ks the n in it with ln |P(i, n) a(i - n, k)| >= level, as
    intervals, each cell on the side the dense route's float puts it.

    On each piece of _OrbitPieces f_k(n) is concave, so its cells at least
    level + margin form one interval, sure to be in the set, and those at
    least level - margin a wider one; every other cell is sure to be out.
    The pieces of every anchor and level in a step are split at once.  The
    cells between, within margin of the level, are undecided: rounding
    could put their dense floats on either side, so _DenseCells evaluates
    them with the dense route's own arithmetic.  Without run structure
    every cell is undecided, and that is the dense scan itself.

    The anchors' orbits are walked in step (shift._lockstep), so an error
    surfaces as if each anchor ran to the end in turn.
    """
    dense = [_DenseCells(op, i, ks, a * len(ks)) for a, i in enumerate(anchors)]
    walks = [_orbit_walk(op, i, horizon, level, cells) for i, cells in zip(anchors, dense)]
    for (n0, n1), step in zip(_steps(1, horizon), _lockstep(walks)):
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
    alive = horizon if op.space.index_set is IndexSet.Z else min(horizon, i - 1)
    carry = (0.0, 0.0, 0.0)
    for n0, n1 in _steps(1, horizon):
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


# ---------------------------------------------------------------------------
# condition (B): counting orbit-ratio exceedances


def _condition_a_state(op: ShiftOperator, condition_a: CertificateReport | None,
                       auto_a: Callable[[], CertificateReport] | None
                       ) -> tuple[bool | None, str]:
    """Whether condition (A) is settled, and the note saying how."""
    if condition_a is not None:
        ok = condition_a.verdict in POSITIVE_VERDICTS
        return ok, f"condition (A) supplied: {condition_a.verdict}"
    if op.space.index_set is IndexSet.N:
        return True, "condition (A) automatic on the one-sided domain (orbits annihilate)"
    if auto_a is not None:
        rep = auto_a()
        return rep.verdict in POSITIVE_VERDICTS, f"condition (A) checked: {rep.verdict}"
    return None, "condition (A) not checked"


def level_report(kind: str, op: ShiftOperator, sched: WitnessScheduleDC,
                 mode: str, condition_a: CertificateReport | None,
                 level: Callable[[DCWitnessEntry], dict | str],
                 auto_a: Callable[[], CertificateReport] | None = None,
                 **params) -> CertificateReport:
    """The level loop and verdict ladder of the four condition-(B) checks.

    Every witness index must lie in the domain.  level(entry) returns the
    level's row, or the note on a zero denominator, which fails the check at
    once.  Every row must pass; condition (A) (the supplied report, else
    automatic on the one-sided domain, else auto_a() where given) then tells
    certified-at-horizon from condition-B-holds-at-horizon.
    """
    domain = op.space.index_set
    for entry in sched.entries:
        for t in entry.terms:
            if not domain.contains(t.index):
                raise ValueError(f"vector has support at {t.index} outside {domain}")
    a_ok, a_note = _condition_a_state(op, condition_a, auto_a)
    rows, notes = [], [a_note]
    for entry in sched.entries:
        row = level(entry)
        if isinstance(row, str):
            notes.append(row)
            return CertificateReport(kind, "condition-failed",
                                     {"m": sched.m, "mode": mode}, rows, notes)
        rows.append(row)
    if not all(r["pass"] for r in rows):
        verdict = "condition-failed"
    elif a_ok:
        verdict = "certified-at-horizon"
    else:
        verdict = "condition-B-holds-at-horizon"
    params = {"m": sched.m, "mode": mode, **params,
              "levels": [e.k for e in sched.entries]}
    return CertificateReport(kind, verdict, params, rows, notes)


def _count_row(k: int, N: int, count: int) -> dict:
    """A counting level passes iff count * k > (k - 1) * N, exactly."""
    try:
        threshold = float(N) * (k - 1) / k
    except OverflowError:
        threshold = math.inf
    return {"k": k, "N_k": N, "count": count, "threshold": threshold,
            "pass": count * k > (k - 1) * N}


def _dc_level(op: ShiftOperator, sched: WitnessScheduleDC, mode: str
              ) -> Callable[[DCWitnessEntry], dict | str]:
    """The counting level: card {n <= N_k : ||B^n x||_m > k ||x||_p(k)}.

    The numerator is the orbit seminorm of the schedule vector x, the
    denominator its p(k)-th seminorm; a zero denominator fails the level.
    """
    def level(entry: DCWitnessEntry) -> dict | str:
        k, N = entry.k, entry.horizon
        pk = sched.p_of(k)
        den = seminorm(op.space, entry.vector(), pk)
        if den.sign == 0:
            return f"zero denominator seminorm at k={k} (p(k)={pk})"
        orbit = WitnessOrbit(op, entry.terms, sched.m, N, mode)
        return _count_row(k, N, orbit.count_above(math.log(k) + den.logmag))

    return level


def check_dc_condition_B(op: ShiftOperator, sched: WitnessScheduleDC,
                         mode: str = "auto",
                         condition_a: CertificateReport | None = None
                         ) -> CertificateReport:
    """Count, per level k, the n <= N_k with seminorm ratio > k.

    The numerator is ||B^n (sum_j b_j e_{i_j})||_m, the denominator the
    schedule vector's p(k)-th seminorm.  certified-at-horizon needs every
    level to pass and condition (A) to be settled (a supplied report, or
    automatic on the one-sided domain); otherwise a full count yields
    condition-B-holds-at-horizon.
    """
    return level_report("dc-condition-B", op, sched, mode, condition_a,
                        _dc_level(op, sched, mode))


def check_kothe_dc(op: ShiftOperator, sched: WitnessScheduleDC,
                   mode: str = "auto",
                   condition_a: CertificateReport | None = None
                   ) -> CertificateReport:
    """The counting check on a Kothe echelon space lambda_p(A, J).

    There ||x||_k = (sum_j |a(j, k) x_j|^p)^(1/p) (the max for p = 0), which
    is the seminorm check_dc_condition_B compares, so this runs the same
    level; the report carries kind "kothe-dc" and the space's p.
    """
    return level_report("kothe-dc", op, sched, mode, condition_a,
                        _dc_level(op, sched, mode), p=op.space.p)


# ---------------------------------------------------------------------------
# the Banach-space forms on lp(Z)/c0(Z) with trivial weight rows


def _require_unit_rows(op: ShiftOperator, what: str) -> None:
    mat = op.space.matrix
    if mat.rule != "constant":
        raise ValueError(f"{what} needs constant-in-k rows")
    probe = [1, 2, 17, 123] if op.space.index_set is IndexSet.N else [-123, -17, -1, 0, 1, 17, 123]
    for j in probe:
        if mat.base.value_at(j) != 1.0:
            raise ValueError(f"{what} needs the row weights identically 1 "
                             f"(found {mat.base.value_at(j)} at j={j})")


def check_lp_c0_dc(op: ShiftOperator, S: Iterable[int],
                   k_range: Sequence[int] = (1, 2, 3, 4, 5, 6),
                   horizons: Sequence[int] | None = None,
                   eps: float = 1e-2,
                   coeffs: Sequence[float] | None = None) -> CertificateReport:
    """Banach-space counting forms on lp(Z)/c0(Z)-style spaces.

    c0 (p = 0): for each k, take the sup over the probed horizons N of
        card{n <= N : |P(i, n)| > k for some i in S} / N,
    and pass iff the inf over k of those sups strictly exceeds eps.

    lp (p >= 1): for each k at its horizon N_k, count the n with
        (sum_i b_i |P(i, n)|^p) / (sum_i b_i) > k,
    and pass iff count >= eps * N_k at every level (b_i > 0).
    """
    _require_unit_rows(op, "the lp/c0 counting form")
    S = sorted(set(int(i) for i in S))
    if not S:
        raise ValueError("index set S is empty")
    for i in S:
        if not op.space.index_set.contains(i):
            raise ValueError(f"index {i} in S is outside the domain {op.space.index_set.value}")
    ks = list(k_range)
    horizons = list(horizons) if horizons is not None else [100 * (t + 1) for t in range(len(ks))]
    if len(horizons) < len(ks):
        raise ValueError("need a horizon per level")
    for N in horizons:
        if N < 1:
            raise ValueError(f"horizons must be >= 1, got {N}")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    n_max = max(horizons)
    require_dense(len(S), n_max)
    logs = np.stack([product_log_slice(op.weights, i, 1, n_max) for i in S])
    rows = []
    if op.space.p == 0:
        combined = logsumexp_p_rows(logs, 0)
        inf_ratio = math.inf
        for k in ks:
            exceed = np.cumsum(combined > math.log(k))
            ratios = exceed[np.array(horizons) - 1] / np.array(horizons)
            at = int(np.argmax(ratios))
            sup_ratio = float(ratios[at])
            inf_ratio = min(inf_ratio, sup_ratio)
            rows.append({"k": k, "sup_ratio": sup_ratio,
                         "sup_at_N": horizons[at]})
        ok = inf_ratio > eps
        params = {"eps": eps, "S": S, "inf_ratio": inf_ratio,
                  "form": "c0-sup-count"}
        verdict = "passes-at-horizon" if ok else "condition-failed"
        return CertificateReport("lp-c0-dc", verdict, params, rows)
    b = [1.0] * len(S) if coeffs is None else [float(x) for x in coeffs]
    if len(b) != len(S) or any(x <= 0 for x in b):
        raise ValueError("coefficients must be positive, one per index in S")
    p = op.space.p
    lognum = logsumexp_p_rows(p * logs + np.log(b)[:, None], 1)
    logden = math.log(math.fsum(b))
    all_pass = True
    for k, N in zip(ks, horizons):
        count = int(np.count_nonzero(lognum[:N] - logden > math.log(k)))
        ok = count >= eps * N
        all_pass = all_pass and ok
        rows.append({"k": k, "N_k": N, "count": count,
                     "required": eps * N, "pass": ok})
    params = {"eps": eps, "S": S, "p": p, "form": "lp-weighted-average"}
    verdict = "passes-at-horizon" if all_pass else "condition-failed"
    return CertificateReport("lp-c0-dc", verdict, params, rows)


# ---------------------------------------------------------------------------
# sufficient condition via weight-plateau windows (unweighted shift on
# lp(nu, N) / c0(nu, N))


def check_mop_sufficient(op: ShiftOperator, alphas: Callable[[int], float],
                         j0: Callable[[int], int], j1: Callable[[int], int],
                         k_range: Sequence[int] = (1, 2, 3, 4, 5),
                         n_max: int = 40, mode: str = "auto") -> CertificateReport:
    """Plateau-window sufficient condition, then the emitted schedule.

    For each level k, scan n <= n_max for the first window [j0(n), j1(n))
    with nu(j1(n)) / alpha_n < 1/(2k) and with the alpha_n-large indices
    filling more than a (1 - 1/k) fraction of the window.  Each hit emits a
    single-term witness at j1(n) with horizon j1(n) - j0(n), and the whole
    schedule is then settled by check_dc_condition_B.
    """
    if op.space.index_set is not IndexSet.N:
        raise ValueError("plateau-window condition runs on the one-sided domain")
    if op.space.matrix.rule != "constant":
        raise ValueError("plateau-window condition needs constant-in-k rows")
    nu = op.space.matrix.base
    rows = []
    entries = []
    prev_N = 0
    for k in k_range:
        found = False
        for n in range(1, n_max + 1):
            lo, hi = int(j0(n)), int(j1(n))
            if hi - lo < n:
                raise ValueError(f"window shorter than its index: j1({n}) - j0({n}) < {n}")
            N = hi - lo
            if N <= prev_N:
                continue
            alpha = float(alphas(n))
            tail_ratio = nu.value_at(hi) / alpha
            if not tail_ratio < 1 / (2 * k):
                continue
            card = _count_at_least(nu, lo, hi - 1, alpha)
            if card * k > (k - 1) * N:
                rows.append({"k": k, "n_k": n, "N_k": N, "witness_index": hi,
                             "large_count": card, "tail_ratio": tail_ratio})
                entries.append((k, N, [(hi, 1.0)]))
                prev_N = N
                found = True
                break
        if not found:
            params = {"n_max": n_max, "levels": list(k_range)}
            return CertificateReport(
                "mop-sufficient", "inconclusive", params, rows,
                notes=[f"window scan exhausted at level k={k}"])
    sched = schedule_dc(1, entries)
    sub = check_dc_condition_B(op, sched, mode=mode)
    by_k = {r["k"]: r for r in sub.rows}
    for r in rows:
        r["count"] = by_k[r["k"]]["count"]
        r["pass"] = by_k[r["k"]]["pass"]
    params = {"n_max": n_max, "levels": list(k_range), "m": 1}
    notes = [f"emitted schedule settled by the counting check: {sub.verdict}"]
    return CertificateReport("mop-sufficient", sub.verdict, params, rows, notes)


def _count_at_least(nu, lo: int, hi: int, alpha: float) -> int:
    """card{j in [lo, hi] : nu(j) >= alpha}, from nu's value counts when it
    keeps them (O(log blocks) on a block layout at any depth)."""
    if hi < lo:
        return 0
    counts = nu.value_counts(lo, hi)
    if counts is not None:
        return sum(count for value, count in counts.items() if value >= alpha)
    if hi - lo + 1 > MAX_DENSE:
        raise ValueError("window too large for valuewise counting")
    vals = nu.values_array(np.arange(lo, hi + 1))
    return int(np.count_nonzero(vals >= alpha))


# ---------------------------------------------------------------------------
# hypercyclicity witness families


def check_hypercyclicity_witness(op: ShiftOperator, n_seq: Sequence[int],
                                 ell_window: tuple[int, int],
                                 decay_tol: float = 1e-6,
                                 k_max: int = 4) -> CertificateReport:
    """Decay of both orbit families along a probe sequence (n_j).

    For every window anchor ell and seminorm index k <= k_max, checks that
    ||P(ell, n_j) e_{ell - n_j}||_k and ||e_{ell + n_j}||_k / |F(ell, n_j)|
    (F the forward product) fall below decay_tol and stay there through the
    last probed j.  The scalar core (both families with the row factor
    stripped) is reported alongside, with its own settle index.

    All 2 |window| T products come from one weights.products call, in the
    order anchor, family, probe.  Every level's row comes from one
    log_row_array read of the distinct row indices, each read once (int64
    indices, or Python ints past 2**63); backward terms whose orbit left the
    domain read no row.  Settle indices are found with numpy.
    """
    n_seq = [int(n) for n in n_seq]
    if not n_seq or any(b <= a for a, b in zip(n_seq, n_seq[1:])) or n_seq[0] < 1:
        raise ValueError("n_seq must be strictly increasing positive integers")
    lo, hi = ell_window
    ells = [l for l in range(lo, hi + 1) if op.space.index_set.contains(l)]
    if not ells:
        raise ValueError("anchor window misses the index set")
    log_tol = math.log(decay_tol)
    T = len(n_seq)
    # anchor-major, then the backward (ell, n) and forward (ell + n, n) family
    signs, logs = products(op.weights, [(ell + s * n, n) for ell in ells
                                        for s in (0, 1) for n in n_seq])
    shape = (len(ells), 2, T)
    logs = np.array(logs).reshape(shape)
    scalar = np.maximum(_settle_indices(logs[:, 0], log_tol),
                        _settle_indices(-logs[:, 1], log_tol))
    semi = np.ones(len(ells), dtype=np.int64)
    ks = range(1, k_max + 1)
    if ks:
        live = np.array(signs).reshape(shape) != 0  # forward terms always are
        cols: dict[int, int] = {}  # row index -> column, in the order met
        where = np.array([cols.setdefault(ell + s * n, len(cols)) if keep else -1
                          for ell, fams in zip(ells, live)
                          for s, keeps in zip((-1, 1), fams)
                          for n, keep in zip(n_seq, keeps)]).reshape(shape)
        rows = op.space.matrix.log_row_array(index_array(list(cols)), ks)
        back = live[:, 0]
        for row in rows:
            vb = np.full(back.shape, NEG_INF)
            vb[back] = row[where[:, 0][back]] + logs[:, 0][back]
            vf = row[where[:, 1]] - logs[:, 1]
            semi = np.maximum(semi, np.maximum(_settle_indices(vb, log_tol),
                                               _settle_indices(vf, log_tol)))
    rows = [{"ell": ell, "scalar_settle": sc, "seminorm_settle": se,
             "settled": se <= T and sc <= T}
            for ell, sc, se in zip(ells, scalar.tolist(), semi.tolist())]
    verdict = ("witnessed" if all(r["settled"] for r in rows)
               else "not-witnessed-at-depth")
    params = {"terms": T, "decay_tol": decay_tol, "k_max": k_max,
              "scalar_settle_index": max(1, *scalar.tolist()),
              "seminorm_settle_index": max(1, *semi.tolist())}
    return CertificateReport("hypercyclicity-witness", verdict, params, rows)


def _settle_indices(vals: np.ndarray, log_tol: float) -> np.ndarray:
    """Per row of vals: the 1-based index from which the row stays strictly
    below the tol; T + 1 when its last value still violates."""
    bad = vals >= log_tol
    T = vals.shape[-1]
    last_bad = np.where(bad.any(axis=-1), T - np.argmax(bad[..., ::-1], axis=-1), 0)
    return last_bad + 1


def refute_hypercyclicity(op: ShiftOperator, horizon: int, k_max: int = 4,
                          floor: float = 1.0) -> CertificateReport:
    """Uniform lower bound on the forward family kills every probe sequence.

    If ||e_{a+n}||_k / |w_a ... w_{a+n-1}| >= floor for all n <= horizon and
    k <= k_max (a the leftmost domain anchor), no sequence can drag the
    forward family to zero within this range.

    The minima of row - cum, with cum = ln |w_a ... w_{a+n-1}| as the dense
    route's cumsum takes it, are read at span ends.  On a span of n where
    the row a(a + n, k) and the weight w_{a+n-1} are constant, cum moves
    one way and rounding is monotone, so row - cum is monotone: its least
    float sits at an end, the first n of a tie bisected for on a falling
    span.  cum is 0.0 exactly where every |w| is 1; otherwise one cumsum of
    the weights' logs supplies it, chunk by chunk, with no row pass.  A
    row without runs (s(J), custom) makes every n a span of its own.
    """
    if horizon < 1:
        raise ValueError("need a positive horizon")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    require_dense(1, horizon)
    anchor = op.space.index_set.first
    ks = range(1, k_max + 1)
    values = op.weights.value_counts(anchor, anchor + horizon - 1)
    flat = values is not None and all(abs(v) == 1.0 for v in values)
    least: dict[int, tuple[float, int]] = {}  # k -> (min, first n at it)
    carry = 0.0  # ln |w_a ... w_{a+n0-2}|
    for n0, n1 in chunk_spans(1, horizon):
        cum, cuts = None, np.zeros(1, np.int64)  # cuts: where a weight span starts
        if not flat:
            try:
                cum = op.weights.dense_logs(anchor + n0 - 1, anchor + n1 - 1)
            except ValueError:  # name the zero nearest the range's end, as one read would
                for a, b in reversed(list(chunk_spans(n1 + 1, horizon))):
                    op.weights.dense_logs(anchor + a - 1, anchor + b - 1)
                raise
            cuts = np.concatenate(([0], np.flatnonzero(np.diff(cum)) + 1))
            cum[0] += carry
            np.cumsum(cum, out=cum)
            carry = cum[-1]
        for k, logs, runs in op.space.matrix.run_log_rows(anchor + n0, anchor + n1, ks):
            if runs is None:  # every n a span of its own
                a, row = np.arange(logs.size), logs
            else:  # span starts, as offsets from n0
                row0 = np.cumsum(runs) - runs
                a = _union(row0, cuts)
                row = logs[np.searchsorted(row0, a, "right") - 1]
            b = np.append(a[1:] - 1, n1 - n0)
            vals, at = row, a
            if cum is not None:
                vals, last = row - cum[a], row - cum[b]
                falls = np.flatnonzero(last < vals)
                vals[falls], at = last[falls], a.copy()
                lo, hi = a[falls], b[falls]  # row - cum[lo] > last >= row - cum[hi]
                while np.any(hi - lo > 1):
                    mid = (lo + hi) // 2
                    tie = row[falls] - cum[mid] == last[falls]
                    lo, hi = np.where(tie, lo, mid), np.where(tie, mid, hi)
                at[falls] = hi
            t = int(np.argmin(vals))
            if k not in least or vals[t] < least[k][0]:
                least[k] = (float(vals[t]), n0 + int(at[t]))
    log_floor = math.log(floor)
    rows = []
    overall = math.inf
    for k in ks:
        mn, at = least[k]
        overall = min(overall, mn)
        rows.append({"seminorm": k, "min_value": LogScalar(1, mn), "min_at_n": at})
    verdict = "refuted-at-horizon" if overall >= log_floor else "inconclusive"
    params = {"horizon": horizon, "floor": floor, "k_max": k_max,
              "anchor": anchor}
    return CertificateReport("hypercyclicity-refutation", verdict, params, rows)


# ---------------------------------------------------------------------------
# witness search


def search_witness_dc(op: ShiftOperator, m: int = 1,
                      k_range: Sequence[int] = (1, 2, 3, 4, 5, 6),
                      anchor_window: tuple[int, int] = (1, 60),
                      N_max: int = 60) -> WitnessScheduleDC | None:
    """Deterministic scan for single-term witnesses.

    For each level k in ascending order, finds the smallest admissible
    horizon N (strictly above the previous level's) and the smallest anchor
    achieving the count bound; absence of a witness is a None, not an error.
    """
    lo, hi = anchor_window
    anchors = [i for i in range(lo, hi + 1) if op.space.index_set.contains(i)]
    if not anchors or N_max < 1:
        raise ValueError("empty anchor window or horizon")
    if len(anchors) * N_max > DENSE_CELL_CAP:
        raise ValueError("search window too large")
    ns = np.arange(1, N_max + 1)
    num: dict[int, np.ndarray] = {}
    for i in anchors:
        num[i] = np.concatenate([vals for *_, vals in basis_orbit_logs(op, i, (m,), 1, N_max)])
    prev_N = 0
    entries: list[tuple[int, int, list[tuple[int, float]]]] = []
    for k in sorted(int(k) for k in k_range):
        pk = m if k <= m else k
        best: tuple[int, int] | None = None
        for i in anchors:
            found = _first_passing_horizon(op, i, num[i], k, pk, prev_N, ns)
            if found is not None and (best is None or found < best[0]):
                best = (found, i)
        if best is None:
            return None
        N, i = best
        entries.append((k, N, [(i, 1.0)]))
        prev_N = N
    return schedule_dc(m, entries)


def check_dc_search(op: ShiftOperator, **search) -> CertificateReport:
    """search_witness_dc as a report; a found schedule is settled by
    check_dc_condition_B."""
    args = inspect.signature(search_witness_dc).bind(op, **search)
    args.apply_defaults()
    a = args.arguments
    params = {"m": a["m"], "anchor_window": list(a["anchor_window"]),
              "N_max": a["N_max"]}
    sched = search_witness_dc(op, **search)
    if sched is None:
        return CertificateReport("dc-witness-search",
                                 "no-witness-found-at-horizon", params)
    rows = [{"k": e.k, "N_k": e.horizon,
             "anchors": ",".join(str(t.index) for t in e.terms)}
            for e in sched.entries]
    verify = check_dc_condition_B(op, sched)
    notes = [f"found schedule settles the counting check: {verify.verdict}"]
    return CertificateReport("dc-witness-search", "witness-found", params,
                             rows, notes)


def _first_passing_horizon(op: ShiftOperator, i: int, lognum: np.ndarray,
                           k: int, pk: int, prev_N: int, ns: np.ndarray) -> int | None:
    """The least N > prev_N at which e_i passes level k, from its orbit
    seminorms lognum[n - 1] = ln ||B^n e_i||_m."""
    den = seminorm(op.space, SparseVector.basis(i), pk)
    if den.sign == 0:
        return None
    counts = np.cumsum(lognum > math.log(k) + den.logmag).astype(np.int64)
    passing = counts * k > (k - 1) * ns
    if prev_N > 0:
        passing[:prev_N] = False
    idx = np.flatnonzero(passing)
    return int(ns[idx[0]]) if idx.size else None
