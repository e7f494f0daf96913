"""Frechet sequence spaces presented by Kothe matrices.

A space is (p, A, J, K_max): exponent p (0 means the sup variant), a matrix
A of nonnegative entries a(j, k) nondecreasing in k, the index set J (naturals
starting at 1, or all integers), and the metric truncation depth.  Seminorms:

    p >= 1:  ||x||_k = (sum_j |a(j,k) x_j|^p)^(1/p)
    p == 0:  ||x||_k = sup_j |a(j,k) x_j|

The translation-invariant metric sums 2^-k * min(1, ||x-y||_k) over k up to
K_max; the discarded tail is at most 2^-K_max, so every metric value reported
here is a lower estimate with that explicit error bound.

Matrices are generator-backed (never materialized); their contract (entries
nonnegative, monotone in k, some positive entry in every row) is enforced by
sampling at construction.

KotheMatrix reads ln a(j, k) through one query per shape, each taking
numpy's log of the base value (times k on power rows), so every reader gets
the same float: log_entry(j, k) at one index, log_row_array(js, ks) over an
index array (every k from one base read), run_log_rows(lo, hi, ks) over a
range, once per base run (|j| + 1 as one float arange per sign side of 0).
SpaceSpec.log_rows repeats run_log_rows over its counts for the dense
checks; log_row_runs is its Run view and log_row_counts its count form (from
the base's value_counts).  Constant rows are one shared read-only array.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .numerics import NEG_INF, LogScalar, SparseVector, logsumexp_p
from .sequences import (ClosedFormSequence, ConstantSequence, Run, SequenceBase,
                        run_arrays, runs_of)

DEFAULT_METRIC_DEPTH = 40
CONDITION_C_SLACK = 1e-12


class IndexSet(enum.Enum):
    N = "N"
    Z = "Z"

    def contains(self, j: int) -> bool:
        return j >= 1 if self is IndexSet.N else True

    @property
    def first(self) -> int:
        """The first index: 1 on N, the origin 0 on Z."""
        return 1 if self is IndexSet.N else 0

    def clip(self, lo: int, hi: int) -> tuple[int, int]:
        """Intersect [lo, hi] with the index set; may come back empty (lo > hi)."""
        if self is IndexSet.N:
            return max(lo, 1), hi
        return lo, hi

    def alive_to(self, i: int, n: int) -> int:
        """The last n' <= n at which the orbit of e_i is still on the index
        set: n on Z, min(n, i - 1) on N (below 1 where it leaves at once)."""
        return min(n, i - 1) if self is IndexSet.N else n


def _log_base(vals: np.ndarray) -> np.ndarray:
    """ln of matrix base values (-inf at zeros); a negative value raises."""
    if (vals < 0).any():
        raise ValueError("matrix base is negative somewhere in the probe range")
    with np.errstate(divide="ignore"):
        return np.log(vals)


class AbsPlusOne(ClosedFormSequence):
    """|j| + 1, the base of s(J): affine in j on each sign side of j = 0."""

    def __init__(self):
        super().__init__(lambda j: abs(j) + 1.0,
                         vectorized=lambda js: np.abs(js.astype(float)) + 1.0)

    def values_range(self, lo: int, hi: int) -> np.ndarray:
        """|j| + 1 for j in [lo, hi]: one float arange per sign side, equal
        bit for bit to values_array(np.arange(lo, hi + 1))."""
        left = np.arange(1.0 - lo, max(-hi, 1), -1.0)  # j in [lo, min(hi, -1)]
        right = np.arange(max(lo, 0) + 1.0, hi + 2.0)  # j in [max(lo, 0), hi]
        if not (left.size and right.size):  # one side: no second buffer to fill
            return left if left.size else right
        return np.concatenate((left, right))


class KotheMatrix:
    """Nonnegative matrix a(j, k) presented by a row rule over a base sequence.

    rule "constant": a(j, k) = base(j) for every k   (Banach-style weights)
    rule "power":    a(j, k) = base(j) ** k          (polynomial-type growth)
    rule "custom":   log a(j, k) comes from an arbitrary callable; no run
                     structure, slow paths only.
    """

    def __init__(self, rule: str, base: SequenceBase | None = None,
                 log_fn: Callable[[int, int], float] | None = None,
                 description: str = ""):
        if rule not in ("constant", "power", "custom"):
            raise ValueError(f"unknown row rule {rule!r}")
        if rule == "custom":
            if log_fn is None:
                raise ValueError("custom rule needs log_fn")
        elif base is None:
            raise ValueError(f"rule {rule!r} needs a base sequence")
        self.rule = rule
        self.base = base
        self.log_fn = log_fn
        self.description = description

    def log_entry(self, j: int, k: int) -> float:
        """ln a(j, k) at one index, the float log_row_array gives there
        (numpy's log of the base value); -inf encodes a zero entry."""
        if k < 1:
            raise ValueError("seminorm indices start at 1")
        if self.rule == "custom":
            return float(self.log_fn(j, k))
        v = self.base.value_at(j)
        if v < 0:
            raise ValueError(f"matrix base is negative at j={j}")
        if v == 0.0:
            return NEG_INF
        lv = float(np.log(v))
        return lv if self.rule == "constant" else k * lv

    def _row(self, k: int, logs: np.ndarray) -> np.ndarray:
        """Row k from ln base(j): shared on constant rows, k * logs on power
        rows (k = 1 returns logs itself; 1 * x == x bit for bit)."""
        return logs if self.rule == "constant" or k == 1 else k * logs

    def log_row_array(self, js: np.ndarray, ks: Iterable[int]) -> np.ndarray:
        """ln a(j, k) over an index array (sparse supports) as one array,
        row t for the t-th k in ks as run_log_rows orders them, from one
        base read; constant rows are one read-only row broadcast over ks."""
        ks = list(ks)
        if self.rule == "custom":
            return np.array([[self.log_fn(int(j), k) for j in js] for k in ks],
                            dtype=float).reshape(len(ks), len(js))
        logs = _log_base(self.base.values_array(np.asarray(js)))
        if self.rule == "constant":
            return np.broadcast_to(logs, (len(ks), logs.size))
        return np.array(ks, dtype=float)[:, None] * logs

    def run_log_rows(self, lo: int, hi: int, ks: Iterable[int]
                     ) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
        """(k, logs, counts) per k in ks: ln a(j, k) over [lo, hi] once per
        base run with the run counts, or once per index (counts None) on a
        closed-form base or a custom rule (log_row_array's rows)."""
        if self.rule == "custom":
            ks = list(ks)
            for k, row in zip(ks, self.log_row_array(range(lo, hi + 1), ks)):
                yield k, row, None
            return
        logs, counts = self._base_logs(lo, hi)
        for k in ks:
            yield k, self._row(k, logs), counts

    @property
    def sign_affine(self) -> bool:
        """Whether the base is |j| + 1 (s(J)): affine in j on each sign side
        of j = 0, so ln a(j, 1) = ln(|j| + 1) is concave there."""
        return isinstance(self.base, AbsPlusOne)

    def _base_logs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """ln base(j) over [lo, hi], read-only, once per run with the run
        counts from one run_arrays, or once per index (counts None) from one
        values_array; |j| + 1 is one float arange per sign side and has no
        value below 1 to check."""
        if self.sign_affine:
            logs, counts = np.log(self.base.values_range(lo, hi)), None
        else:
            vals, counts = run_arrays(self.base, lo, hi)
            logs = _log_base(vals)
        logs.flags.writeable = False
        return logs, counts

    def log_row_runs(self, k: int, lo: int, hi: int) -> list[Run] | None:
        """Row k over [lo, hi] as the Runs of run_log_rows' floats; None for
        a custom rule or a base without runs, which is not read index by
        index."""
        arrays = None if self.rule == "custom" else self.base.run_arrays(lo, hi)
        if arrays is None:
            return None
        values, counts = arrays
        return runs_of(self._row(k, _log_base(values)), counts, lo)

    def log_row_counts(self, k: int, lo: int, hi: int) -> dict[float, int] | None:
        """Row k over [lo, hi] as {ln a(j, k): count}, from the base's
        value_counts (O(log blocks), no run walk) and one log of its
        distinct values, the floats of the other row readers; zero entries
        are left out.  None for a custom rule or a base that keeps no value
        counts."""
        counts = None if self.rule == "custom" else self.base.value_counts(lo, hi)
        if counts is None:
            return None
        logs = self._row(k, _log_base(np.fromiter(counts, float, len(counts))))
        out: dict[float, int] = {}
        for lv, c in zip(logs.tolist(), counts.values()):
            if lv > NEG_INF:
                out[lv] = out.get(lv, 0) + c
        return out


def check_kothe_invariants(matrix: KotheMatrix, js: Iterable[int], k_max: int) -> None:
    """Sampled contract: entries >= 0, nondecreasing in k, row not all zero."""
    for j in js:
        prev = NEG_INF
        seen_positive = False
        for k in range(1, k_max + 1):
            lm = matrix.log_entry(j, k)
            if lm < prev - 1e-12:
                raise ValueError(f"matrix not monotone in k at j={j}, k={k}")
            prev = max(prev, lm)
            seen_positive = seen_positive or lm > NEG_INF
        if not seen_positive:
            raise ValueError(f"matrix row j={j} has no positive entry up to k={k_max}")


@dataclass(frozen=True)
class SpaceSpec:
    """Immutable space description; validates p and samples the matrix contract."""

    p: float
    matrix: KotheMatrix
    index_set: IndexSet
    metric_depth: int = DEFAULT_METRIC_DEPTH

    def __post_init__(self):
        if not (self.p == 0 or self.p >= 1):
            raise ValueError(f"p must be 0 or >= 1, got {self.p}")
        if self.metric_depth < 1:
            raise ValueError("metric_depth must be >= 1")
        probe = [1, 2, 3, 7, 50] if self.index_set is IndexSet.N else [-50, -7, -1, 0, 1, 7, 50]
        check_kothe_invariants(self.matrix, probe, min(self.metric_depth, 8))

    @property
    def metric_tail_bound(self) -> float:
        return 2.0 ** (-self.metric_depth)

    def log_rows(self, lo: int, hi: int,
                 ks: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
        """(k, ln a(j, k) for j in [lo, hi]) per k in ks, read-only:
        run_log_rows' floats repeated over their counts, -inf on off-domain
        indices.  A row shared across ks (constant rule) is built once."""
        a = min(self.index_set.clip(lo, hi)[0], hi + 1)  # first on-domain j
        last = row = None
        for k, logs, counts in self.matrix.run_log_rows(a, hi, ks):
            if logs is not last:
                last, row = logs, logs if counts is None else np.repeat(logs, counts)
                if a > lo:
                    row = np.concatenate((np.full(a - lo, NEG_INF), row))
                row.flags.writeable = False
            yield k, row


def lp_space(p: float, index_set: IndexSet, nu: SequenceBase | None = None,
             metric_depth: int = DEFAULT_METRIC_DEPTH) -> SpaceSpec:
    """lp(nu, J): constant-in-k rows; nu defaults to 1."""
    base = nu if nu is not None else ConstantSequence(1.0)
    return SpaceSpec(p, KotheMatrix("constant", base, description="lp weight rows"),
                     index_set, metric_depth)


def c0_space(index_set: IndexSet, nu: SequenceBase | None = None,
             metric_depth: int = DEFAULT_METRIC_DEPTH) -> SpaceSpec:
    base = nu if nu is not None else ConstantSequence(1.0)
    return SpaceSpec(0, KotheMatrix("constant", base, description="c0 weight rows"),
                     index_set, metric_depth)


def rapidly_decreasing_space(index_set: IndexSet, p: float = 1,
                             metric_depth: int = DEFAULT_METRIC_DEPTH) -> SpaceSpec:
    """s(J): a(j, k) = (|j| + 1)^k."""
    return SpaceSpec(p, KotheMatrix("power", AbsPlusOne(), description="(|j|+1)^k rows"),
                     index_set, metric_depth)


def seminorm(space: SpaceSpec, x: SparseVector, k: int) -> LogScalar:
    """||x||_k over the finite support of x."""
    if k < 1:
        raise ValueError("seminorm indices start at 1")
    terms = []
    for j, v in x.items_sorted():
        if not space.index_set.contains(j):
            raise ValueError(f"vector has support at {j} outside {space.index_set}")
        terms.append(space.matrix.log_entry(j, k) + v.logmag)
    return LogScalar.from_log(logsumexp_p(terms, space.p))


def add_metric_levels(acc: np.ndarray, logs: np.ndarray,
                      rows: Iterator[tuple[int, np.ndarray]], rule: str,
                      depth: int) -> None:
    """acc += 2^-k min(1, e^(logs + row_k reversed)) for k = 1..depth, in
    order, cell by cell; acc must hold zeros on entry and logs is the
    caller's to overwrite.  rows yields the rows (k, row_k) of a matrix of
    this rule over the cells (SpaceSpec.log_rows) lazily from k = 1.

    Per-cell work runs only where a level can still change a term, and every
    cell gets the floats of the plain level loop.  A constant row is one
    clipped array c for every level; a cell with c == 0 adds 0 at every
    level, so only the others are summed.  Power row k is k * row_1
    (KotheMatrix._row), so only row 1 is read from rows.  Where row_1 has
    no finite entry below 0, rounded logs + k * row_1 does not fall as k
    grows (-inf entries stay -inf).  So a cell with logs + row_1 >= 0 reads
    min(1, .) = 1 at every level and its term is the fold 0 + 2^-1 + ... +
    2^-depth.  The level loop runs on the other cells only (NaN and -inf
    ones among them), gathered, with row k built there as k * row_1, and
    stops at the first level where all of them read logs + row_k >= 0.  On
    any other rows it runs on every cell, with every row of rows.
    """
    if rule == "constant":
        _, row = next(rows)
        clipped = np.minimum(np.add(logs, row[::-1], out=logs), 0.0, out=logs)
        np.exp(clipped, out=clipped)  # min(1, ||.||_k)
        live = np.flatnonzero(clipped)
        c, part = clipped[live], acc[live]
        for k in range(1, depth + 1):
            part += math.pow(2.0, -k) * c
        acc[live] = part
        return
    _, row = next(rows)
    row = row[::-1]
    falls = row.min() < 0.0 and ((row < 0.0) & (row > NEG_INF)).any()  # k * row_1 may fall
    if rule != "power" or falls:
        rest = ((k, r[::-1]) for k, r in rows)
        _add_levels(acc, logs, itertools.chain([(1, row)], rest), depth, rising=False)
        return
    vals = np.add(logs, row)
    live = np.flatnonzero(np.minimum(vals, 0.0, out=vals))  # NaN counts as nonzero
    acc[...] = _saturated_term(depth)
    row, part = row[live], np.zeros(live.size)
    _add_levels(part, logs[live], ((k, k * row) for k in range(1, depth + 1)), depth,
                rising=True)
    acc[live] = part


def _add_levels(acc: np.ndarray, logs: np.ndarray,
                rows: Iterable[tuple[int, np.ndarray]], depth: int,
                rising: bool) -> None:
    """The plain level loop: acc += 2^-k min(1, e^(logs + row_k)) per (k,
    row_k) of rows, in order.  With rising, logs + row_k does not fall as k
    grows, so once every cell of a level reads logs + row_k >= 0, each later
    level adds exactly 2^-k and its row is never built."""
    vals = np.empty_like(logs)
    for k, row in rows:
        np.minimum(np.add(logs, row, out=vals), 0.0, out=vals)
        saturated = rising and not vals.any()  # NaN counts as nonzero
        np.exp(vals, out=vals)
        acc += np.multiply(math.pow(2.0, -k), vals, out=vals)
        if saturated:
            for k in range(k + 1, depth + 1):
                acc += math.pow(2.0, -k)
            return


def _saturated_term(depth: int) -> float:
    """0 + 2^-1 + ... + 2^-depth folded in order: the term of a cell that
    reads min(1, .) = 1 at every level."""
    c = 0.0
    for k in range(1, depth + 1):
        c += math.pow(2.0, -k)
    return c


def index_array(js: list[int]) -> np.ndarray:
    """Indices as an int64 array while they fit one, else as Python ints
    (dtype object); np.array would guess uint64 or float64 past int64."""
    fits = not js or (-2**63 <= min(js) and max(js) < 2**63)
    return np.array(js, np.int64 if fits else object)


def metric(space: SpaceSpec, x: SparseVector, y: SparseVector) -> float:
    """Truncated invariant metric d(x, y); underestimates by <= 2^-K_max.

    x - y is one cell of the level loop, its level k ln||x - y||_k taken by
    logsumexp_p over row k of one log_row_array read of its support (the
    floats of log_rows), so a single-point vector's distance to 0 is its
    Cesaro series term bit for bit.  ln||x - y||_k is not k ln||x - y||_1,
    so on power rows every level up to the first saturated one is read
    (||x - y||_k does not fall as k grows: the matrix is nondecreasing in
    k).
    """
    items = (x - y).items_sorted()
    js = index_array([j for j, _ in items])
    vlogs = np.array([v.logmag for _, v in items])
    rule, depth = space.matrix.rule, space.metric_depth
    ks = range(1, depth + 1)
    levels = ((k, np.array([logsumexp_p(row + vlogs, space.p)]))
              for k, row in zip(ks, space.matrix.log_row_array(js, ks)))
    total = np.zeros(1)
    if rule == "constant":
        add_metric_levels(total, np.zeros(1), levels, rule, depth)
    else:
        _add_levels(total, np.zeros(1), levels, depth, rising=rule == "power")
    return float(total[0])


@dataclass(frozen=True)
class ContinuityRow:
    k: int
    witnessed: bool
    m: int | None
    log_sup: float | None


@dataclass(frozen=True)
class ContinuityReport:
    rows: tuple[ContinuityRow, ...]
    window: tuple[int, int]
    cap: float
    all_witnessed: bool


def continuity_check(space: SpaceSpec, weights, window: tuple[int, int],
                     k_max: int = 6, cap: float = 1e12) -> ContinuityReport:
    """Finite-window check of the shift-continuity criterion.

    For each k <= k_max, search m <= k_max with (a) a(j, k) = 0 whenever
    a(j+1, m) = 0 on the window, and (b) sup_j a(j,k)|w_j| / a(j+1,m) below
    `cap`.  Witnessed verdicts name the first such m and the windowed sup;
    anything else is not-witnessed-at-depth, which is a statement about the
    probe, not about the operator.
    """
    lo, hi = space.index_set.clip(window[0], window[1])
    if hi <= lo:
        raise ValueError("empty continuity window")
    logw = weights.dense_logs(lo, hi - 1)
    log_cap = math.log(cap)
    full = dict(space.log_rows(lo, hi, range(1, k_max + 1)))
    rows = []
    for k in range(1, k_max + 1):
        row_k = full[k][:-1]  # a(j, k) for j in [lo, hi - 1]
        hit: ContinuityRow | None = None
        for m in range(1, k_max + 1):
            row_m_next = full[m][1:]  # a(j + 1, m)
            dead = row_m_next == NEG_INF
            if np.any(dead & (row_k > NEG_INF)):
                continue  # support condition fails for this m
            alive = ~dead
            if not np.any(alive):
                hit = ContinuityRow(k, True, m, NEG_INF)
                break
            ratios = row_k[alive] + logw[alive] - row_m_next[alive]
            log_sup = float(ratios.max())
            if log_sup < log_cap:
                hit = ContinuityRow(k, True, m, log_sup)
                break
        rows.append(hit if hit is not None else ContinuityRow(k, False, None, None))
    return ContinuityReport(tuple(rows), (lo, hi), cap, all(r.witnessed for r in rows))


@dataclass(frozen=True)
class ConditionCReport:
    ok: bool
    checked: int
    worst_excess: float  # max over samples of ||x_m e_m||_n / ||x||_n - 1
    k_max: int


def condition_c_check(space: SpaceSpec, samples: Iterable[SparseVector],
                      k_max: int = 6) -> ConditionCReport:
    """|x_m| * ||e_m||_n <= ||x||_n for each coordinate m, up to 1e-12 slack.

    Kothe seminorms satisfy this identically; the check exists to validate a
    space before the mean Li-Yorke machinery (which assumes it) runs.
    """
    worst = -math.inf
    checked = 0
    ok = True
    for x in samples:
        if x.is_zero():
            continue
        checked += 1
        for n in range(1, k_max + 1):
            lx = seminorm(space, x, n)
            for m, v in x.items_sorted():
                le = space.matrix.log_entry(m, n)
                if le == NEG_INF:
                    continue
                lhs = v.logmag + le
                if lx.sign == 0:
                    ok = False
                    worst = math.inf
                    continue
                excess = math.exp(lhs - lx.logmag) - 1.0
                worst = max(worst, excess)
                if excess > CONDITION_C_SLACK:
                    ok = False
    return ConditionCReport(ok, checked, worst, k_max)
