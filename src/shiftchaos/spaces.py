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

Dense checks read rows through SpaceSpec.log_rows(lo, hi, ks): one pass over
the base per range (one run_arrays, or one values_array without runs), ln once
per run, every level k served from it.  Constant rows are one shared
read-only array; power rows are k * ln base.  The base of s(J), |j| + 1, is
read as one float arange per sign side of j = 0 and one np.log.
KotheMatrix.run_log_rows serves the same floats once per base run, before
the repeat.  log_row_array serves sparse supports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .numerics import NEG_INF, LogScalar, SparseVector, logsumexp_p
from .sequences import (ClosedFormSequence, ConstantSequence, Run, SequenceBase,
                        run_arrays)

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


def _log_base(vals: np.ndarray) -> np.ndarray:
    """ln of matrix base values (-inf at zeros); a negative value raises."""
    if np.any(vals < 0):
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
        """ln a(j, k); -inf encodes a zero entry."""
        if k < 1:
            raise ValueError("seminorm indices start at 1")
        if self.rule == "custom":
            return float(self.log_fn(j, k))
        v = self.base.value_at(j)
        if v < 0:
            raise ValueError(f"matrix base is negative at j={j}")
        if v == 0.0:
            return NEG_INF
        lv = math.log(v)
        return lv if self.rule == "constant" else k * lv

    def _row(self, k: int, logs: np.ndarray) -> np.ndarray:
        """Row k from ln base(j): shared on constant rows, k * logs on power
        rows (k = 1 returns logs itself; 1 * x == x bit for bit)."""
        return logs if self.rule == "constant" or k == 1 else k * logs

    def log_row_array(self, k: int, js: np.ndarray) -> np.ndarray:
        """ln a(j, k) over an arbitrary index array (sparse supports);
        ranges read through log_rows."""
        if self.rule == "custom":
            return np.array([self.log_entry(int(j), k) for j in js], dtype=float)
        return self._row(k, _log_base(self.base.values_array(np.asarray(js))))

    def run_log_rows(self, lo: int, hi: int, ks: Iterable[int]
                     ) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
        """(k, logs, counts) per k in ks: ln a(j, k) over [lo, hi] once per
        base run with the run counts, or once per index (counts None) on a
        closed-form base or a custom rule: the floats log_rows repeats."""
        if self.rule == "custom":
            for k in ks:
                yield k, self._custom_row(k, lo, hi), None
            return
        logs, counts = self._base_logs(lo, hi)
        for k in ks:
            yield k, self._row(k, logs), counts

    def log_rows(self, lo: int, hi: int,
                 ks: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
        """(k, ln a(j, k) for j in [lo, hi]) per k in ks, from one base pass
        (_base_logs), ln once per run value repeated over its count.
        Constant rows are one shared read-only array for every k; power rows
        are k * logs."""
        if self.rule == "custom":
            for k in ks:
                yield k, self._custom_row(k, lo, hi)
            return
        logs, counts = self._base_logs(lo, hi)
        if counts is not None:
            logs = np.repeat(logs, counts)
            logs.flags.writeable = False
        for k in ks:
            yield k, self._row(k, logs)

    @property
    def sign_affine(self) -> bool:
        """Whether the base is |j| + 1 (s(J)): affine in j on each sign side
        of j = 0, so ln a(j, 1) = ln(|j| + 1) is concave there."""
        return isinstance(self.base, AbsPlusOne)

    def _custom_row(self, k: int, lo: int, hi: int) -> np.ndarray:
        return np.array([self.log_entry(j, k) for j in range(lo, hi + 1)], dtype=float)

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
        """Row k as maximal runs of ln a(j, k); None without run structure."""
        if self.rule == "custom":
            return None
        runs = self.base.runs_over(lo, hi)
        if runs is None:
            return None
        out = []
        for r in runs:
            if r.value < 0:
                raise ValueError("matrix base is negative somewhere in the run range")
            lv = math.log(r.value) if r.value > 0 else NEG_INF
            out.append(Run(r.start, r.stop, lv if self.rule == "constant" else k * lv))
        return out

    def log_row_counts(self, k: int, lo: int, hi: int) -> dict[float, int] | None:
        """Row k over [lo, hi] as {ln a(j, k): count}, from the base's
        value_counts; zero entries are left out.  Keys are the floats
        log_row_runs gives.  None for a custom rule or a base that keeps no
        value counts."""
        if self.rule == "custom":
            return None
        counts = self.base.value_counts(lo, hi)
        if counts is None:
            return None
        out: dict[float, int] = {}
        for v, c in counts.items():
            if v < 0:
                raise ValueError("matrix base is negative somewhere in the run range")
            if v > 0:
                lv = math.log(v) if self.rule == "constant" else k * math.log(v)
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
        """KotheMatrix.log_rows over [lo, hi] with -inf on off-domain indices."""
        a = min(self.index_set.clip(lo, hi)[0], hi + 1)  # first on-domain j
        if a <= lo:
            yield from self.matrix.log_rows(lo, hi, ks)
            return
        last = padded = None
        for k, row in self.matrix.log_rows(a, hi, ks):
            if row is not last:  # a shared constant row is padded once
                last, padded = row, np.concatenate((np.full(a - lo, NEG_INF), row))
                padded.flags.writeable = False
            yield k, padded


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
    return LogScalar.from_log(1, logsumexp_p(terms, space.p))


def add_metric_levels(acc: np.ndarray, logs: np.ndarray,
                      rows: Iterator[tuple[int, np.ndarray]], rule: str,
                      depth: int) -> None:
    """acc += 2^-k min(1, e^(logs + row_k reversed)) for k = 1..depth, in
    order, cell by cell; rows yields (k, row_k) lazily from k = 1: matrix
    rows under the Cesaro series' cells, ln||x - y||_k under metric's one.

    Per-cell work runs only where a level can still change a term, and every
    cell sees the float operations of the plain level loop.  A constant row
    is one clipped array c for every level; a cell with c == 0 adds 0 at
    every level, so only the others are summed.  On a power rule whose
    row_1 has no entry below 0, rounded logs + row_k do not fall as k grows
    (rounded k * ln base does not; nor does ||x - y||_k, the matrix being
    nondecreasing in k), so once every cell of a level reads
    logs + row_k >= 0, every later level reads min(1, .) = 1 exactly and
    adds 2^-k, and its row is never built.
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
    vals = np.empty_like(logs)
    for k, row in rows:
        if k == 1:
            rising = rule == "power" and row.min() >= 0.0
        np.minimum(np.add(logs, row[::-1], out=vals), 0.0, out=vals)
        saturated = rising and not vals.any()  # NaN counts as nonzero
        np.exp(vals, out=vals)
        acc += np.multiply(math.pow(2.0, -k), vals, out=vals)
        if saturated:
            for k in range(k + 1, depth + 1):
                acc += math.pow(2.0, -k)
            return


def metric(space: SpaceSpec, x: SparseVector, y: SparseVector) -> float:
    """Truncated invariant metric d(x, y); underestimates by <= 2^-K_max.

    x - y is one cell of add_metric_levels, its level k ln||x - y||_k taken
    by logsumexp_p over log_row_array's floats (log_rows' floats), so a
    single-point vector's distance to 0 is its Cesaro series term bit for
    bit.  The base is read once per call and each level is KotheMatrix._row
    of its logs; a custom rule reads log_row_array per level.
    """
    items = (x - y).items_sorted()
    js = np.array([j for j, _ in items], dtype=np.int64)
    vlogs = np.array([v.logmag for _, v in items])
    matrix = space.matrix

    def levels() -> Iterator[tuple[int, np.ndarray]]:
        logs = None if matrix.rule == "custom" else _log_base(matrix.base.values_array(js))
        for k in range(1, space.metric_depth + 1):
            row = matrix.log_row_array(k, js) if logs is None else matrix._row(k, logs)
            yield k, np.array([logsumexp_p(row + vlogs, space.p)])

    total = np.zeros(1)
    add_metric_levels(total, np.zeros(1), levels(), matrix.rule, space.metric_depth)
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
