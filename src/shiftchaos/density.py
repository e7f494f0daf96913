"""Finite-horizon density bookkeeping for subsets of the natural numbers.

Upper and lower densities are limits of prefix ratios card(A cap [1, N]) / N;
at a finite horizon all we can report is the running envelope of those
ratios, so every verdict built on one carries an "at horizon N" qualifier.

This module decides how an index set is walked: as blocks of runs
(run_columns), read off run ends.  A set with membership runs is one block,
in O(runs) at any horizon (on a run card(A cap [1, N]) is linear in N); a
set without runs is one block per chunk, every N a run of its own.  Sorted
intervals (interval_runs) are read the same way, and a block is read at the
ends of sorted intervals (members_in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .numerics import chunk_spans
from .reports import CertificateReport
from .sequences import Run

# The most indices the member test is asked about one by one in one call: a
# set's whole horizon without a vectorized counter, or an exhaustive prefix.
MAX_MEMBER_WALK = 200_000


@dataclass
class IndexPredicate:
    """Membership test plus optional closed-form prefix counter.

    count(N) must equal card(A cap [1, N]).  runs(lo, hi) covers
    [max(lo, 1), hi] with the runs of the indicator of A (value 1.0 on
    members, 0.0 off them), for sets made of few long runs; a set with runs
    is walked by them alone.  count_array is the counter of a set without
    runs: count over an int64 numpy array of horizons, which lets
    run_columns walk it past the member-by-member bound.
    """

    member: Callable[[int], bool]
    count: Callable[[int], int] | None = None
    count_array: Callable[[np.ndarray], np.ndarray] | None = None
    runs: Callable[[int, int], list[Run]] | None = None
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
    def runs(lo: int, hi: int) -> list[Run]:
        lo = max(lo, 1)
        return [Run(lo, hi, 1.0)] if hi >= lo else []

    return IndexPredicate(lambda j: j >= 1, count=lambda n: max(n, 0), runs=runs, name="N")


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


# (a, b, card(A cap [1, a]), member) per run [a, b], as columns; b is a
# itself where every run is one N
RunColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
    """Envelope of prefix ratios for N in [start, horizon], read off the
    blocks of run_columns."""
    if horizon < start or start < 1:
        raise ValueError("need 1 <= start <= horizon")
    return envelope_of_blocks(run_columns(pred, start, horizon))


def run_columns(pred: IndexPredicate, lo: int, hi: int) -> Iterator[RunColumns]:
    """The runs of A over [lo, hi] (1 <= lo <= hi) as consecutive RunColumns
    blocks: one block from the set's runs (counted_runs) where it has them;
    else one per chunk of [lo, hi], every N a run of its own, counted by the
    vectorized counter, or by the member test over [1, hi] at once, so then
    only up to hi = MAX_MEMBER_WALK (checked at the call, before any walk)."""
    if pred.runs is not None:
        return iter([counted_runs(pred, lo, hi)])
    count = pred.count_array
    if count is None:
        if hi > MAX_MEMBER_WALK:
            raise ValueError("set has no vectorized counter for a horizon this large")
        walked = np.cumsum(pred.member_mask(hi), dtype=np.int64)
        count = lambda ns: walked[ns[0] - 1:ns[-1]]

    def cells() -> Iterator[RunColumns]:
        before = int(count(np.array([lo - 1]))[0]) if lo > 1 else 0
        for n0, n1 in chunk_spans(lo, hi):
            ns = np.arange(n0, n1 + 1, dtype=np.int64)
            at = count(ns).astype(np.int64, copy=False)
            yield ns, ns, at, at > np.concatenate(([before], at[:-1]))  # count steps up
            before = at[-1]

    return cells()


def members_in(runs: RunColumns, starts: np.ndarray, ends: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per interval [s, e] inside the span of one block of runs:
    card(A cap [s, e]), card(A cap [1, e]), and the last member of A in
    [s, e] where the first is positive, all read at run ends.

    On a run card(A cap [1, N]) = card(A cap [1, a]) + member * (N - a).
    The last member of A up to e is the least N with card(A cap [1, N]) equal
    to that at e; the run holding it is the first whose end count reaches
    it, a member run where [s, e] holds a member.
    """
    a, b, at_a, member = runs
    ts, te = np.searchsorted(b, starts), np.searchsorted(b, ends)
    upto = at_a[te] + member[te] * (ends - a[te])
    count = upto - (at_a[ts] + member[ts] * (starts - a[ts])) + member[ts]
    t = np.searchsorted(at_a + member * (b - a), upto)
    return count, upto, a[t] + upto - at_a[t]


def counted_runs(pred: IndexPredicate, lo: int, hi: int) -> RunColumns:
    """interval_runs of the member runs of pred.runs over [1, hi], clipped
    to [lo, hi]."""
    members = [r for r in pred.runs(1, hi) if r.value > 0]
    return interval_runs([r.start for r in members], [r.stop for r in members], lo, hi)


def interval_runs(starts, ends, lo: int, hi: int, first: int = 1,
                  before: int = 0) -> RunColumns:
    """Columns (a, b, card(A cap [1, a]), member) of the runs [a, b] of A
    and of the gaps between them, clipped to [lo, hi] (first <= lo <= hi),
    where the sorted disjoint intervals [starts[t], ends[t]] make up
    A cap [first, hi] and card(A cap [1, first - 1]) = before.

    On a run card(A cap [1, N]) is card(A cap [1, a]) + member * (N - a).
    Columns are int64, or Python ints (dtype object) once hi reaches 2**53,
    so every ratio card / N below is a correctly rounded quotient.
    """
    dtype = np.int64 if hi < 2**53 else object
    s, e = np.array(starts, dtype=dtype), np.array(ends, dtype=dtype)
    a = np.concatenate((np.array([first], dtype=dtype), np.stack((s, e + 1), axis=1).ravel()))
    member = np.arange(a.size) % 2 == 1  # a gap at first, then member, gap, ...
    keep = a <= hi
    a, member = a[keep], member[keep]
    b = np.append(a[1:] - 1, hi)
    a, b, member = a[b >= a], b[b >= a], member[b >= a]  # drop empty gaps
    size = np.where(member, b - a + 1, 0)
    before = before + np.cumsum(size) - size
    t = int(np.searchsorted(b, lo))  # the run holding lo
    a, b, member, before = a[t:], b[t:], member[t:], before[t:]
    before[0] += member[0] * (lo - a[0])
    a[0] = lo
    return a, b, before + member, member


def last_ratio_at_most(runs: RunColumns, delta: float) -> int:
    """The last N of the runs with card(A cap [1, N]) / N <= delta, 0 where
    there is none.  The ratio rises on a member run and falls off one, so
    each run holds such N as a prefix or a suffix, read at its ends."""
    a, b, at_a, member = runs
    at_b = at_a + member * (b - a)
    low = np.flatnonzero(np.where(member, at_a / a <= delta, at_b / b <= delta))
    if not low.size:
        return 0
    t = int(low[-1])
    if not member[t] or at_b[t] / b[t] <= delta:
        return int(b[t])
    lo, hi = int(a[t]), int(b[t])  # ratio(lo) <= delta < ratio(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (at_a[t] + mid - a[t]) / mid <= delta:
            lo = mid
        else:
            hi = mid
    return lo


def envelope_of_runs(runs: RunColumns) -> DensityEnvelope:
    """Envelope of the prefix ratios card(A cap [1, N]) / N over one block
    of runs, in O(runs).

    On a run the ratio N -> card/N is monotone, weakly rising on a member
    run and falling off one, so its extremes lie at the run's ends; the
    float ratios are correctly rounded quotients, so they are monotone too.
    Where the extreme is the right end, the first N of the run with that
    float ratio is bisected for, and a later run replaces an extreme only
    when strictly beyond it: the first N of a tie wins, as in one
    argmin/argmax over every N.
    """
    a, b, at_a, member = runs
    first = np.asarray(at_a / a, dtype=float)
    last = first if b is a else np.asarray((at_a + member * (b - a)) / b, dtype=float)
    least, most = ((first, first) if b is a else  # every run one N
                   (np.where(member, first, last), np.where(member, last, first)))
    lo, hi = int(np.argmin(least)), int(np.argmax(most))

    def at(t: int, right_end: bool) -> int:
        if not right_end:
            return int(a[t])
        n0, c0, m = int(a[t]), int(at_a[t]), int(member[t])
        return _first_reaching(lambda n: (c0 + m * (n - n0)) / n, n0, int(b[t]))

    return DensityEnvelope(int(b[-1]), float(last[-1]), float(least[lo]),
                           at(lo, not member[lo]), float(most[hi]), at(hi, bool(member[hi])))


def envelope_of_blocks(blocks: Iterable[RunColumns]) -> DensityEnvelope:
    """envelope_of_runs over consecutive blocks; a later block replaces an
    extreme only when strictly beyond it, so the first N of a tie wins."""
    envs = map(envelope_of_runs, blocks)
    env = next(envs)
    for e in envs:
        lower = (e.lower, e.lower_at) if e.lower < env.lower else (env.lower, env.lower_at)
        upper = (e.upper, e.upper_at) if e.upper > env.upper else (env.upper, env.upper_at)
        env = DensityEnvelope(e.horizon, e.ratio_at_horizon, *lower, *upper)
    return env


def _first_reaching(ratio: Callable[[int], float], a: int, b: int) -> int:
    """The least N in [a, b] with ratio(N) == ratio(b), ratio monotone on
    [a, b]: the N that reach ratio(b) form a suffix of [a, b]."""
    target = ratio(b)
    while a < b:
        mid = (a + b) // 2
        if ratio(mid) == target:
            b = mid
        else:
            a = mid + 1
    return a


def _above(num: int, den: int, cards: np.ndarray, ns: np.ndarray) -> bool:
    """den * card > num * N at every (card, N), exactly: on int64 columns
    while den * N stays below 2**63 (0 <= card <= N, num < den), on Python
    ints past it."""
    if ns.size and den * int(ns[-1]) >= 2**63:
        cards, ns = cards.astype(object), ns.astype(object)
    return bool(np.all(den * cards > num * ns))


def check_density(_op, D: IndexPredicate, horizon: int,
                  threshold: tuple[int, int] = (1, 6),
                  exhaustive_to: int = 50) -> CertificateReport:
    """Does D's prefix ratio stay strictly above threshold up to the horizon?
    The closed-form counter must also agree with the member test, and the
    counts the envelope reads with brute counting on the exhaustive prefix,
    which holds at most MAX_MEMBER_WALK indices.

    Every test reads the run ends of run_columns' blocks, since on a run
    both card and den * card - num * N are linear in N.
    """
    if horizon < 1 or exhaustive_to < 0:
        raise ValueError("need horizon >= 1 and exhaustive_to >= 0")
    if exhaustive_to > MAX_MEMBER_WALK:
        raise ValueError(f"exhaustive_to counts members one by one, so at most "
                         f"{MAX_MEMBER_WALK}; got {exhaustive_to}")
    num, den = threshold
    exhaustive_to = min(exhaustive_to, horizon)
    agree = check_counter_agreement(D, min(10_000, horizon))
    blocks = run_columns(D, 1, horizon)
    brute = np.cumsum(D.member_mask(exhaustive_to)).astype(np.int64)
    exhaustive_ok = strict_ok = True

    def checked():  # the prefix test and the strict bound, block by block
        nonlocal exhaustive_ok, strict_ok
        for runs in blocks:
            a, b, at_a, member = runs
            if a[0] <= exhaustive_to:
                ns = np.arange(a[0], min(b[-1], exhaustive_to) + 1)
                t = np.searchsorted(b, ns)  # the run holding each n
                exhaustive_ok &= bool(np.array_equal(
                    brute[ns - 1], at_a[t] + member[t] * (ns - a[t])))
            strict_ok &= _above(num, den, at_a, a) and (
                b is a or _above(num, den, at_a + member * (b - a), b))
            yield runs

    env = envelope_of_blocks(checked())
    ok = agree and exhaustive_ok and strict_ok
    rows = [{"min_ratio": env.lower, "min_ratio_at": env.lower_at,
             "ratio_at_horizon": env.ratio_at_horizon,
             "strict_above_threshold": strict_ok,
             "counters_agree": agree, "exhaustive_prefix_ok": exhaustive_ok}]
    params = {"set": D.name, "horizon": horizon,
              "threshold": f"{num}/{den}", "exhaustive_to": exhaustive_to}
    verdict = "passes-at-horizon" if ok else "condition-failed"
    return CertificateReport("density", verdict, params, rows)
