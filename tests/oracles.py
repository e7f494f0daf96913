"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the package's log-domain machinery: the
oracles work with plain Python floats / Fractions and only touch the scalar
entry points (``value_at``, ``log_entry``).  Expected values
frozen into the tests were produced by these functions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from shiftchaos.density import DensityEnvelope
from shiftchaos.numerics import ZERO, LogScalar, SparseVector
from shiftchaos.reports import CertificateReport
from shiftchaos.sequences import BlockSideSequence, ConstantSequence, SplitSequence
from shiftchaos.shift import ShiftOperator
from shiftchaos.spaces import IndexSet, SpaceSpec
from shiftchaos.weights import Piece, WeightSpec, product


# ---------------------------------------------------------------------------
# small helpers only the tests use


def logmul(a: LogScalar, b: LogScalar) -> LogScalar:
    return a * b


def shift_indices(v: SparseVector, offset: int) -> SparseVector:
    """v with every index moved by offset."""
    return SparseVector({i + offset: x for i, x in v.items_sorted()})


def weight_at(w: WeightSpec, j: int) -> LogScalar:
    """|w_j| with the library's float, numpy's log of |v|; zero off-domain."""
    if not w.index_set.contains(j):
        return ZERO
    v = w.seq.value_at(j)
    return ZERO if v == 0.0 else LogScalar(1, float(np.log(abs(v))))


def forward_product(w: WeightSpec, i: int, n: int) -> LogScalar:
    """|w_i * w_{i+1} * ... * w_{i+n-1}| (the divisor in hypercyclicity
    checks), as the library's product |P(i + n, n)|."""
    return product(w, i + n, n)


def apply(op: ShiftOperator, x: SparseVector) -> SparseVector:
    """One application of B_|w|, the shift the library's products read."""
    terms = []
    for j, v in x.items_sorted():
        w = weight_at(op.weights, j - 1)
        if w.sign != 0:
            terms.append((j - 1, w * v))
    return SparseVector.from_terms(terms)


def iterate_basis(op: ShiftOperator, i: int, n: int) -> SparseVector:
    """B^n e_i = P(i, n) e_{i-n}; exact zero once the orbit leaves the domain."""
    c = product(op.weights, i, n)
    if c.sign == 0:
        return SparseVector.zero()
    return SparseVector.basis(i - n, c)


def block_index_range(side: BlockSideSequence, n: int,
                      negated: bool = False) -> tuple[int, int]:
    """Inclusive index interval of block n; negated=True returns {-j : j in block}."""
    lo, hi = side.block_range(n)
    if negated:
        return -hi, -lo
    return lo, hi


def total_length(pieces: list[Piece]) -> int:
    return sum(p.count for p in pieces)


@functools.cache
def log_tie() -> float:
    """An integer v <= 2 * 10**5 whose numpy log and math.log differ in the
    last bit (9,170 on one x86-64 build), or 94,869 where none does."""
    vs = np.arange(2.0, 200_001.0)
    differ = np.flatnonzero(np.log(vs) != np.array([math.log(v) for v in vs.tolist()]))
    return float(vs[differ[0]]) if differ.size else 94_869.0


# ---------------------------------------------------------------------------
# reference implementations


def naive_weight_product(w: WeightSpec, i: int, n: int) -> float:
    """|w_{i-n} * ... * w_{i-1}| by direct multiplication; 0 off-domain."""
    if n == 0:
        return 1.0
    if w.index_set is IndexSet.N and i - n < 1:
        return 0.0
    out = 1.0
    for j in range(i - n, i):
        out *= weight_at(w, j).to_real()
    return out


LONG_SPAN = 500  # longer spans are counted block by block


def exact_count_product_log(w: WeightSpec, i: int, n: int) -> float:
    """ln|w_{i-n} * ... * w_{i-1}| from per-value counts.

    Counts each distinct value exactly: index by index through ``value_at``
    on spans of at most LONG_SPAN indices, and by walking the block
    generator's (value, count) runs on longer ones (so a ramp span out to
    ``segment_end(201)`` stays cheap, and neither route reads the cached
    prefix counts behind ``value_counts``).  The log magnitude is
    fsum(c * ln|v|), with ln|v| numpy's log: the library's float input, so
    the comparison stays bitwise.  Off-domain ranges give -inf.
    """
    if n == 0:
        return 0.0
    if w.index_set is IndexSet.N and i - n < 1:
        return -math.inf
    counts: dict[float, int] = {}
    if n <= LONG_SPAN:
        for j in range(i - n, i):
            v = w.seq.value_at(j)
            counts[v] = counts.get(v, 0) + 1
    else:
        _add_counts_by_blocks(w.seq, i - n, i - 1, counts)
    return math.fsum(c * float(np.log(abs(v))) for v, c in counts.items())


def _add_counts_by_blocks(seq, lo: int, hi: int, counts: dict[float, int]) -> None:
    """Add the per-value counts of seq on [lo, hi] (constant, split and
    block sides), walking a block side's generator from its first block."""
    if hi < lo:
        return
    if isinstance(seq, SplitSequence):
        _add_counts_by_blocks(seq.negative, lo, min(hi, seq.split - 1), counts)
        _add_counts_by_blocks(seq.nonnegative, max(lo, seq.split), hi, counts)
    elif isinstance(seq, ConstantSequence):
        counts[seq.value] = counts.get(seq.value, 0) + hi - lo + 1
    else:  # a BlockSideSequence: offsets grow away from the origin
        ends = sorted(((lo - seq.origin) * seq.direction, (hi - seq.origin) * seq.direction))
        cursor, block = 0, 1
        while cursor <= ends[1]:
            for value, count in seq.blocks(block):
                a, z = max(cursor, ends[0]), min(cursor + count - 1, ends[1])
                if a <= z:
                    counts[float(value)] = counts.get(float(value), 0) + z - a + 1
                cursor += count
            block += 1


def hypercyclicity_witness_reference(op: ShiftOperator, n_seq, ell_window,
                                     decay_tol: float = 1e-6,
                                     k_max: int = 4) -> CertificateReport:
    """dc_cert.check_hypercyclicity_witness as a per-probe loop: one
    ``product`` and one ``forward_product`` per anchor and probe, one
    ``log_entry(j, k)`` per term and k, and a scan for each settle index."""
    n_seq = [int(n) for n in n_seq]
    if not n_seq or any(b <= a for a, b in zip(n_seq, n_seq[1:])) or n_seq[0] < 1:
        raise ValueError("n_seq must be strictly increasing positive integers")
    lo, hi = ell_window
    ells = [l for l in range(lo, hi + 1) if op.space.index_set.contains(l)]
    if not ells:
        raise ValueError("anchor window misses the index set")
    log_tol = math.log(decay_tol)

    def settle(vals) -> int:
        last_bad = 0
        for t, v in enumerate(vals):
            if v >= log_tol:
                last_bad = t + 1
        return last_bad + 1

    T = len(n_seq)
    rows = []
    for ell in ells:
        back = [product(op.weights, ell, n) for n in n_seq]
        fwd = [forward_product(op.weights, ell, n) for n in n_seq]
        if any(f.sign == 0 for f in fwd):
            raise ValueError(f"forward product vanishes at anchor {ell}")
        scalar = max(settle([b.logmag for b in back]), settle([-f.logmag for f in fwd]))
        semi = 1
        for k in range(1, k_max + 1):
            vb = [-math.inf if back[t].sign == 0
                  else op.space.matrix.log_entry(ell - n_seq[t], k) + back[t].logmag
                  for t in range(T)]
            vf = [op.space.matrix.log_entry(ell + n_seq[t], k) - fwd[t].logmag
                  for t in range(T)]
            semi = max(semi, settle(vb), settle(vf))
        rows.append({"ell": ell, "scalar_settle": scalar, "seminorm_settle": semi,
                     "settled": semi <= T and scalar <= T})
    verdict = ("witnessed" if all(r["settled"] for r in rows)
               else "not-witnessed-at-depth")
    params = {"terms": T, "decay_tol": decay_tol, "k_max": k_max,
              "scalar_settle_index": max([1] + [r["scalar_settle"] for r in rows]),
              "seminorm_settle_index": max([1] + [r["seminorm_settle"] for r in rows])}
    return CertificateReport("hypercyclicity-witness", verdict, params, rows)


def dense_table_reference(w: WeightSpec, i: int,
                          n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(logs, signs) of P(i, n) for n = 0..n_max, index by index.

    Reads ``value_at`` at i-1, i-2, ... in n order, applies one
    ``np.log(np.abs(...))`` and one ``np.cumsum`` over that array and takes
    the sign from the parity of the negative weights so far.  Entries whose
    range leaves the domain are (-inf, 0).
    """
    live = n_max if w.index_set is IndexSet.Z else max(0, min(n_max, i - 1))
    vals = np.array([w.seq.value_at(i - t) for t in range(1, live + 1)], dtype=float)
    logs = np.full(n_max + 1, -math.inf)
    signs = np.zeros(n_max + 1, dtype=np.int8)
    logs[0], signs[0] = 0.0, 1
    logs[1:live + 1] = np.cumsum(np.log(np.abs(vals)))
    signs[1:live + 1] = np.where(np.cumsum(vals < 0) % 2, -1, 1)
    return logs, signs


def orbit_logs_reference(op: ShiftOperator, i: int, k: int, coeff: float,
                         n_lo: int, n_hi: int) -> np.ndarray:
    """ln |b P(i, n) a(i - n, k)| for n in [n_lo, n_hi], ln |b| = coeff:
    (coeff + the reference table) + the reversed reference row, with every
    n whose product sign is 0 (the orbit has left the domain) masked to
    -inf, the mask shift.basis_orbit_logs does without."""
    logs, signs = dense_table_reference(op.weights, i, n_hi)
    row = dense_row_reference(op.space, k, i - n_hi, i - n_lo)
    vals = coeff + logs[n_lo:] + row[::-1]
    vals[signs[n_lo:] == 0] = -math.inf
    return vals


def cesaro_terms_reference(op: ShiftOperator, anchor: int,
                           N: int) -> tuple[np.ndarray, np.ndarray]:
    """(terms, averages) of mly_cert.cesaro_distance_series by the plain
    level loop over one whole-horizon array: terms += 2^-k min(1, e^vals_k)
    for every k = 1..metric_depth in order, each vals_k read afresh from
    orbit_logs_reference."""
    terms = np.zeros(N)
    for k in range(1, op.space.metric_depth + 1):
        vals = orbit_logs_reference(op, anchor, k, 0.0, 1, N)
        terms += math.pow(2.0, -k) * np.exp(np.minimum(vals, 0.0))
    return terms, np.cumsum(terms) / np.arange(1, N + 1)


def dense_row_reference(space: SpaceSpec, k: int, lo: int, hi: int) -> np.ndarray:
    """ln a(j, k) for j in [lo, hi] through ``KotheMatrix.log_row_array`` on
    the on-domain indices, -inf on the off-domain ones."""
    js = np.arange(lo, hi + 1)
    live = js >= 1 if space.index_set is IndexSet.N else np.ones(js.size, dtype=bool)
    row = np.full(js.size, -math.inf)
    row[live] = space.matrix.log_row_array(js[live], [k])[0]
    return row


def refute_a_rows_reference(op: ShiftOperator, anchors, horizon: int, bound: float,
                            delta: float, settle_by: int) -> list[dict]:
    """dc_cert.refute_dc_condition_A's rows from whole-horizon arrays: the
    bad set's prefix ratios, the last N with ratio <= delta, the least
    ratio past it (first N of a tie)."""
    rows = []
    for i in anchors:
        vals = orbit_logs_reference(op, i, 1, 0.0, 1, horizon)
        counts = np.cumsum(vals >= math.log(bound))
        ratios = counts / np.arange(1, horizon + 1)
        low = np.flatnonzero(ratios <= delta)
        n0 = int(low[-1]) + 2 if low.size else 1
        ok = n0 <= min(settle_by, horizon)
        at = int(np.argmin(ratios[n0 - 1:])) if ok else 0
        rows.append({"anchor": i, "settles_at": n0,
                     "min_ratio": float(ratios[n0 - 1 + at]) if ok else 0.0,
                     "min_ratio_at": n0 + at, "bad_count": int(counts[-1]), "ok": ok})
    return rows


def condition_a_rows_reference(op: ShiftOperator, member, anchors, horizon: int,
                               decay_tol: float, k_max: int,
                               tail_fraction_min: float) -> list[dict]:
    """dc_cert.check_dc_condition_A's rows from whole-horizon arrays: per
    anchor and level, the violating members, the last one and the members
    left after it."""
    mask = np.array([bool(member(n)) for n in range(1, horizon + 1)])
    d_total = int(mask.sum())
    rows = []
    for i in anchors:
        for k in range(1, k_max + 1):
            vals = orbit_logs_reference(op, i, k, 0.0, 1, horizon)
            viol = np.flatnonzero(mask & (vals >= math.log(decay_tol)))
            last = int(viol[-1]) + 1 if viol.size else 0
            tail = int(mask[last:].sum())
            rows.append({"anchor": i, "seminorm": k, "violations": int(viol.size),
                         "last_violation": last, "tail_members": tail,
                         "ok": tail >= tail_fraction_min * d_total})
    return rows


def refute_hc_minima_reference(op: ShiftOperator, horizon: int,
                               k_max: int) -> list[tuple[int, float, int]]:
    """(k, min, first n at it) of ln a(a0 + n, k) - ln |w_a0 ... w_{a0+n-1}|
    over n in [1, horizon], a0 the leftmost domain anchor, from one cumsum
    of the weights' logs (as dc_cert.refute_hypercyclicity reads them)."""
    a0 = 1 if op.space.index_set is IndexSet.N else 0
    w = np.array([op.weights.seq.value_at(j) for j in range(a0, a0 + horizon)])
    cum = np.cumsum(np.log(np.abs(w)))
    out = []
    for k in range(1, k_max + 1):
        vals = dense_row_reference(op.space, k, a0 + 1, a0 + horizon) - cum
        at = int(np.argmin(vals))
        out.append((k, float(vals[at]), at + 1))
    return out


def exact_run_count(op: ShiftOperator, i: int, N: int, k: int, bound) -> int:
    """card {n <= N : (|i - n| + 1)^k |P(i, n)| >= bound}, in Fractions and
    ints, with one pass over the weight runs.

    A weight run, split where j = i - n changes sign, holds
    q(n) = P0 |w|^(n - a) (|i - n| + 1)^k over n in [a, b] (P0 = |P(i, a)|),
    and q(n + 1) / q(n) = |w| (c(n + 1) / c(n))^k with c(n) = |i - n| + 1
    falls as n grows, so q rises to one peak and falls after it.  The peak
    is bisected for on that ratio, then the first and last n at the bound
    on either side of it.  On N the walk stops where the orbit leaves it.
    """
    bound = Fraction(bound)
    lo, hi = op.space.index_set.clip(i - N, i - 1)
    runs = op.weights.runs_over(lo, hi) if hi >= lo else []
    if runs is None:
        raise ValueError("the run-level oracle needs run-structured weights")
    total, before = 0, Fraction(1)  # before: |P(i, n)| just before the run
    for r in reversed(runs):  # ascending n
        w, a_run, b_run = Fraction(abs(r.value)), i - r.stop, i - r.start
        if w == 0:
            raise ValueError(f"weight at {r.stop} is zero")
        for a, b in ((a_run, min(b_run, i)), (max(a_run, i + 1), b_run)):
            if a > b:
                continue
            p0 = before * w ** (a - a_run + 1)

            def q(n: int) -> Fraction:
                return p0 * w ** (n - a) * (abs(i - n) + 1) ** k

            def rises(n: int) -> bool:  # q(n + 1) >= q(n)
                return w * Fraction(abs(i - n - 1) + 1, abs(i - n) + 1) ** k >= 1

            peak = _first(a, b, lambda n: not rises(n)) if a < b else a
            if q(peak) < bound:
                continue
            first = _first(a, peak, lambda n: q(n) >= bound)
            last = _first(peak, b + 1, lambda n: q(n) < bound) - 1
            total += last - first + 1
        before *= w ** (b_run - a_run + 1)
    return total


def _first(lo: int, hi: int, past) -> int:
    """The least n in [lo, hi] with past(n), past monotone false-to-true;
    hi when none before it is."""
    while lo < hi:
        mid = (lo + hi) // 2
        if past(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def naive_forward_product(w: WeightSpec, i: int, n: int) -> float:
    """|w_i * ... * w_{i+n-1}| by direct multiplication."""
    out = 1.0
    for j in range(i, i + n):
        out *= weight_at(w, j).to_real()
    return out


def naive_seminorm(space: SpaceSpec, x: SparseVector, k: int) -> float:
    """k-th seminorm via plain float summation (fsum for the p-power sum)."""
    entries = [abs(v.to_real()) * math.exp(space.matrix.log_entry(j, k))
               for j, v in x.items_sorted()]
    if not entries:
        return 0.0
    if space.p == 0:
        return max(entries)
    return math.fsum(e ** space.p for e in entries) ** (1.0 / space.p)


def naive_metric(space: SpaceSpec, x: SparseVector, y: SparseVector) -> float:
    """Truncated metric sum_{k<=depth} 2^-k min(1, ||x-y||_k), plain floats."""
    diff = x - y
    total = 0.0
    for k in range(1, space.metric_depth + 1):
        total += 2.0 ** (-k) * min(1.0, naive_seminorm(space, diff, k))
    return total


def brute_orbit_norms(op: ShiftOperator, x: SparseVector, n_max: int,
                      k: int) -> list[float]:
    """[||B^n x||_k for n = 1..n_max] via per-step application."""
    out = []
    cur = x
    for _ in range(n_max):
        cur = apply(op, cur)
        out.append(naive_seminorm(op.space, cur, k))
    return out


def brute_cesaro_averages(op: ShiftOperator, anchor: int,
                          n_max: int) -> list[float]:
    """Running averages of d(B^n e_anchor, 0) via per-step application."""
    zero = SparseVector.zero()
    cur = SparseVector.basis(anchor)
    total = 0.0
    out = []
    for n in range(1, n_max + 1):
        cur = apply(op, cur)
        total += naive_metric(op.space, cur, zero)
        out.append(total / n)
    return out


def brute_prefix_counts(member, n_max: int) -> list[int]:
    """[card{j <= n : member(j)} for n = 1..n_max]."""
    out = []
    c = 0
    for n in range(1, n_max + 1):
        c += 1 if member(n) else 0
        out.append(c)
    return out


def brute_envelope(member, horizon: int, start: int = 1) -> DensityEnvelope:
    """The envelope of the prefix ratios card{j <= N : member(j)} / N for N
    in [start, horizon], by brute counting and one argmin and one argmax over
    every N, so the first N of a tie."""
    counts = np.array(brute_prefix_counts(member, horizon), dtype=np.int64)
    ratios = counts[start - 1:] / np.arange(start, horizon + 1, dtype=np.int64)
    lo, hi = int(np.argmin(ratios)), int(np.argmax(ratios))
    return DensityEnvelope(horizon, float(ratios[-1]), float(ratios[lo]), start + lo,
                           float(ratios[hi]), start + hi)


def expanding_blocks_count_array(ns: np.ndarray) -> np.ndarray:
    """card(A cap [1, N]) over an int64 array of N, A the odd blocks
    [t(t-1)+1, t(t+1)] of catalog.expanding_product_blocks, by a float sqrt
    corrected at block boundaries: a vectorized counter for the set's cell
    route (the same set without runs), which the library no longer has."""
    ns = ns.astype(np.int64)
    c = ((np.sqrt(4.0 * ns + 1.0) - 1.0) // 2).astype(np.int64)
    for _ in range(2):  # fix float-sqrt rounding at block boundaries
        c -= (c * (c + 1) > ns).astype(np.int64)
        c += ((c + 1) * (c + 2) <= ns).astype(np.int64)
    m = (c + 1) // 2
    partial = np.where((c + 1) % 2 == 1, ns - c * (c + 1), 0)
    return 2 * m * m + partial


def exact_single_term_average(op: ShiftOperator, index: int,
                              N: int) -> Fraction:
    """(1/N) * sum_{n<=N} ||B^n e_index||_1 as an exact fraction.

    Valid when the weights and the first matrix row take dyadic-rational /
    small-integer values (exact in binary floating point), as all catalog
    constructions do.  Requires a constant-in-k matrix so the row values can
    be read exactly off the base sequence.
    """
    if op.space.matrix.rule != "constant" or op.space.matrix.base is None:
        raise ValueError("exact averages need a constant-rule matrix")
    total = Fraction(0)
    prod = Fraction(1)
    for n in range(1, N + 1):
        j = index - n
        if not op.space.index_set.contains(j):
            break
        prod *= Fraction(weight_at(op.weights, j).to_real())
        total += prod * Fraction(op.space.matrix.base.value_at(j))
    return total / N


MAX_EXACT_RUN = 100_000  # longest stretch of non-unit weight taken as w**L


def exact_run_average(op: ShiftOperator, index: int, N: int) -> Fraction:
    """exact_single_term_average with one step per run instead of per index.

    Walks the intersections of the weight runs and the matrix base runs in
    descending j = index - n.  A stretch of L indices with weight w and row
    value a adds P0 * a * L when |w| = 1, else P0 * a * |w| (|w|^L - 1) /
    (|w| - 1), P0 being the product before the stretch; on the naturals the
    walk stops at j = 1.  A stretch of non-unit weight longer than
    MAX_EXACT_RUN raises ValueError instead of building w**L.
    """
    if op.space.matrix.rule != "constant" or op.space.matrix.base is None:
        raise ValueError("exact averages need a constant-rule matrix")
    lo, hi = op.space.index_set.clip(index - N, index - 1)
    total = Fraction(0)
    if hi >= lo:
        w_runs = op.weights.runs_over(lo, hi)
        a_runs = op.space.matrix.base.runs_over(lo, hi)
        if w_runs is None or a_runs is None:
            raise ValueError("the run-level oracle needs run-structured sequences")
        prod = Fraction(1)
        wi, ai = len(w_runs) - 1, len(a_runs) - 1
        j = hi
        while j >= lo:
            wr, ar = w_runs[wi], a_runs[ai]
            start = max(wr.start, ar.start)
            length = j - start + 1
            w, a = Fraction(abs(wr.value)), Fraction(ar.value)
            if w == 1:
                total += prod * a * length
            else:
                if length > MAX_EXACT_RUN:
                    raise ValueError(f"weight {wr.value} runs {length} indices; "
                                     "too long for an exact power")
                wl = w ** length
                total += prod * a * w * (wl - 1) / (w - 1)
                prod *= wl
            j = start - 1
            if wr.start > j:
                wi -= 1
            if ar.start > j:
                ai -= 1
    return total / N


# ---------------------------------------------------------------------------
# log-sums: an fsum reference and numerics.logsumexp_blocks' stated bound

U = 2.0 ** -53


def _exp_shifted(x: float, m: float) -> float:
    """e^(x - m) to about an ulp: the rounding error r of x - m, recovered
    exactly by TwoSum, is put back as e^(x - m rounded) (1 + r)."""
    d = x - m
    b = d - x
    r = (x - (d - b)) + (-m - b)
    return math.exp(d) * (1.0 + r)


def log_sum_reference(logs) -> float:
    """ln sum e^x over the n finite logs by one fsum shifted by their max,
    to within (|result| + 2 ln n + 5) u; -inf for none."""
    xs = [x for x in np.asarray(logs, dtype=float).tolist() if x > -math.inf]
    if not xs:
        return -math.inf
    m = max(xs)
    return m + math.log(math.fsum(_exp_shifted(x, m) for x in xs))


def log_sum_blocks_bound(logs, block: int) -> float:
    """numerics.logsumexp_blocks' stated bound nb (A + 91) u for these cells
    cut into blocks of `block` (A read off the references)."""
    logs = np.asarray(logs, dtype=float)
    sums = [log_sum_reference(logs[a:a + block]) for a in range(0, logs.size, block)]
    sums = [s for s in sums if s > -math.inf]
    if not sums:
        return 0.0
    A = max(abs(s) for s in sums + [log_sum_reference(logs)])
    return len(sums) * (A + 91) * U
