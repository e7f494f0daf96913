"""Overflow-safe scalar arithmetic in the (sign, log-magnitude) domain.

Weight products along an orbit multiply thousands of factors like 2 or 1/2,
so their magnitudes leave IEEE double range almost immediately.  Everything
downstream (seminorms, certificate counts, Cesaro sums) therefore carries a
natural-log magnitude.  The operator side reads magnitudes only (see
weights); a sign survives in SparseVector's arithmetic, whose x - y
spaces.metric takes.  A value is zero exactly when sign == 0 and
logmag == -inf.

Strict threshold comparisons ("ratio > k") happen directly on log magnitudes
with no tolerance slack: a tie in the log domain is a failure of the strict
inequality.

Every lp form (the max for p = 0, the 1/p-rooted p-power sum for p >= 1)
goes through one formula in two shapes: logsumexp_p for a few scalar terms
(one fsum) and logsumexp_p_rows down the columns of an array, folding its
rows one at a time in the order an axis-0 sum adds them.  A long dense
log-sum (logsumexp_blocks) takes its cells in fixed blocks, so its bits do
not depend on how the dense route chunks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

NEG_INF = float("-inf")

LN10 = math.log(10.0)


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as (sign, ln|x|).

    sign is -1, 0 or +1; logmag is -inf exactly when sign is 0.  Instances
    are immutable and hashable; arithmetic returns new instances.
    """

    sign: int
    logmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign!r}")
        if math.isnan(self.logmag):
            raise ValueError("logmag may not be NaN")
        if (self.sign == 0) != (self.logmag == NEG_INF):
            raise ValueError(
                f"zero iff logmag == -inf; got sign={self.sign} logmag={self.logmag}"
            )

    @staticmethod
    def from_real(x: float) -> "LogScalar":
        x = float(x)
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x!r}")
        if x == 0.0:
            return ZERO
        return LogScalar(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(logmag: float) -> "LogScalar":
        """The magnitude e^logmag; zero at -inf."""
        if logmag == NEG_INF:
            return ZERO
        return LogScalar(1, float(logmag))

    def to_real(self) -> float:
        """Back to a plain float; overflows to +-inf rather than raising."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.logmag)
        except OverflowError:
            mag = math.inf
        return mag if self.sign > 0 else -mag

    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0 or other.sign == 0:
            return ZERO
        return LogScalar(self.sign * other.sign, self.logmag + other.logmag)

    def decimal_str(self, digits: int = 12) -> str:
        """Scientific-notation decimal string, exact about the exponent even
        far outside float range."""
        if self.sign == 0:
            return "0"
        l10 = self.logmag / LN10
        exp10 = math.floor(l10)
        mant = 10.0 ** (l10 - exp10)
        body = f"{mant:.{digits - 1}f}"
        if float(body) >= 10.0:  # the mantissa rounded up to 10
            body = f"{mant / 10.0:.{digits - 1}f}"
            exp10 += 1
        s = "-" if self.sign < 0 else ""
        return f"{s}{body}e{exp10:+d}"


ZERO = LogScalar(0, NEG_INF)
ONE = LogScalar(1, 0.0)


def logadd(a: LogScalar, b: LogScalar) -> LogScalar:
    """Signed addition a + b without leaving the log domain.

    With opposite signs, a and b given as rounded logs (from_real), the
    result is within 8 (lam + 1) u (|a| + |b|) of a + b, u = 2^-53 and lam
    the largest |ln| of |a|, |b| and |a| + |b| (test_logadd_matches_sum):
    condition-scaled, so it grows relative to |a + b| under cancellation.
    Only metric's x - y reaches this branch, at indices x and y share.
    """
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.sign == b.sign:
        return LogScalar(a.sign, float(np.logaddexp(a.logmag, b.logmag)))
    if a.logmag == b.logmag:
        return ZERO
    big, small = (a, b) if a.logmag > b.logmag else (b, a)
    # |big| - |small| = e^B * (-expm1(S - B)), with S - B < 0
    mag = big.logmag + math.log(-math.expm1(small.logmag - big.logmag))
    return LogScalar(big.sign, mag)


def _check_p(p: float) -> None:
    if not (p == 0 or p >= 1):
        raise ValueError(f"p must be 0 or >= 1, got {p}")


def logsumexp_p(logs: Iterable[float], p: float) -> float:
    """The lp form of a few terms given by their logs: ln max for p = 0,
    else ln (sum e^(p x))^(1/p).

    -inf terms (zeros) are dropped and no term at all gives -inf.  One
    fsum, shifted by the largest term, so one term comes back as is.
    """
    _check_p(p)
    xs = [x for x in logs if x > NEG_INF]
    if not xs:
        return NEG_INF
    m = max(xs)
    if p == 0:
        return m
    s = math.log(math.fsum(math.exp(p * (x - m)) for x in xs))
    return m + s / p


# ---------------------------------------------------------------------------
# array kernels: hot paths operate on numpy arrays of log magnitudes (-inf
# marks a zero entry) and only wrap results into LogScalar at the boundary.
# The dense route walks its horizon in chunks of CHUNK cells and carries its
# state across them, so it holds O(CHUNK) memory, not O(horizon).

CHUNK = 1 << 18


def chunk_spans(lo: int, hi: int, step: int | None = None) -> Iterator[tuple[int, int]]:
    """[lo, hi] cut into consecutive spans [a, b] of step cells, CHUNK as it
    reads at the call when step is None (the last may be shorter); none
    when hi < lo."""
    step = CHUNK if step is None else step
    for a in range(lo, hi + 1, step):
        yield a, min(a + step - 1, hi)


BLOCK = 1 << 12


def logsumexp_blocks(chunks: Iterable[np.ndarray]) -> float:
    """ln sum e^x over the cells of consecutive chunks of logs; -inf for no
    cell or only -inf cells.

    The cells are cut into blocks of BLOCK cells aligned at the first cell,
    wherever the chunk edges fall: a block that spans chunks is gathered in
    one buffer, whole blocks inside a chunk are read in place.  Each block
    is one max-shifted m + ln sum e^(x - m) (numpy's sum is pairwise), a
    block with no finite cell is skipped, and the block values are folded
    in order with np.logaddexp.  So the bits do not depend on the chunking.

    Error: with u = 2^-53, nb the number of blocks holding a finite cell
    and A the largest |.| of ln sum e^x and of the blocks' exact values, the
    result is within nb (A + 91) u of ln sum e^x.  In a block, the rounded
    shift and exp (within 4 ulps) move the sum by at most (2 ln BLOCK + 8) u
    of itself, since e^d |d| summed over the block's d = x - m <= 0 is at
    most 2 ln BLOCK times its sum e^d >= 1; the pairwise sum (depth <= 32)
    adds 32 u, the log (2 ulps) 4 u ln BLOCK and the shift back u A.  Each
    fold rounds by at most (12 + A) u, and logaddexp weights its operands'
    errors by convex weights, so they add without growing.
    """
    buf = np.empty(BLOCK)
    fill = 0  # cells of the block in buf
    total = NEG_INF
    for x in chunks:
        if fill:
            t = min(BLOCK - fill, x.size)
            buf[fill:fill + t] = x[:t]
            fill += t
            if fill < BLOCK:
                continue
            total = _fold_blocks(total, buf[None])
            x = x[t:]
        whole = x.size - x.size % BLOCK
        if whole:
            total = _fold_blocks(total, x[:whole].reshape(-1, BLOCK))
        fill = x.size - whole
        buf[:fill] = x[whole:]
    if fill:
        total = _fold_blocks(total, buf[None, :fill])
    return float(total)


def _fold_blocks(total: float, blocks: np.ndarray) -> float:
    """total folded in order with each row's max-shifted log-sum; rows with
    no finite cell are left out (-inf - (-inf) would be NaN)."""
    m = blocks.max(axis=1)
    live = m > NEG_INF
    if not live.all():
        blocks, m = blocks[live], m[live]
    t = np.subtract(blocks, m[:, None])
    np.exp(t, out=t)
    s = np.sum(t, axis=1)
    np.log(s, out=s)
    s += m
    return np.logaddexp.reduce(s, initial=total)


def logsumexp_p_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """logsumexp_p down every column of an (r, N) array of logs, in numpy;
    rows is left as it was.

    A single row is returned as is; an all -inf column gives -inf.  The
    rows are folded one at a time into (N,) buffers, with no (r, N)
    temporary: the max by np.maximum, then e^(p (row - m)) added in row
    order, which is how an axis-0 sum adds them, so the bytes are the
    stacked formula's.  With two rows the max row adds e^0 = 1 exactly,
    so the sum is 1 + e^(p (min - m)): one exp pass and two buffers.  At
    p = 1 the identity scalings are skipped.  Where every column has a
    finite max, no column is masked; the bytes are the masked form's
    either way.
    """
    _check_p(p)
    if rows.shape[0] == 1:
        return rows[0]
    m = np.maximum(rows[0], rows[1])
    for row in rows[2:]:
        np.maximum(m, row, out=m)
    if p == 0:
        return m
    if m.min() > NEG_INF:  # m + ln(sum e^(p (rows - m))) / p
        if rows.shape[0] == 2:
            out = np.minimum(rows[0], rows[1])
            out -= m
            if p != 1:
                out *= p
            np.exp(out, out=out)
            out += 1.0
        else:
            out, t = np.empty_like(m), np.empty_like(m)
            for i, row in enumerate(rows):
                e = out if i == 0 else t
                np.subtract(row, m, out=e)
                if p != 1:
                    e *= p
                np.exp(e, out=e)
                if i:
                    out += t
        np.log(out, out=out)
        if p != 1:
            out /= p
        out += m
        return out
    out = np.full(rows.shape[1], NEG_INF)
    finite = m > NEG_INF  # -inf - (-inf) would be NaN
    s = np.log(np.sum(np.exp(p * (rows[:, finite] - m[finite])), axis=0))
    out[finite] = m[finite] + s / p
    return out


class SparseVector:
    """Finitely supported sequence with LogScalar entries, zero-free storage."""

    __slots__ = ("_entries",)

    def __init__(self, entries: dict[int, LogScalar] | None = None):
        clean: dict[int, LogScalar] = {}
        if entries:
            for idx, val in entries.items():
                if not isinstance(val, LogScalar):
                    raise TypeError(f"entry at {idx} is not a LogScalar")
                if val.sign != 0:
                    clean[int(idx)] = val
        self._entries = clean

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, float | LogScalar]]) -> "SparseVector":
        out: dict[int, LogScalar] = {}
        for idx, val in terms:
            v = val if isinstance(val, LogScalar) else LogScalar.from_real(val)
            prev = out.get(int(idx))
            out[int(idx)] = logadd(prev, v) if prev is not None else v
        return SparseVector(out)

    @staticmethod
    def basis(i: int, coeff: float | LogScalar = 1.0) -> "SparseVector":
        v = coeff if isinstance(coeff, LogScalar) else LogScalar.from_real(coeff)
        return SparseVector({i: v} if v.sign != 0 else {})

    @staticmethod
    def zero() -> "SparseVector":
        return SparseVector({})

    def support(self) -> list[int]:
        return sorted(self._entries)

    def items_sorted(self) -> list[tuple[int, LogScalar]]:
        return sorted(self._entries.items())

    def __getitem__(self, i: int) -> LogScalar:
        return self._entries.get(i, ZERO)

    def __len__(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def scale(self, c: float | LogScalar) -> "SparseVector":
        cv = c if isinstance(c, LogScalar) else LogScalar.from_real(c)
        if cv.sign == 0:
            return SparseVector.zero()
        return SparseVector({i: v * cv for i, v in self._entries.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self._entries)
        for i, v in other._entries.items():
            prev = out.get(i)
            s = logadd(prev, v) if prev is not None else v
            if s.sign == 0:
                out.pop(i, None)
            else:
                out[i] = s
        return SparseVector(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(LogScalar(-1, 0.0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v.sign}*e^{v.logmag:.6g}" for i, v in self.items_sorted())
        return f"SparseVector({{{inner}}})"
