"""The weighted backward shift operator itself.

Bilateral:   (B_w x)_n = w_n x_{n+1} for n in Z.
Unilateral:  B_w (x_1, x_2, ...) = (w_1 x_2, w_2 x_3, ...); anything shifted
             past the left edge is annihilated.

Iterates act on basis vectors as B^n e_i = P(i, n) e_{i-n} with the backward
product P from the weights module.  Every dense check reads one quantity off
that: ln |b P(i, n) a(i - n, k)|, served by basis_orbit_logs in chunks of
numerics.CHUNK cells, each from one product slice (orbit_product_logs) and
one row pass, so a dense sweep holds O(CHUNK) memory at any horizon.  Orbit
seminorms of finitely supported vectors combine one such chunk per support
point with the lp form (orbit_seminorm_log_chunks): each point's chunk is
written into its own row of one buffer, and numerics.logsumexp_p_rows folds
the rows one at a time, with no stacked copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import numerics
from .numerics import NEG_INF, SparseVector, chunk_spans, logsumexp_p_rows
from .spaces import SpaceSpec
from .weights import WeightSpec, check_dense_length, product_log_slice


@dataclass(frozen=True)
class ShiftOperator:
    space: SpaceSpec
    weights: WeightSpec

    def __post_init__(self):
        if self.space.index_set is not self.weights.index_set:
            raise ValueError("space and weights disagree about the index set")


def orbit_seminorm_log_array(op: ShiftOperator, x: SparseVector, m: int,
                             n_max: int) -> np.ndarray:
    """ln ||B^n x||_m for n = 0..n_max as one dense array."""
    if x.is_zero():
        return np.full(n_max + 1, NEG_INF)
    return np.concatenate([vals for _, vals in orbit_seminorm_log_chunks(op, x, m, 0, n_max)])


def orbit_seminorm_log_chunks(op: ShiftOperator, x: SparseVector, m: int, n_lo: int,
                              n_hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """(n0, ln ||B^n x||_m for n in the chunk [n0, n1]) over [n_lo, n_hi]:
    one basis_orbit_logs per support point, run in step.  With r > 1
    points each writes its chunk into its own row of one (r, CHUNK)
    buffer, which logsumexp_p_rows folds row by row with the lp form, so
    no chunk is copied into a stacked array."""
    terms = x.items_sorted()
    if len(terms) == 1:
        (i, v), = terms
        for n0, _, vals in basis_orbit_logs(op, i, (m,), n_lo, n_hi, v.logmag):
            yield n0, vals
        return
    rows = np.empty((len(terms), min(numerics.CHUNK, max(n_hi - n_lo + 1, 0))))
    orbits = [basis_orbit_logs(op, i, (m,), n_lo, n_hi, v.logmag, out=row)
              for (i, v), row in zip(terms, rows)]
    for chunk in _lockstep(orbits):
        n0, _, vals = chunk[0]
        yield n0, logsumexp_p_rows(rows[:, :vals.size], op.space.p)


def _lockstep(gens: list[Iterator]) -> Iterator[list]:
    """One item of every generator per step.  Where one raises, the
    generators before it run out first, so an error surfaces as if each ran
    to the end in turn."""
    while True:
        step = []
        for t, gen in enumerate(gens):
            try:
                step.append(next(gen))
            except StopIteration:
                return
            except Exception:
                for before in gens[:t]:
                    for _ in before:
                        pass
                raise
        yield step


def orbit_product_logs(op: ShiftOperator, i: int, n_lo: int, n_hi: int,
                       coeff: float = 0.0) -> Iterator[tuple[int, int, np.ndarray]]:
    """(n0, n1, logs) per chunk [n0, n1] of [n_lo, n_hi], with
    logs[n - n0] = ln |b P(i, n)| and ln |b| = coeff; -inf where the orbit
    has left the domain.

    Each chunk is one product_log_slice, seeded with the previous chunk's
    last entry, so the values are bit for bit those of one table.  The
    array is the caller's to overwrite.
    """
    check_dense_length(n_hi)
    carry = 0.0  # ln |P(i, n0 - 1)|
    for n0, n1 in chunk_spans(1, n_lo - 1):  # the carry up to n_lo
        carry = product_log_slice(op.weights, i, n0, n1, carry)[-1]
    for n0, n1 in chunk_spans(n_lo, n_hi):
        logs = product_log_slice(op.weights, i, n0, n1, carry)
        carry = logs[-1]
        if coeff:
            logs += coeff
        yield n0, n1, logs


def basis_orbit_logs(op: ShiftOperator, i: int, ks: Iterable[int], n_lo: int,
                     n_hi: int, coeff: float = 0.0, out: np.ndarray | None = None
                     ) -> Iterator[tuple[int, int, np.ndarray]]:
    """(n0, k, vals) per chunk [n0, n1] of [n_lo, n_hi] and level k in ks,
    chunk-major (every level of a chunk before the next chunk), with
    vals[n - n0] = ln |b P(i, n) a(i - n, k)| and ln |b| = coeff.

    Each chunk is one orbit_product_logs chunk and one row pass; values are
    (coeff + ln |P|) + ln a, bit for bit as from one table.  Where the orbit
    has left the domain both parts are -inf, so those n read -inf.  A
    constant row yields one shared read-only array for every k of a chunk.
    One level takes the slice's memory for its values, or out's first
    n1 - n0 + 1 cells when a buffer of at least one chunk is given (each
    chunk overwrites the last).
    """
    ks = tuple(ks)
    own = len(ks) == 1
    for n0, n1, logs in orbit_product_logs(op, i, n_lo, n_hi, coeff):
        dst = (logs if out is None else out[:n1 - n0 + 1]) if own else None
        last = vals = None
        for k, row in op.space.log_rows(i - n1, i - n0, ks):
            if row is not last:  # entry n - n0 reads a(i - n, k)
                last, vals = row, np.add(logs, row[::-1], out=dst)
                vals.flags.writeable = False
            yield n0, k, vals
