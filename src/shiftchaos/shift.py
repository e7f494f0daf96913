"""The weighted backward shift operator itself.

Bilateral:   (B_w x)_n = w_n x_{n+1} for n in Z.
Unilateral:  B_w (x_1, x_2, ...) = (w_1 x_2, w_2 x_3, ...); anything shifted
             past the left edge is annihilated.

Iterates act on basis vectors as B^n e_i = P(i, n) e_{i-n} with the backward
product P from the weights module.  Every dense check reads one quantity off
that: ln |b P(i, n) a(i - n, k)|, served by basis_orbit_logs from one
product table and one row pass.  Orbit seminorms of finitely supported
vectors combine one such array per support point with the lp form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .numerics import NEG_INF, ZERO, LogScalar, SparseVector, logsumexp_p_rows
from .spaces import SpaceSpec
from .weights import WeightSpec, product_log_table


@dataclass(frozen=True)
class ShiftOperator:
    space: SpaceSpec
    weights: WeightSpec

    def __post_init__(self):
        if self.space.index_set is not self.weights.index_set:
            raise ValueError("space and weights disagree about the index set")


def apply(op: ShiftOperator, x: SparseVector) -> SparseVector:
    """One application of B_w."""
    terms = []
    for j, v in x.items_sorted():
        target = j - 1
        if not op.space.index_set.contains(target):
            continue
        w = op.weights.weight_at(target)
        if w.sign != 0:
            terms.append((target, w * v))
    return SparseVector.from_terms(terms)


def orbit_seminorm_series(op: ShiftOperator, x: SparseVector, m: int,
                          n_max: int) -> list[LogScalar]:
    """[ ||B^n x||_m for n = 0..n_max ] off cumulative product tables."""
    items = x.items_sorted()
    if not items:
        return [ZERO] * (n_max + 1)
    logs = orbit_seminorm_log_array(op, x, m, n_max)
    return [ZERO if lm == NEG_INF else LogScalar(1, float(lm)) for lm in logs]


def orbit_seminorm_log_array(op: ShiftOperator, x: SparseVector, m: int,
                             n_max: int) -> np.ndarray:
    """ln ||B^n x||_m for n = 0..n_max as a dense array (numpy hot path)."""
    items = x.items_sorted()
    if not items:
        return np.full(n_max + 1, NEG_INF)
    rows = np.stack([vals for j, v in items
                     for _, vals in basis_orbit_logs(op, j, (m,), 0, n_max, v.logmag)])
    return logsumexp_p_rows(rows, op.space.p)


def basis_orbit_logs(op: ShiftOperator, i: int, ks: Iterable[int], n_lo: int,
                     n_hi: int, coeff: float = 0.0) -> Iterator[tuple[int, np.ndarray]]:
    """(k, vals) per level k in ks, vals[n - n_lo] = ln |b P(i, n) a(i - n, k)|
    for n in [n_lo, n_hi] with ln |b| = coeff, from one product table and
    one row pass.

    Values are (coeff + ln |P|) + ln a, bit for bit.  Where the orbit has
    left the domain both parts are -inf, so those n read -inf.  A constant
    row yields one shared read-only array for every k.  A caller with one
    level unpacks [(_, vals)] = ..., which runs the generator out and frees
    the table before it goes on.
    """
    logs = product_log_table(op.weights, i, n_hi).logs[n_lo:]
    if coeff:
        logs += coeff  # the table is this call's own
    last = vals = None
    for k, row in op.space.log_rows(i - n_hi, i - n_lo, ks):
        if row is not last:
            last, vals = row, logs + row[::-1]  # entry n - n_lo reads a(i - n, k)
            vals.flags.writeable = False
        yield k, vals
