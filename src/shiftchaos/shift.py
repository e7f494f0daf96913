"""The weighted backward shift operator itself.

Bilateral:   (B_w x)_n = w_n x_{n+1} for n in Z.
Unilateral:  B_w (x_1, x_2, ...) = (w_1 x_2, w_2 x_3, ...); anything shifted
             past the left edge is annihilated.

Iterates act on basis vectors as B^n e_i = P(i, n) e_{i-n} with the backward
product P from the weights module, so orbit seminorms of finitely supported
vectors cost O(support) per time step on top of a cumulative product table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NEG_INF, LogScalar, SparseVector, ZERO
from .spaces import SpaceSpec, seminorm
from .weights import WeightSpec, product, product_log_table


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


def iterate_basis(op: ShiftOperator, i: int, n: int) -> SparseVector:
    """B^n e_i = P(i, n) e_{i-n}; exact zero once the orbit leaves the domain."""
    c = product(op.weights, i, n)
    if c.sign == 0:
        return SparseVector.zero()
    return SparseVector.basis(i - n, c)


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
    out = np.full(n_max + 1, NEG_INF)
    if not items:
        return out
    rows = np.empty((len(items), n_max + 1))
    for t, (j, v) in enumerate(items):
        table = product_log_table(op.weights, j, n_max)
        [(_, arow)] = op.space.log_rows(j - n_max, j, (m,))
        vals = v.logmag + table.logs + arow[::-1]  # entry n reads a(j - n, m)
        vals[table.signs == 0] = NEG_INF
        rows[t] = vals
    if op.space.p == 0:
        return rows.max(axis=0)
    from .numerics import logsumexp_p_rows
    return logsumexp_p_rows(rows, op.space.p)
