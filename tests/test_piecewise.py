"""Sloped pieces: counts and sums on layouts whose weight product is not flat.

The count form serves every span where all weights have |w| = 1, so these
layouts are the ones that reach the bisections of count_above and the
geometric closed forms of piece_log_sum.  Counts are compared with the dense
route at thresholds midway between distinct dense values (no ties), sums
with the exact run oracle.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos import catalog
from shiftchaos.dc_cert import WitnessTerm, schedule_dc, single_term_counts, single_term_pieces
from shiftchaos.mly_cert import _average_log
from shiftchaos.piecewise import concave_superlevel, count_above
from shiftchaos.sequences import BlockSideSequence, ConstantSequence, alternating_powers
from shiftchaos.shift import ShiftOperator, basis_orbit_logs
from shiftchaos.spaces import IndexSet, lp_space
from shiftchaos.weights import bilateral_weights

# (name, operator, witness index range): every weight on the orbit has |w| != 1
SLOPED_CASES = [
    ("halfweights", catalog.build_example("halfweights_bilateral"), (-50, 50)),
    ("rolewicz", catalog.build_example("rolewicz_lp_N"), (2, 120_000)),
    ("ex4-left", catalog.build_example("ex4_lp_mly_not_hc"), (-50, 0)),
    ("alternating-powers", ShiftOperator(
        lp_space(2, IndexSet.Z),
        bilateral_weights(BlockSideSequence(alternating_powers(2.0), -1, -1),
                          ConstantSequence(2.0))), (-400, 0)),
]
GAP = 1e-3  # distinct dense values of these layouts lie >= ln 2 apart


def _midpoints(vals: np.ndarray, most: int = 64) -> list[float]:
    """Thresholds midway between consecutive distinct finite values (at
    most `most` of them, evenly spread), one below and one above them all;
    values closer than GAP (one value rounded two ways) count as one."""
    finite = np.unique(vals[vals > -math.inf])
    if finite.size == 0:
        return [0.0]
    keep = np.concatenate(([True], np.diff(finite) > GAP))
    starts = np.flatnonzero(keep)
    lows = finite[np.append(starts[1:] - 1, finite.size - 1)]  # top of each cluster
    highs = finite[starts]  # bottom of each cluster
    mids = (lows[:-1] + highs[1:]) / 2
    if mids.size > most:
        mids = mids[np.linspace(0, mids.size - 1, most).astype(int)]
    return [float(highs[0]) - 1.0, *mids.tolist(), float(lows[-1]) + 1.0]


def _rounded_log(x) -> float:
    """ln x for a positive Fraction to 50 digits, rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(Decimal(x.numerator).ln() - Decimal(x.denominator).ln())


cases = st.sampled_from(SLOPED_CASES)


class TestSlopedPieces:
    @settings(max_examples=120)
    @given(cases, st.data(), st.integers(1, 100_000),
           st.sampled_from([1.0, -1.0, 0.3, -7.5, 1e-6, 2.0 ** 40]))
    def test_count_matches_dense(self, case, data, N, coeff):
        _, op, (lo, hi) = case
        i = data.draw(st.integers(lo, hi), label="index")
        term = WitnessTerm.of(i, coeff)
        assert single_term_counts(op, term, 1, N) is None  # not flat: pieces
        pieces = single_term_pieces(op, term, 1, N)
        dense = np.concatenate([vals for *_, vals in
                                basis_orbit_logs(op, i, (1,), 1, N, term.coeff.logmag)])
        for thr in _midpoints(dense):
            assert count_above(pieces, thr) == int(np.count_nonzero(dense > thr)), thr

    @settings(max_examples=60)
    @given(cases, st.data(), st.integers(1, 100_000))
    def test_average_matches_exact_run_oracle(self, case, data, N):
        _, op, (lo, hi) = case
        i = data.draw(st.integers(lo, hi), label="index")
        entry = schedule_dc(1, [(1, N, [(i, 1.0)])]).entries[0]
        got = _average_log(op, entry, 1, "pieces")
        want = _rounded_log(oracles.exact_run_average(op, i, N))
        # ln(average) = ln(sum) - ln N: a few ulps of the larger part, plus
        # about an ulp per piece, since each piece's log0 is chained from
        # the one before it (two pieces here, but up to ~300 on the
        # alternating powers)
        n_pieces = len(single_term_pieces(op, entry.terms[0], 1, N))
        scale = max(abs(want + math.log(N)), math.log(N), 1.0)
        assert abs(got - want) <= (4 + 2 * n_pieces) * math.ulp(scale), (got, want)


# integer-valued concave pieces: f(n) = -a (n - m)^2 + c, or affine where a = 0
_CONCAVE = st.tuples(st.integers(0, 3), st.integers(-5, 40), st.integers(-30, 30),
                     st.integers(-3, 3), st.integers(0, 12), st.integers(0, 30))


@settings(max_examples=100, deadline=None)
@given(st.lists(_CONCAVE, min_size=1, max_size=6), st.integers(-40, 40),
       st.lists(st.one_of(st.floats(-100, 100), st.just(math.nan), st.just(math.inf),
                          st.just(-math.inf)), min_size=12, max_size=12))
def test_concave_superlevel_ends_do_not_depend_on_the_guess(pieces, level, guesses):
    # any estimate of a crossing, off by a cell, far off, infinite or NaN,
    # gives the ends a plain bisection (and a scan of every cell) gives
    a, m, c, slope, n0, length = (np.array(x) for x in zip(*pieces))
    n1 = n0 + length

    def g(ns, ts):
        return (-a[ts] * (ns - m[ts]) ** 2 + slope[ts] * ns + c[ts]).astype(float)

    cells = [np.arange(lo, hi + 1) for lo, hi in zip(n0, n1)]
    vals = [g(ns, np.full(ns.size, t)) for t, ns in enumerate(cells)]
    peak = np.array([ns[int(np.argmax(v))] for ns, v in zip(cells, vals)])
    levels = np.array([[level] * len(pieces), [level + 3] * len(pieces)], dtype=float)
    want = concave_superlevel(g, n0, n1, peak, levels)
    for l, row in enumerate(levels):
        for t, (ns, v) in enumerate(zip(cells, vals)):
            at = ns[v >= row[t]]
            first, last = (at[0], at[-1]) if at.size else (peak[t] + 1, peak[t])
            assert (want[0][l, t], want[1][l, t]) == (first, last)
    guess = np.array(guesses[:levels.size]).reshape(levels.shape)
    got = concave_superlevel(g, n0, n1, peak, levels, guess)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
