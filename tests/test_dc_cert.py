"""Distributional-chaos certificates: counting checks, witnesses, search."""

from __future__ import annotations

import functools
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos import catalog, dc_cert, orbit, sequences, shift
from shiftchaos.dc_cert import (
    DCWitnessEntry,
    WitnessTerm,
    check_dc_condition_A,
    check_dc_condition_B,
    check_hypercyclicity_witness,
    check_kothe_dc,
    check_lp_c0_dc,
    check_mop_sufficient,
    refute_dc_condition_A,
    refute_hypercyclicity,
    schedule_dc,
    search_witness_dc,
    single_term_counts,
    single_term_pieces,
)
from shiftchaos.density import naturals
from shiftchaos.mly_cert import _average_log
from shiftchaos.numerics import BLOCK, NEG_INF, LogScalar
from shiftchaos.orbit import log_sum_values
from shiftchaos.piecewise import count_above, log_sum
from shiftchaos.sequences import (
    BlockSideSequence,
    ClosedFormSequence,
    ConstantSequence,
    SplitSequence,
    ramp_plateau,
)
from shiftchaos.shift import ShiftOperator, orbit_seminorm_log_array
from shiftchaos.spaces import (IndexSet, KotheMatrix, SpaceSpec, lp_space,
                               rapidly_decreasing_space)
from shiftchaos.weights import Piece, WeightSpec, bilateral_weights, unilateral_weights
from test_piecewise import _rounded_log

N_SEQ_ALT = catalog.N_SEQ_FORMS["alternating-powers-dip"]
N_SEQ_THO = catalog.N_SEQ_FORMS["twos-halves-ones-dip"]


def mop_operator() -> ShiftOperator:
    nu = BlockSideSequence(ramp_plateau(10), 1, 1)
    return ShiftOperator(lp_space(2, IndexSet.N, nu=nu),
                         unilateral_weights(ConstantSequence(1.0)))


class TestScheduleValidation:
    def test_requires_distinct_levels(self):
        with pytest.raises(ValueError):
            schedule_dc(1, [(2, 10, [(5, 1.0)]), (2, 20, [(6, 1.0)])])

    def test_requires_increasing_horizons(self):
        with pytest.raises(ValueError):
            schedule_dc(1, [(2, 20, [(5, 1.0)]), (3, 20, [(6, 1.0)])])

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            DCWitnessEntry(2, 10, (WitnessTerm.of(5, 0.0),))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            DCWitnessEntry(2, 10, (WitnessTerm.of(5, 1.0),
                                   WitnessTerm.of(5, 2.0)))

    def test_p_of(self):
        sched = schedule_dc(3, [(2, 10, [(5, 1.0)]), (4, 20, [(6, 1.0)])])
        assert sched.p_of(2) == 3
        assert sched.p_of(4) == 4


class TestCountingCheck:
    """Frozen example: doubling shift on the one-sided l2 space."""

    def test_single_witness_count(self, rolewicz_op):
        # witness e_110, level k = 4 at N = 100: ratio 2^n > 4 from n = 3 on,
        # so the count is 98 and 98 * 4 > 3 * 100
        sched = schedule_dc(1, [(4, 100, [(110, 1.0)])])
        for mode in ("dense", "pieces"):
            rep = check_dc_condition_B(rolewicz_op, sched, mode=mode)
            assert rep.verdict == "certified-at-horizon"
            assert rep.rows == [{"k": 4, "N_k": 100, "count": 98,
                                 "threshold": 75.0, "pass": True}]

    def test_tie_fails(self, rolewicz_op):
        # at N = 4, k = 2 the witness e_110 gives count 3 (n = 2, 3, 4);
        # 3 * 2 > 1 * 4 passes, but at N = 2 count 1 ties 1 * 2 == 2 and fails
        sched = schedule_dc(1, [(2, 2, [(110, 1.0)])])
        rep = check_dc_condition_B(rolewicz_op, sched)
        assert rep.rows[0]["count"] == 1
        assert rep.rows[0]["pass"] is False
        assert rep.verdict == "condition-failed"

    def test_count_is_strict_exceedance(self, rolewicz_op):
        # 2^n > 2 excludes n = 1 (equality 2 = 2 must not count)
        sched = schedule_dc(1, [(2, 10, [(110, 1.0)])])
        rep = check_dc_condition_B(rolewicz_op, sched)
        assert rep.rows[0]["count"] == 9

    def test_ex2_counts_exact(self, ex2_op):
        seg = catalog.segment_end
        sched = schedule_dc(1, [(k, seg(k), [(seg(k), 1.0)])
                                for k in range(2, 7)])
        rep = check_dc_condition_B(ex2_op, sched, mode="pieces")
        assert [r["count"] for r in rep.rows] == [10 ** k
                                                  for k in range(2, 7)]
        assert all(r["pass"] for r in rep.rows)
        for r in rep.rows:
            assert r["count"] * r["k"] > (r["k"] - 1) * r["N_k"]

    def test_ex2_dense_agrees_with_pieces(self, ex2_op):
        seg = catalog.segment_end
        sched = schedule_dc(1, [(k, seg(k), [(seg(k), 1.0)])
                                for k in range(2, 5)])
        dense = check_dc_condition_B(ex2_op, sched, mode="dense")
        pieces = check_dc_condition_B(ex2_op, sched, mode="pieces")
        assert dense.rows == pieces.rows

    def test_kothe_route_same_counts(self, ex2_op, rolewicz_op):
        seg = catalog.segment_end
        sched = schedule_dc(1, [(k, seg(k), [(seg(k), 1.0)])
                                for k in range(2, 5)])
        a = check_dc_condition_B(ex2_op, sched)
        b = check_kothe_dc(ex2_op, sched)
        assert [r["count"] for r in a.rows] == [r["count"] for r in b.rows]
        sched = schedule_dc(1, [(4, 100, [(110, 1.0)])])
        a = check_dc_condition_B(rolewicz_op, sched)
        b = check_kothe_dc(rolewicz_op, sched)
        assert [r["count"] for r in a.rows] == [r["count"] for r in b.rows]
        assert b.verdict == "certified-at-horizon"

    def test_zero_denominator_fails_cleanly(self, rolewicz_op):
        # c0-style guard: a witness supported where the row vanishes
        nu = ConstantSequence(1.0)
        sched = schedule_dc(1, [(2, 10, [(10, 1.0)])])
        # shrink to an operator whose row vanishes at the witness index
        from shiftchaos.spaces import KotheMatrix, SpaceSpec
        from shiftchaos.sequences import ClosedFormSequence
        base = ClosedFormSequence(lambda j: 0.0 if j == 10 else 1.0)
        sp = SpaceSpec(1, KotheMatrix("constant", base), IndexSet.N)
        op = ShiftOperator(sp, rolewicz_op.weights)
        rep = check_dc_condition_B(op, sched)
        assert rep.verdict == "condition-failed"
        assert any("zero denominator" in n for n in rep.notes)

    @settings(max_examples=200)
    @given(st.floats(min_value=-25, max_value=25).filter(
        lambda e: abs(e) > 1e-3),
        st.integers(80, 140), st.integers(2, 6), st.integers(10, 200))
    def test_scaling_invariance_of_counts(self, log10_c, anchor, k, N):
        # multiplying the witness by any nonzero c leaves every count alone
        op = catalog.build_example("rolewicz_lp_N")
        c = 10.0 ** log10_c
        base = schedule_dc(1, [(k, N, [(anchor, 1.0)])])
        scaled = schedule_dc(1, [(k, N, [(anchor, c)])])
        r0 = check_dc_condition_B(op, base)
        r1 = check_dc_condition_B(op, scaled)
        assert [r["count"] for r in r0.rows] == [r["count"] for r in r1.rows]
        k0 = check_kothe_dc(op, base)
        k1 = check_kothe_dc(op, scaled)
        assert [r["count"] for r in k0.rows] == [r["count"] for r in k1.rows]

    @given(st.integers(2, 6), st.integers(1, 120), st.integers(1, 120))
    def test_count_monotone_in_horizon(self, k, n1, n2):
        op = catalog.build_example("rolewicz_lp_N")
        lo, hi = sorted((n1, n2))
        if lo == hi:
            hi += 1
        r_lo = check_dc_condition_B(op, schedule_dc(1, [(k, lo, [(200, 1.0)])]))
        r_hi = check_dc_condition_B(op, schedule_dc(1, [(k, hi, [(200, 1.0)])]))
        assert r_lo.rows[0]["count"] <= r_hi.rows[0]["count"]

    def test_huge_horizons_stay_exact(self, rolewicz_op):
        # integer counting survives horizons far beyond float range; the
        # float threshold column saturates to inf without touching the verdict
        for N, want_thr in ((10 ** 201, 5e200), (10 ** 400, math.inf)):
            sched = schedule_dc(1, [(2, N, [(N + 5, 1.0)])])
            rep = check_dc_condition_B(rolewicz_op, sched, mode="pieces")
            row = rep.rows[0]
            assert row["count"] == N - 1  # every n >= 2 exceeds the ratio 2
            assert row["threshold"] == want_thr
            assert row["pass"]


class TestSingleTermPieces:
    def test_matches_dense_counting(self, ex2_op):
        term = WitnessTerm.of(116, 1.0)
        pieces = single_term_pieces(ex2_op, term, 1, 116)
        from shiftchaos.shift import orbit_seminorm_log_array
        from shiftchaos.numerics import SparseVector
        dense = orbit_seminorm_log_array(ex2_op, SparseVector.basis(116), 1, 116)
        for thr_exp in (-3.0, 0.0, 1.0, 4.0):
            want = int((dense[1:] > thr_exp).sum())
            assert count_above(pieces, thr_exp) == want


def _ramp_base() -> SplitSequence:
    return SplitSequence(ConstantSequence(1.0),
                         BlockSideSequence(ramp_plateau(10), 1, 1), split=1)


def _sign_weights():
    # every weight is +1 or -1: the product is flat but changes sign
    return bilateral_weights(
        BlockSideSequence(lambda n: [(1.0, n), (-1.0, 1)], -1, -1),
        BlockSideSequence(lambda n: [(-1.0, n), (1.0, n)], 0, 1))


def _zeros_base() -> SplitSequence:
    # block n: n copies of n + 1, then one zero (at 2, 5, 9, 14, ...), away
    # from every index SpaceSpec samples
    return SplitSequence(ConstantSequence(1.0),
                         BlockSideSequence(lambda n: [(n + 1.0, n), (0.0, 1)], 1, 1),
                         split=1)


# operators whose weights have |w| = 1 on at least part of the line
FLAT_CASES = [
    ("ex2", catalog.build_example("ex2_kothe_dc_not_hc")),
    ("ex4", catalog.build_example("ex4_lp_mly_not_hc")),
    ("unweighted-N", catalog.build_example("unweighted_lp_N")),
    ("signs-power-Z", ShiftOperator(
        SpaceSpec(1, KotheMatrix("power", _ramp_base()), IndexSet.Z), _sign_weights())),
    ("zeros-power-Z", ShiftOperator(
        SpaceSpec(1, KotheMatrix("power", _zeros_base()), IndexSet.Z),
        bilateral_weights(ConstantSequence(0.5), ConstantSequence(1.0)))),
]


class TestSingleTermCounts:
    """The count form answers flat spans exactly as the piece route does."""

    @staticmethod
    def assert_matches_pieces(counts, pieces, p):
        scaled = [pc if pc.log0 == NEG_INF
                  else Piece(pc.n0, pc.n1, p * pc.log0, p * pc.slope)
                  for pc in pieces]
        keys = sorted({p * lv for lv in counts})
        # ties at every value the count form holds, and just off them
        thresholds = [-math.inf, 0.0] + keys + [math.nextafter(x, math.inf) for x in keys] \
            + [math.nextafter(x, -math.inf) for x in keys]
        for thr in thresholds:
            got = sum(c for lv, c in counts.items() if p * lv > thr)
            assert got == count_above(scaled, thr), thr
        assert math.isclose(log_sum_values(counts), log_sum(pieces), rel_tol=1e-14)

    @settings(max_examples=300)
    @given(st.sampled_from(FLAT_CASES), st.integers(-60, 2500), st.integers(1, 3000),
           st.integers(1, 4), st.sampled_from([1, 2, 3]),
           st.sampled_from([1.0, -1.0, 0.3, -7.5, 1e-6, 2.0 ** 40]))
    def test_matches_pieces(self, case, index, N, m, p, coeff):
        _, op = case
        if op.space.index_set is IndexSet.N:
            index = abs(index) + 1  # N >= index annihilates the orbit
        term = WitnessTerm.of(index, coeff)
        counts = single_term_counts(op, term, m, N)
        lo, hi = op.space.index_set.clip(index - N, index - 1)
        flat = all(abs(op.weights.seq.value_at(j)) == 1.0 for j in range(lo, hi + 1))
        assert (counts is not None) == flat
        if counts is not None:
            self.assert_matches_pieces(counts, single_term_pieces(op, term, m, N), p)

    @settings(max_examples=150)
    @given(st.sampled_from(FLAT_CASES), st.integers(-60, 2500), st.integers(1, 3000),
           st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([1.0, -1.0, 0.3, -7.5, 1e-6, 2.0 ** 40]))
    @example(FLAT_CASES[2], 40, 100, 1, 2, 1.0)  # e_40 on N, annihilated at n = 40
    @example(FLAT_CASES[2], 40, 100, 2, 1, -7.5)
    @example(FLAT_CASES[1], 2000, 1999, 1, 3, 0.3)  # ex4 right of the origin
    def test_auto_reads_counts_as_dense_does(self, case, index, N, m, k, coeff):
        # mode "auto" reads the count form first, also within the dense cap:
        # the counts equal the dense route's, and the averages agree within
        # the dense block sum's stated bound, which does not grow with N
        # below BLOCK cells, plus a few ulps (the count form's distance from
        # the exact average, the cells' own rounding and the shift by ln N)
        _, op = case
        if op.space.index_set is IndexSet.N:
            index = abs(index) + 1
        sched = schedule_dc(m, [(k, N, [(index, coeff)])])
        entry = sched.entries[0]
        assume(single_term_counts(op, entry.terms[0], m, N) is not None)
        assert (check_dc_condition_B(op, sched, mode="auto").rows
                == check_dc_condition_B(op, sched, mode="dense").rows)
        auto, dense = (_average_log(op, entry, m, mode) for mode in ("auto", "dense"))
        if dense == NEG_INF:
            assert auto == NEG_INF
            return
        scale = max(abs(dense + math.log(N)), math.log(N), 1.0)
        cells = orbit_seminorm_log_array(op, entry.vector(), m, N)[1:]
        assert abs(auto - dense) <= (8 * math.ulp(scale)
                                     + oracles.log_sum_blocks_bound(cells, BLOCK))
        if op.space.matrix.rule == "constant":
            exact = Fraction(abs(coeff)) * oracles.exact_run_average(op, index, N)
            assert abs(auto - _rounded_log(exact)) <= 4 * math.ulp(scale)

    @pytest.mark.parametrize("name", ["ex2", "ex4"])
    @pytest.mark.parametrize("t", [21, 60])
    def test_matches_pieces_deep(self, name, t):
        op = dict(FLAT_CASES)[name]
        i = catalog.segment_end(t)
        for N in (i, i // 3):
            term = WitnessTerm.of(i, 1.0)
            counts = single_term_counts(op, term, 1, N)
            assert counts is not None and sum(counts.values()) == N
            self.assert_matches_pieces(counts, single_term_pieces(op, term, 1, N), 1)

    @pytest.mark.parametrize("name,p", [("ex4_lp_mly_not_hc", 2), ("ex4_lp_mly_not_hc", 0),
                                        ("ex2_kothe_dc_not_hc", 3)])
    def test_kothe_dc_count_form_matches_dense(self, name, p):
        # the p-power form compares p * ln|term| with p ln k + ln den
        op = catalog.build_example(name, p=p)
        seg = catalog.segment_end
        sched = schedule_dc(1, [(k, seg(k), [(seg(k), 0.7)]) for k in range(2, 5)])
        pieces = check_kothe_dc(op, sched, mode="pieces")
        assert pieces.rows == check_kothe_dc(op, sched, mode="dense").rows
        assert all(0 < r["count"] < r["N_k"] for r in pieces.rows)

    def test_fallbacks_take_the_piece_route(self, monkeypatch, rolewicz_op, ex4_op):
        custom = ShiftOperator(
            SpaceSpec(1, KotheMatrix("custom", log_fn=lambda j, k: k * math.log1p(abs(j))),
                      IndexSet.Z),
            bilateral_weights(ConstantSequence(1.0), ConstantSequence(1.0)))
        real = orbit.single_term_pieces
        calls = []

        def spy(op, *args):
            calls.append(op)
            return real(op, *args)

        monkeypatch.setattr(orbit, "single_term_pieces", spy)
        sched = schedule_dc(1, [(2, 50, [(60, 1.0)])])
        assert single_term_counts(custom, WitnessTerm.of(60, 1.0), 1, 50) is None
        with pytest.raises(ValueError, match="run-structured matrix rows"):
            check_dc_condition_B(custom, sched, mode="pieces")
        assert calls == [custom]
        # weights 2; ex4 reaching the halving weights left of 0
        for op, i, N in ((rolewicz_op, 60, 50), (ex4_op, 30, 50)):
            assert single_term_counts(op, WitnessTerm.of(i, 1.0), 1, N) is None
            sched = schedule_dc(1, [(2, N, [(i, 1.0)])])
            pieces = check_dc_condition_B(op, sched, mode="pieces")
            assert calls[-1] is op
            dense = check_dc_condition_B(op, sched, mode="dense")
            assert pieces.rows == dense.rows

    def test_negative_base_raises_like_pieces(self):
        # block n: n copies of n, then one -1.0 (at 2, 5, 9, ...)
        base = SplitSequence(ConstantSequence(1.0),
                             BlockSideSequence(lambda n: [(float(n), n), (-1.0, 1)], 1, 1),
                             split=1)
        ones = bilateral_weights(ConstantSequence(1.0), ConstantSequence(1.0))
        for rule in ("constant", "power"):
            op = ShiftOperator(SpaceSpec(1, KotheMatrix(rule, base), IndexSet.Z), ones)
            term = WitnessTerm.of(30, 1.0)
            with pytest.raises(ValueError) as want:
                single_term_pieces(op, term, 2, 40)
            with pytest.raises(ValueError) as got:
                single_term_counts(op, term, 2, 40)
            assert str(got.value) == str(want.value)

    def test_counts_past_float_range(self):
        # 10**400 indices of one value: counts stay ints, logs come from ints
        op = ShiftOperator(lp_space(2, IndexSet.Z),
                           bilateral_weights(ConstantSequence(1.0), ConstantSequence(1.0)))
        N = 10 ** 400
        counts = single_term_counts(op, WitnessTerm.of(0, 1.0), 1, N)
        assert counts == {0.0: N}
        assert math.isclose(log_sum_values(counts), 400 * math.log(10), rel_tol=1e-15)
        rep = check_dc_condition_B(op, schedule_dc(1, [(2, N, [(0, 1.0)])]), mode="pieces")
        assert rep.rows[0]["count"] == 0  # ratio 1 never exceeds 2
        rep = check_kothe_dc(op, schedule_dc(1, [(1, N, [(0, 3.0)])]), mode="pieces")
        assert rep.rows[0]["count"] == 0  # ratio 1 never exceeds 1 strictly

    def test_flat_spans_walk_no_runs(self, monkeypatch):
        # the ex4 ACB probe at segment_end(201) and an ex2 pieces level at
        # segment_end(120) read value counts only: no run walk, no pieces
        from shiftchaos import weights
        from shiftchaos.mly_cert import basis_probes, check_acb

        def walked(*args, **kwargs):
            raise AssertionError("a flat span walked runs or built pieces")

        monkeypatch.setattr(weights, "overlay_row_runs", walked)
        monkeypatch.setattr(orbit, "overlay_row_runs", walked)
        monkeypatch.setattr(KotheMatrix, "log_row_runs", walked)
        monkeypatch.setattr(BlockSideSequence, "run_arrays", walked)  # runs_over reads it too
        seg = catalog.segment_end
        ex2, ex4 = (catalog.build_example(name)
                    for name in ("ex2_kothe_dc_not_hc", "ex4_lp_mly_not_hc"))
        rep = check_acb(ex4, basis_probes([seg(201)], [seg(201)]), C_grid=(100.0,))
        assert rep.verdict == "falsified-at-horizon"
        N = seg(120)
        rep = check_dc_condition_B(ex2, schedule_dc(1, [(6, N, [(N, 1.0)])]),
                                   mode="pieces")
        assert rep.rows[0]["count"] == N - 112_520  # frozen from the piece route
        assert rep.verdict == "condition-B-holds-at-horizon"


class TestConditionA:
    def test_holds_on_ex2(self, ex2_op):
        rep = check_dc_condition_A(ex2_op, naturals(), [1, 2, 3], 10_000)
        assert rep.verdict == "condition-A-holds-at-horizon"
        assert all(r["ok"] for r in rep.rows)

    def test_empty_set_inconclusive(self, ex2_op):
        from shiftchaos.density import IndexPredicate
        empty = IndexPredicate(lambda j: False, name="empty")
        rep = check_dc_condition_A(ex2_op, empty, [1], 100)
        assert rep.verdict == "inconclusive"

    @pytest.mark.parametrize("anchor", [0, -5])
    def test_anchor_off_the_domain_is_rejected(self, rolewicz_op, anchor):
        # e_0 is no basis vector of l2(N): it read condition-A-holds with no
        # violation, and the refutation inconclusive
        with pytest.raises(ValueError, match=f"anchor {anchor} is outside the domain N"):
            check_dc_condition_A(rolewicz_op, naturals(), [1, anchor], 100)

    @pytest.mark.parametrize("anchor", [0, -5])
    def test_refutation_anchor_off_the_domain_is_rejected(self, rolewicz_op, anchor):
        with pytest.raises(ValueError, match=f"anchor {anchor} is outside the domain N"):
            refute_dc_condition_A(rolewicz_op, [anchor], 100)

    def test_fails_on_rolewicz_products(self, rolewicz_op):
        # doubling weights: backward products grow, no decay along N
        rep = check_dc_condition_A(rolewicz_op, naturals(), [10 ** 6], 1000)
        assert rep.verdict == "condition-failed"

    def test_dense_rows_read_the_base_once_per_anchor(self, monkeypatch):
        # every level k of a dense range is scaled from one base pass; a
        # return to per-level row reads fails here without any timing
        from shiftchaos.mly_cert import cesaro_distance_series
        from shiftchaos.spaces import KotheMatrix

        def per_index(self, k, js):
            raise AssertionError("a dense range read its row index by index")

        monkeypatch.setattr(KotheMatrix, "log_row_array", per_index)
        ex2, ex4 = (catalog.build_example(name)
                    for name in ("ex2_kothe_dc_not_hc", "ex4_lp_mly_not_hc"))
        scanned = []

        def count_reads(base):  # a base pass is one run_arrays
            read = base.run_arrays

            def counted(lo, hi):
                scanned.append(base)
                return read(lo, hi)

            monkeypatch.setattr(base, "run_arrays", counted)

        count_reads(ex2.space.matrix.base)
        count_reads(ex4.space.matrix.base)
        rep = check_dc_condition_A(ex2, naturals(), [-4, -2, 0, 1, 3], 2000, k_max=4)
        assert rep.verdict == "condition-A-holds-at-horizon"
        assert len(rep.rows) == 5 * 4
        assert scanned == [ex2.space.matrix.base] * 5
        scanned.clear()
        series = cesaro_distance_series(ex4, 0, 2000)
        assert ex4.space.metric_depth == 40
        assert series.averages[-1] < 1e-3
        assert scanned == [ex4.space.matrix.base]

    def test_refutation_on_ex1(self, ex1_op):
        rep = refute_dc_condition_A(ex1_op, [0], 10 ** 6, bound=0.5,
                                    delta=1 / 6, settle_by=50)
        assert rep.verdict == "condition-A-refuted-at-horizon"
        row = rep.rows[0]
        assert row["settles_at"] <= 50
        assert row["min_ratio"] > 1 / 6

    def test_refutation_inconclusive_on_halfweights(self, halfweights_op):
        # products 2^-n: the bad set has vanishing density, nothing to refute
        rep = refute_dc_condition_A(halfweights_op, [0], 1000)
        assert rep.verdict == "inconclusive"


def _exact_cell_count(op: ShiftOperator, i: int, N: int, k: int, bound) -> int:
    """card {n <= N : (|i - n| + 1)^k |P(i, n)| >= bound}, one Fraction
    product per index."""
    bound, prod, count = Fraction(bound), Fraction(1), 0
    for n in range(1, N + 1):
        if not op.space.index_set.contains(i - n):
            break
        prod *= Fraction(abs(op.weights.seq.value_at(i - n)))
        count += prod * (abs(i - n) + 1) ** k >= bound
    return count


def _block_layout(left: list, right: list, rows: str) -> ShiftOperator:
    """Each side one block of (value, count) runs repeated; rows of s(Z), or
    power rows over a ramp base, whose runs cut the pieces too."""
    weights = bilateral_weights(BlockSideSequence(lambda n: left, -1, -1),
                                BlockSideSequence(lambda n: right, 0, 1))
    if rows == "s":
        return ShiftOperator(rapidly_decreasing_space(IndexSet.Z), weights)
    return ShiftOperator(SpaceSpec(1, KotheMatrix("power", _ramp_base()), IndexSet.Z), weights)


# dyadic values and integer rows meet bounds 1/2, 1, 3 exactly: ties abound
_RUNS = st.lists(st.tuples(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]), st.integers(1, 6)),
                 min_size=1, max_size=4)


class TestRunRoute:
    """Both refutations read run ends; a cell gets the dense route's
    arithmetic only where rounding could decide its comparison."""

    @settings(max_examples=60, deadline=None)
    @given(_RUNS, _RUNS, st.integers(-10, 40), st.integers(1, 120), st.integers(1, 3),
           st.sampled_from([0.5, 1.0, 3.0, 10.0]))
    def test_exact_run_count_matches_the_cell_count(self, left, right, i, N, k, bound):
        op = _block_layout(left, right, "s")
        assert oracles.exact_run_count(op, i, N, k, bound) == _exact_cell_count(op, i, N, k, bound)

    @pytest.mark.parametrize("name", ["ex1_s_Z_hc_not_dc", "ex3_s_Z_hc_not_mly"])
    def test_exact_run_count_on_segment_horizons(self, name):
        op = catalog.build_example(name)
        for N in (catalog.segment_end(t) for t in (1, 2, 3)):
            for i in (-3, 0, 5, 60):
                for k, bound in ((1, 0.5), (2, 3.0), (3, 1.0)):
                    assert (oracles.exact_run_count(op, i, N, k, bound)
                            == _exact_cell_count(op, i, N, k, bound)), (N, i, k, bound)

    @settings(max_examples=60, deadline=None)
    @given(_RUNS, _RUNS, st.sampled_from(["s", "ramp"]), st.integers(-10, 40),
           st.integers(1, 150), st.sampled_from([0.5, 1.0, 3.0]),
           st.sampled_from([1 / 6, 0.25, 0.5]))
    # |w| = 1.96 from i = 5: f(n) = n ln 1.96 + ln(6 - n) peaks in x at
    # 4.51, yet f(4) > f(5), and e^3.375 lies between them
    @example([(1.0, 1)], [(1.96, 5)], "s", 5, 8, math.exp(3.375), 0.25)
    @example([(1.0, 1)], [(1.495, 5)], "s", 5, 8, 10.0, 0.25)
    def test_refutations_match_the_dense_references(self, left, right, rows, i, N, bound,
                                                    delta):
        op = _block_layout(left, right, rows)
        rep = refute_dc_condition_A(op, [i], N, bound, delta, N)
        assert rep.rows == oracles.refute_a_rows_reference(op, [i], N, bound, delta, N)
        rep = refute_hypercyclicity(op, N, k_max=3)
        assert ([(r["seminorm"], r["min_value"].logmag, r["min_at_n"]) for r in rep.rows]
                == oracles.refute_hc_minima_reference(op, N, 3))

    def test_ex1_bad_counts_are_the_exact_counts_but_the_ties(self, ex1_op):
        # n = 61 from -2 and n = 63 from 0 reach |j| + 1 = 64 with
        # |P| = 2^-7: an exact tie at the bound, which the dense cumsum's
        # rounding leaves below it
        N, ties = 10**5, {-2: 61, 0: 63}
        rep = refute_dc_condition_A(ex1_op, range(-3, 4), N)
        for row in rep.rows:
            i = row["anchor"]
            exact = oracles.exact_run_count(ex1_op, i, N, 1, 0.5)
            assert row["bad_count"] == exact - (i in ties), i
            if i in ties:
                n = ties[i]
                assert _exact_cell_count(ex1_op, i, n, 1, 0.5) \
                    == _exact_cell_count(ex1_op, i, n - 1, 1, 0.5) + 1
                assert _exact_cell_count(ex1_op, i, n, 1, math.nextafter(0.5, 1)) \
                    == _exact_cell_count(ex1_op, i, n - 1, 1, math.nextafter(0.5, 1))

    @pytest.mark.parametrize("name", ["ex1_s_Z_hc_not_dc", "ex3_s_Z_hc_not_mly"])
    def test_condition_a_counts_are_the_exact_counts_but_the_ties(self, name):
        # every level's violations along N are its bad cells; on ex1 level 1
        # meets the ties of test_ex1_bad_counts_are_the_exact_counts_but_the_ties,
        # which the dense cumsum leaves below the bound, and no other level does
        op = catalog.build_example(name)
        N, ties = 10**5, {("ex1_s_Z_hc_not_dc", -2, 1), ("ex1_s_Z_hc_not_dc", 0, 1)}
        rep = check_dc_condition_A(op, naturals(), range(-3, 4), N, 0.5, 4)
        assert len(rep.rows) == 7 * 4
        for row in rep.rows:
            i, k = row["anchor"], row["seminorm"]
            exact = oracles.exact_run_count(op, i, N, k, 0.5)
            assert row["violations"] == exact - ((name, i, k) in ties), (i, k)

    @staticmethod
    def _counted(fn, cells: dict[str, int], key: str, size):
        """fn, adding size(its result) to cells[key] on every call."""
        @functools.wraps(fn)
        def spy(*args, **kw):
            out = fn(*args, **kw)
            cells[key] += size(out)
            return out
        return spy

    @staticmethod
    def _dense_cells(monkeypatch) -> dict[str, int]:
        """Cells read on the dense route: product slices, weight logs, rows."""
        cells = {"slices": 0, "weights": 0, "rows": 0}
        counted = TestRunRoute._counted
        monkeypatch.setattr(orbit, "product_log_slice",
                            counted(orbit.product_log_slice, cells, "slices", len))
        monkeypatch.setattr(WeightSpec, "dense_logs",
                            counted(WeightSpec.dense_logs, cells, "weights", len))

        def rows(fn):
            @functools.wraps(fn)
            def spy(*args, **kw):
                for k, row in fn(*args, **kw):
                    cells["rows"] += row.size
                    yield k, row
            return spy

        monkeypatch.setattr(SpaceSpec, "log_rows", rows(SpaceSpec.log_rows))
        return cells

    def test_ex1_refutation_reads_dense_cells_only_up_to_its_tie(self, monkeypatch):
        op = catalog.build_example("ex1_s_Z_hc_not_dc")
        cells = self._dense_cells(monkeypatch)
        for anchor, most in ((0, 64), (1, 0)):
            rep = refute_dc_condition_A(op, [anchor], 10**7)
            assert rep.verdict == "condition-A-refuted-at-horizon"
            assert max(cells.values()) <= most, (anchor, cells)
            cells.update(dict.fromkeys(cells, 0))

    def test_ex2_condition_a_reads_only_band_cells(self, monkeypatch):
        # the dense scan read every cell of every orbit, 4.5 * 10**6 here
        op = catalog.build_example("ex2_kothe_dc_not_hc")
        cells = self._dense_cells(monkeypatch)
        monkeypatch.setattr(shift, "product_log_slice",
                            self._counted(shift.product_log_slice, cells, "slices", len))
        rep = check_dc_condition_A(op, naturals(), range(-4, 5), 500_000, 1e-6, 4)
        assert rep.verdict == "condition-A-holds-at-horizon"
        assert cells["slices"] < 1000, cells

    @staticmethod
    def _run_route_work(monkeypatch) -> dict[str, int]:
        """Calls of _OrbitPieces.of (one per anchor and step) and of the
        alternating and twos/halves/ones generators block by block."""
        work = {"steps": 0, "blocks": 0}
        counted = TestRunRoute._counted
        monkeypatch.setattr(orbit._OrbitPieces, "of", staticmethod(
            counted(orbit._OrbitPieces.of, work, "steps", lambda out: 1)))
        for gen in (sequences._AlternatingPowers, sequences._TwosHalvesOnes):
            monkeypatch.setattr(gen, "__call__", counted(gen.__call__, work, "blocks",
                                                         lambda out: 1))
        return work

    def test_run_route_work_is_pinned(self, monkeypatch):
        # ex1's refutation at 10**7 walked 39 chunks of 2**18 cells and
        # listed its alternating side block by block; steps are 4 chunks,
        # and the side's blocks come as arrays.  Built first: the weights'
        # spot checks probe a few blocks one by one
        ex1, ex2 = (catalog.build_example(name)
                    for name in ("ex1_s_Z_hc_not_dc", "ex2_kothe_dc_not_hc"))
        work = self._run_route_work(monkeypatch)
        rep = refute_dc_condition_A(ex1, [0], 10**7)
        assert rep.verdict == "condition-A-refuted-at-horizon"
        assert work["steps"] <= 10 and work["blocks"] == 0, work
        work.update(dict.fromkeys(work, 0))
        rep = check_dc_condition_A(ex2, naturals(), range(-4, 5), 500_000, 1e-6, 4)
        assert rep.verdict == "condition-A-holds-at-horizon"
        assert work["steps"] == 9, work  # one step for each anchor

    def test_run_route_leaves_numpy_ma_unimported(self):
        # np.unique and np.union1d import numpy.ma on their first call
        # (about 15 ms and 1 MB in a fresh process); ex1's refutation at
        # anchor 0 reaches the band cells, ex2's condition (A) every level
        code = ("import sys\n"
                "from shiftchaos import catalog, dc_cert\n"
                "from shiftchaos.density import naturals\n"
                "dc_cert.refute_dc_condition_A(catalog.build_example('ex1_s_Z_hc_not_dc'),"
                " [0, 1], 1000)\n"
                "dc_cert.check_dc_condition_A(catalog.build_example('ex2_kothe_dc_not_hc'),"
                " naturals(), [-2, 2], 1000)\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_ex2_hypercyclicity_refutation_reads_no_dense_cell(self, monkeypatch):
        op = catalog.build_example("ex2_kothe_dc_not_hc")
        cells = self._dense_cells(monkeypatch)
        assert refute_hypercyclicity(op, 4 * 10**6).verdict == "refuted-at-horizon"
        assert cells == {"slices": 0, "weights": 0, "rows": 0}


class TestLpC0Forms:
    def test_rolewicz_passes(self, rolewicz_op):
        rep = check_lp_c0_dc(rolewicz_op, [1000])
        assert rep.verdict == "passes-at-horizon"
        assert rep.params["form"] == "lp-weighted-average"

    def test_unweighted_fails(self, unweighted_op):
        rep = check_lp_c0_dc(unweighted_op, [1000])
        assert rep.verdict == "condition-failed"

    def test_c0_form(self):
        op = catalog.build_example("rolewicz_lp_N", p=0)
        rep = check_lp_c0_dc(op, [1000])
        assert rep.verdict == "passes-at-horizon"
        assert rep.params["form"] == "c0-sup-count"
        assert rep.params["inf_ratio"] > 1e-2

    def test_requires_unit_rows(self, ex2_op):
        with pytest.raises(ValueError):
            check_lp_c0_dc(ex2_op, [10])

    @pytest.mark.parametrize("p", [2, 0])
    @pytest.mark.parametrize("horizons", [[-50, 100], [0, 100], [-7]])
    def test_horizons_below_one_rejected(self, p, horizons):
        # [-50, 100] read passes-at-horizon with a row N_k -50, count 50
        op = catalog.build_example("rolewicz_lp_N", p=p)
        with pytest.raises(ValueError, match=f"horizons must be >= 1, got {horizons[0]}$"):
            check_lp_c0_dc(op, [1000], k_range=(1, 2)[:len(horizons)], horizons=horizons)

    @pytest.mark.parametrize("p", [2, 0])
    def test_empty_k_range_rejected(self, p):
        # no level once read passes-at-horizon, with no rows
        op = catalog.build_example("rolewicz_lp_N", p=p)
        with pytest.raises(ValueError, match="need at least one level in k_range"):
            check_lp_c0_dc(op, [1000], k_range=(), horizons=[100])

    def test_c0_form_rejects_coeffs(self):
        op = catalog.build_example("rolewicz_lp_N", p=0)
        with pytest.raises(ValueError, match="the c0 form takes no coefficients"):
            check_lp_c0_dc(op, [1000], coeffs=[-5.0])

    @pytest.mark.parametrize("S", [[0], [1000, -3]])
    def test_indices_off_the_domain_rejected(self, rolewicz_op, S):
        with pytest.raises(ValueError, match=f"index {min(S)} in S is outside the domain N"):
            check_lp_c0_dc(rolewicz_op, S)

    def test_index_one_on_N_adds_nothing(self, rolewicz_op):
        # P(1, n) = 0 for every n >= 1, so e_1 only halves the average:
        # count the n with (4^n + 0) / 2 > k in integers
        rep = check_lp_c0_dc(rolewicz_op, [1, 1000])
        assert [(r["k"], r["count"]) for r in rep.rows] == [
            (r["k"], sum(4**n > 2 * r["k"] for n in range(1, r["N_k"] + 1)))
            for r in rep.rows]

    @settings(max_examples=30)
    @given(st.floats(min_value=1.2, max_value=3.0))
    def test_pass_implies_search_success(self, b):
        # desk-scale form of the expansion lemma: whenever the counting form
        # passes for constant expanding weights, a schedule exists and the
        # deterministic search finds it (k <= 4 at these window sizes)
        op = ShiftOperator(lp_space(2, IndexSet.N),
                           unilateral_weights(ConstantSequence(b)))
        rep = check_lp_c0_dc(op, [1000], k_range=(1, 2, 3, 4))
        assert rep.verdict == "passes-at-horizon"
        sched = search_witness_dc(op, k_range=(1, 2, 3, 4),
                                  anchor_window=(1, 70), N_max=60)
        assert sched is not None
        sub = check_dc_condition_B(op, sched)
        assert sub.verdict == "certified-at-horizon"


class TestMopSufficient:
    def test_positive_instance_frozen(self):
        op = mop_operator()
        rep = check_mop_sufficient(
            op, catalog.MOP_ALPHAS["linear"], catalog.MOP_J0["one"],
            catalog.MOP_J1["ramp-plateau-segment-end"],
            k_range=(1, 2, 3, 4, 5), n_max=40)
        assert rep.verdict == "certified-at-horizon"
        assert [r["n_k"] for r in rep.rows] == [3, 5, 7, 9, 11]
        assert [r["N_k"] for r in rep.rows] == [
            1121, 111139, 11111165, 1111111199, 111111111241]
        assert [r["large_count"] for r in rep.rows] == [
            1102, 110002, 11000002, 1100000002, 110000000002]
        assert [r["count"] for r in rep.rows] == [
            1116, 111112, 11111020, 1111110030, 111111100042]
        for r in rep.rows:
            assert r["tail_ratio"] < 1 / (2 * r["k"])
            assert r["large_count"] * r["k"] > (r["k"] - 1) * r["N_k"]
            assert r["pass"]

    @pytest.mark.parametrize("nu", [ConstantSequence(2.0),
                                    BlockSideSequence(ramp_plateau(10), 1, 1),
                                    ClosedFormSequence(lambda j: float(j % 7))],
                             ids=["constant", "ramp-plateau", "closed-form"])
    def test_window_count_matches_a_brute_count(self, monkeypatch, nu):
        # the window count reads value counts (values one by one on a closed
        # form), never a run list
        def no_runs(self, lo, hi):
            raise AssertionError("the window count read a run list")

        monkeypatch.setattr(sequences.SequenceBase, "runs_over", no_runs)
        monkeypatch.setattr(BlockSideSequence, "runs_over", no_runs)
        for lo, hi in [(1, 1), (1, 12), (5, 130), (100, 1200), (7, 6)]:
            for alpha in (0.5, 1.0, 2.0, 3.5, 4.0, 5.0):
                want = sum(nu.value_at(j) >= alpha for j in range(lo, hi + 1))
                assert dc_cert._count_at_least(nu, lo, hi, alpha) == want
        if isinstance(nu, BlockSideSequence):
            # at depth: every value is at least 1, and only segment 200's
            # plateau (10**200 copies of 201) reaches 201
            end = catalog.segment_end(200)
            assert dc_cert._count_at_least(nu, 1, end, 1.0) == end
            assert dc_cert._count_at_least(nu, 1, end, 201.0) == 10**200

    def test_unweighted_inconclusive(self, unweighted_op):
        rep = check_mop_sufficient(
            unweighted_op, catalog.MOP_ALPHAS["linear"],
            catalog.MOP_J0["one"], catalog.MOP_J1["successor"],
            k_range=(2, 3), n_max=40)
        assert rep.verdict == "inconclusive"
        assert any("k=2" in n for n in rep.notes)

    def test_short_window_rejected(self, unweighted_op):
        with pytest.raises(ValueError, match="window shorter"):
            check_mop_sufficient(unweighted_op, lambda n: 1.0,
                                 lambda n: 1, lambda n: n, k_range=(2,))


class TestHypercyclicityWitness:
    def test_ex1_witnessed_with_frozen_settles(self, ex1_op):
        n_seq = [N_SEQ_ALT(k) for k in range(1, 121)]
        rep = check_hypercyclicity_witness(ex1_op, n_seq, (-5, 5))
        assert rep.verdict == "witnessed"
        assert rep.params["scalar_settle_index"] == 30
        assert rep.params["seminorm_settle_index"] == 90

    def test_ex3_witnessed_with_frozen_settles(self, ex3_op):
        n_seq = [N_SEQ_THO(k) for k in range(1, 121)]
        rep = check_hypercyclicity_witness(ex3_op, n_seq, (-5, 5))
        assert rep.verdict == "witnessed"
        assert rep.params["scalar_settle_index"] == 30
        assert rep.params["seminorm_settle_index"] == 105

    def test_probe_sequence_forms(self):
        assert [N_SEQ_ALT(k) for k in (1, 2, 3)] == [3, 14, 33]
        assert [N_SEQ_THO(k) for k in (1, 2, 3)] == [2, 9, 23]

    def test_unweighted_not_witnessed(self, unweighted_op):
        rep = check_hypercyclicity_witness(unweighted_op,
                                           list(range(1, 21)), (5, 5))
        assert rep.verdict == "not-witnessed-at-depth"

    def test_rejects_bad_sequences(self, ex1_op):
        with pytest.raises(ValueError):
            check_hypercyclicity_witness(ex1_op, [3, 3], (-1, 1))
        with pytest.raises(ValueError):
            check_hypercyclicity_witness(ex1_op, [], (-1, 1))

    @settings(max_examples=80)
    @given(st.sampled_from(sorted(catalog.names()) + ["custom-rows"]),
           st.sets(st.one_of(st.integers(1, 60), st.integers(1, 5_000),
                             st.integers(1, 10**6)), min_size=1, max_size=40),
           st.integers(-12, 12), st.integers(0, 6),
           st.sampled_from([1e-6, 1e-3, 0.5, 2.0]), st.integers(1, 5))
    def test_report_matches_the_per_probe_loop(self, name, n_seq, lo, width, tol, k_max):
        op = _witness_op(name)
        args = (sorted(n_seq), (lo, lo + width), tol, k_max)
        assert _report_or_error(check_hypercyclicity_witness, op, *args) == \
            _report_or_error(oracles.hypercyclicity_witness_reference, op, *args)

    def test_one_row_read_per_row_index(self, monkeypatch):
        # the weight side is gated by test_witness_products_read_the_weights_once
        config = catalog.export_config("ex1_s_Z_hc_not_dc")
        item = config["checks"][0]
        op = catalog.operator_from_config(config)
        n_seq = catalog.n_seq_from_config(item["witness"]["n_seq"])
        lo, hi = item["witness"]["ell_window"]
        entries, row_reads = [], []

        def counting(obj, name, log):
            real = getattr(obj, name)
            monkeypatch.setattr(obj, name, lambda *a: log.append(a) or real(*a))

        counting(op.space.matrix, "log_entry", entries)
        counting(op.space.matrix, "log_row_array", row_reads)
        rep = catalog.run_check(op, item)
        assert rep.verdict == "witnessed"
        rows = {ell + s * n for ell in range(lo, hi + 1) for n in n_seq for s in (-1, 1)}
        assert entries == [] and len(row_reads) == 1
        js, ks = row_reads[0]
        assert sorted(js.tolist()) == sorted(rows)  # each row index once
        assert list(ks) == list(range(1, item["witness"]["k_max"] + 1))

    @pytest.mark.parametrize("name", ["ex1_s_Z_hc_not_dc", "ex3_s_Z_hc_not_mly"])
    def test_witness_products_read_the_weights_once(self, monkeypatch, name):
        # 241 blocks against about 2,630 gaps: the batch takes every span
        # count from one run read, and reads no gap
        config = catalog.export_config(name)
        item = config["checks"][0]
        op = catalog.operator_from_config(config)
        inside, reads = [], []
        products = dc_cert.products

        def in_products(*args):
            inside.append(True)
            try:
                return products(*args)
            finally:
                inside.pop()

        def counted(attr):
            real = getattr(op.weights.seq, attr)

            def read(*args):
                if inside:
                    reads.append(attr)
                return real(*args)

            monkeypatch.setattr(op.weights.seq, attr, read)

        monkeypatch.setattr(dc_cert, "products", in_products)
        for attr in ("run_arrays", "value_at", "value_counts"):
            counted(attr)
        assert catalog.run_check(op, item).verdict == "witnessed"
        assert reads == ["run_arrays"]

    @pytest.mark.parametrize("name", ["ex2_kothe_dc_not_hc", "ex4_lp_mly_not_hc"])
    def test_row_indices_past_int64(self, name):
        # rows at ell -+ 10**19 and 10**30 pass 2**63: read as Python ints,
        # not cast to uint64 or float64, and not refused
        op = catalog.build_example(name)
        rep = check_hypercyclicity_witness(op, [10**5, 10**19, 10**30], (-2, 2), k_max=3)
        assert rep.verdict == "not-witnessed-at-depth"
        assert rep.params["scalar_settle_index"] == rep.params["seminorm_settle_index"] == 4
        assert [(r["ell"], r["seminorm_settle"]) for r in rep.rows] == \
            [(ell, 4) for ell in range(-2, 3)]


@functools.cache
def _witness_op(name: str) -> ShiftOperator:
    if name != "custom-rows":
        return catalog.build_example(name)
    # rows that grow to the right and shrink to the left: a term read at the
    # wrong index moves its settle index
    matrix = KotheMatrix("custom", log_fn=lambda j, k: k * math.log1p(abs(j)) + j / 20)
    return ShiftOperator(SpaceSpec(1, matrix, IndexSet.Z),
                         catalog.build_example("ex1_s_Z_hc_not_dc").weights)


def _report_or_error(check, *args):
    try:
        return check(*args).to_json()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestHypercyclicityRefutation:
    def test_ex2_refuted(self, ex2_op):
        rep = refute_hypercyclicity(ex2_op, 10_000)
        assert rep.verdict == "refuted-at-horizon"
        for r in rep.rows:
            assert isinstance(r["min_value"], LogScalar)
            assert r["min_value"].logmag >= 0.0

    def test_ex4_refuted(self, ex4_op):
        rep = refute_hypercyclicity(ex4_op, 10_000)
        assert rep.verdict == "refuted-at-horizon"

    def test_rolewicz_not_refuted(self, rolewicz_op):
        rep = refute_hypercyclicity(rolewicz_op, 1000)
        assert rep.verdict == "inconclusive"

    def test_zero_weight_raises(self, rolewicz_op):
        # an on-domain zero is a data error, not a product that vanishes
        # from n = 50 on (which left the minimum to n < 50 alone)
        w = unilateral_weights(ClosedFormSequence(lambda j: 0.0 if j == 50 else 2.0))
        with pytest.raises(ValueError, match="weight at 50 is zero"):
            refute_hypercyclicity(ShiftOperator(rolewicz_op.space, w), 100)


class TestWitnessSearch:
    def test_rolewicz_frozen_schedule(self, rolewicz_op):
        sched = search_witness_dc(rolewicz_op, k_range=range(1, 7),
                                  anchor_window=(1, 40), N_max=40)
        assert sched is not None
        assert [e.horizon for e in sched.entries] == [1, 3, 4, 9, 11, 13]
        assert [e.terms[0].index for e in sched.entries] == [2, 4, 5, 10, 12, 14]
        rep = check_dc_condition_B(rolewicz_op, sched)
        assert rep.verdict == "certified-at-horizon"

    def test_ex2_search(self, ex2_op):
        sched = search_witness_dc(ex2_op, k_range=(1, 2),
                                  anchor_window=(1, 130), N_max=130)
        assert sched is not None
        assert [(e.k, e.horizon, e.terms[0].index)
                for e in sched.entries] == [(1, 1, 12), (2, 3, 116)]

    def test_unweighted_no_witness(self, unweighted_op):
        assert search_witness_dc(unweighted_op, k_range=(1, 2),
                                 anchor_window=(1, 40), N_max=40) is None

    def test_empty_window_rejected(self, rolewicz_op):
        with pytest.raises(ValueError):
            search_witness_dc(rolewicz_op, anchor_window=(-5, 0), N_max=10)
