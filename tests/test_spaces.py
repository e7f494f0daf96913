"""Seminorms, the truncated metric, and the matrix contract."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos import catalog
from shiftchaos.numerics import NEG_INF, SparseVector
from shiftchaos.sequences import (
    BlockSideSequence,
    ClosedFormSequence,
    SplitSequence,
    constant,
    ramp_plateau,
)
from shiftchaos.spaces import (
    IndexSet,
    KotheMatrix,
    SpaceSpec,
    c0_space,
    check_kothe_invariants,
    condition_c_check,
    continuity_check,
    lp_space,
    metric,
    rapidly_decreasing_space,
    seminorm,
)


def ramp_nu():
    return SplitSequence(constant(1.0),
                         BlockSideSequence(ramp_plateau(10), 1, 1), split=1)


SPACES = [
    ("l1-N", lp_space(1, IndexSet.N)),
    ("l2-Z-ramp", lp_space(2, IndexSet.Z, nu=ramp_nu())),
    ("c0-Z", c0_space(IndexSet.Z)),
    ("s-Z", rapidly_decreasing_space(IndexSet.Z, p=1)),
    ("s-N-p2", rapidly_decreasing_space(IndexSet.N, p=2)),
]

space_cases = st.sampled_from(SPACES)
coeffs = st.floats(min_value=-1e3, max_value=1e3).filter(
    lambda x: abs(x) > 1e-6)
entry_dicts = st.dictionaries(st.integers(1, 40), coeffs,
                              min_size=1, max_size=8)
k_small = st.integers(1, 6)


def make_vector(space: SpaceSpec, d: dict[int, float]) -> SparseVector:
    if space.index_set is IndexSet.Z:
        return SparseVector.from_terms((j - 21, v) for j, v in d.items())
    return SparseVector.from_terms(d.items())


class TestConstructors:
    def test_p_validated(self):
        with pytest.raises(ValueError):
            lp_space(0.5, IndexSet.N)

    def test_metric_depth_validated(self):
        with pytest.raises(ValueError):
            SpaceSpec(1, KotheMatrix("constant", constant(1.0)),
                      IndexSet.N, metric_depth=0)

    def test_tail_bound(self):
        sp = lp_space(1, IndexSet.N)
        assert sp.metric_tail_bound == 2.0 ** (-sp.metric_depth)

    def test_matrix_rules(self):
        with pytest.raises(ValueError):
            KotheMatrix("diagonal", constant(1.0))
        with pytest.raises(ValueError):
            KotheMatrix("power")
        with pytest.raises(ValueError):
            KotheMatrix("custom")

    def test_power_rule_entries(self):
        sp = rapidly_decreasing_space(IndexSet.Z)
        assert sp.matrix.log_entry(-4, 3) == pytest.approx(3 * math.log(5))
        assert sp.matrix.log_entry(0, 2) == pytest.approx(0.0)


class TestMatrixContract:
    def test_non_monotone_detected(self):
        bad = KotheMatrix("custom", log_fn=lambda j, k: float(-k))
        with pytest.raises(ValueError, match="monotone"):
            check_kothe_invariants(bad, [1, 2], 3)

    def test_dead_row_detected(self):
        bad = KotheMatrix("custom", log_fn=lambda j, k: NEG_INF)
        with pytest.raises(ValueError, match="no positive entry"):
            check_kothe_invariants(bad, [1], 3)

    def test_space_spec_samples_contract(self):
        bad = KotheMatrix("custom", log_fn=lambda j, k: float(-k))
        with pytest.raises(ValueError):
            SpaceSpec(1, bad, IndexSet.N)


class TestSeminormProperties:
    @settings(max_examples=200)
    @given(space_cases, entry_dicts, k_small)
    def test_matches_naive_summation(self, case, d, k):
        _, space = case
        x = make_vector(space, d)
        got = seminorm(space, x, k)
        want = oracles.naive_seminorm(space, x, k)
        assert math.isclose(got.to_real(), want, rel_tol=1e-10)

    @settings(max_examples=200)
    @given(space_cases, entry_dicts, k_small)
    def test_monotone_in_k(self, case, d, k):
        _, space = case
        x = make_vector(space, d)
        a = seminorm(space, x, k)
        b = seminorm(space, x, k + 1)
        assert a.logmag <= b.logmag + 1e-12

    @settings(max_examples=200)
    @given(space_cases, entry_dicts, k_small, coeffs)
    def test_absolutely_homogeneous(self, case, d, k, c):
        _, space = case
        x = make_vector(space, d)
        lhs = seminorm(space, x.scale(c), k)
        rhs = seminorm(space, x, k)
        assert abs(lhs.logmag - (math.log(abs(c)) + rhs.logmag)) < 1e-9

    @settings(max_examples=200)
    @given(space_cases, entry_dicts, entry_dicts, k_small)
    def test_triangle_inequality(self, case, da, db, k):
        _, space = case
        x = make_vector(space, da)
        y = make_vector(space, db)
        lhs = seminorm(space, x + y, k).to_real()
        rhs = seminorm(space, x, k).to_real() + seminorm(space, y, k).to_real()
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestMetricProperties:
    @settings(max_examples=200)
    @given(space_cases, entry_dicts, entry_dicts)
    def test_symmetric_and_bounded(self, case, da, db):
        _, space = case
        x = make_vector(space, da)
        y = make_vector(space, db)
        dxy = metric(space, x, y)
        assert dxy == metric(space, y, x)
        assert 0.0 <= dxy <= 1.0
        assert metric(space, x, x) == 0.0

    @settings(max_examples=200)
    @given(space_cases, entry_dicts, entry_dicts)
    def test_truncation_error_bounded(self, case, da, db):
        name, space = case
        x = make_vector(space, da)
        y = make_vector(space, db)
        shallow = SpaceSpec(space.p, space.matrix, space.index_set,
                            metric_depth=10)
        d_full = metric(space, x, y)
        d_shallow = metric(shallow, x, y)
        assert abs(d_full - d_shallow) <= shallow.metric_tail_bound

    @settings(max_examples=200)
    @given(space_cases, entry_dicts, entry_dicts)
    def test_matches_naive(self, case, da, db):
        _, space = case
        x = make_vector(space, da)
        y = make_vector(space, db)
        assert math.isclose(metric(space, x, y),
                            oracles.naive_metric(space, x, y),
                            rel_tol=1e-10, abs_tol=1e-12)


class TestConditionC:
    @settings(max_examples=200)
    @given(space_cases, st.lists(entry_dicts, min_size=1, max_size=3))
    def test_coordinate_bound_holds(self, case, dicts):
        _, space = case
        samples = [make_vector(space, d) for d in dicts]
        report = condition_c_check(space, samples)
        assert report.ok
        assert report.checked == len(samples)
        assert report.worst_excess <= 1e-12


def log1p_rows(j: int, k: int) -> float:
    return k * math.log1p(abs(j))


def zeros_at_3_mod_11() -> ClosedFormSequence:
    return ClosedFormSequence(lambda j: 0.0 if j % 11 == 3 else 2.0,
                              vectorized=lambda js: np.where(js % 11 == 3, 0.0, 2.0))


def negative_past_one() -> SplitSequence:
    # block n: n copies of n, then one -1.0 (at 2, 5, 9, 14, ...), away
    # from every index SpaceSpec samples
    return SplitSequence(constant(1.0),
                         BlockSideSequence(lambda n: [(float(n), n), (-1.0, 1)], 1, 1),
                         split=1)


ROW_CASES = [
    ("s-Z", rapidly_decreasing_space(IndexSet.Z)),
    ("s-N", rapidly_decreasing_space(IndexSet.N, p=2)),
    ("ex2-power-split", SpaceSpec(1, KotheMatrix("power", ramp_nu()), IndexSet.Z)),
    ("power-split-N", SpaceSpec(1, KotheMatrix("power", ramp_nu()), IndexSet.N)),
    ("ex4-l2-split", lp_space(2, IndexSet.Z, nu=ramp_nu())),
    ("l2-N", lp_space(2, IndexSet.N)),
    ("c0-Z", c0_space(IndexSet.Z)),
    ("c0-N-ramp", c0_space(IndexSet.N, nu=BlockSideSequence(ramp_plateau(10), 1, 1))),
    ("power-zeros-Z", SpaceSpec(1, KotheMatrix("power", zeros_at_3_mod_11()), IndexSet.Z)),
    ("custom-Z", SpaceSpec(1, KotheMatrix("custom", log_fn=log1p_rows), IndexSet.Z)),
    ("custom-N", SpaceSpec(1, KotheMatrix("custom", log_fn=log1p_rows), IndexSet.N)),
]


class TestLogRows:
    @settings(max_examples=300)
    @given(st.sampled_from(ROW_CASES), st.integers(-60, 60), st.integers(-1, 400),
           st.lists(st.integers(1, 8), max_size=5))
    def test_matches_log_row_array_bytewise(self, case, lo, span, ks):
        # spans cross the split at 1 and the N edge; span -1 is an empty range
        _, space = case
        hi = lo + span
        got = list(space.log_rows(lo, hi, ks))
        assert [k for k, _ in got] == ks
        for k, row in got:
            want = oracles.dense_row_reference(space, k, lo, hi)
            assert row.dtype == want.dtype and row.shape == want.shape
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("space", [lp_space(2, IndexSet.Z, nu=ramp_nu()),
                                       c0_space(IndexSet.N)])
    def test_constant_rows_are_one_shared_readonly_array(self, space):
        rows = [row for _, row in space.log_rows(-5, 40, range(1, 41))]
        assert all(row is rows[0] for row in rows)
        assert not rows[0].flags.writeable

    def test_negative_base_raises_like_log_row_array(self):
        closed = ClosedFormSequence(lambda j: -1.0 if j == 30 else 1.0,
                                    vectorized=lambda js: np.where(js == 30, -1.0, 1.0))
        for base in (negative_past_one(), closed):
            for rule in ("constant", "power"):
                space = SpaceSpec(1, KotheMatrix(rule, base), IndexSet.Z)
                with pytest.raises(ValueError) as want:
                    space.matrix.log_row_array(2, np.arange(-3, 41))
                with pytest.raises(ValueError) as got:
                    list(space.log_rows(-3, 40, [1, 2]))
                assert str(got.value) == str(want.value)


class TestContinuity:
    @pytest.mark.parametrize("name", [
        "ex1_s_Z_hc_not_dc", "ex2_kothe_dc_not_hc", "ex3_s_Z_hc_not_mly",
        "ex4_lp_mly_not_hc", "rolewicz_lp_N"])
    def test_catalog_operators_witnessed(self, name):
        from shiftchaos import catalog
        op = catalog.build_example(name)
        lo, hi = (-200, 200) if op.space.index_set is IndexSet.Z else (1, 200)
        rep = continuity_check(op.space, op.weights, (lo, hi))
        assert rep.all_witnessed
        assert all(r.m is not None for r in rep.rows)

    def test_empty_window_rejected(self):
        sp = lp_space(1, IndexSet.N)
        from shiftchaos.weights import unilateral_weights
        w = unilateral_weights(constant(2.0))
        with pytest.raises(ValueError):
            continuity_check(sp, w, (5, 5))

    def test_zero_weight_raises(self, rolewicz_op):
        # a zero weight must not read as ln 0 = -inf, a ratio that always passes
        from shiftchaos.sequences import ClosedFormSequence
        from shiftchaos.weights import unilateral_weights
        w = unilateral_weights(ClosedFormSequence(lambda j: 0.0 if j == 50 else 2.0))
        with pytest.raises(ValueError, match="weight at 50 is zero"):
            continuity_check(rolewicz_op.space, w, (1, 200))


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_reads_do_not_grow_with_the_span():
    # e_1 + e_{10**7} on ex2's row base (constant 1 left of 1, the ramp side
    # from 1): two probes, not one array over [1, 10**7] (76 MiB)
    space = catalog.build_example("ex2_kothe_dc_not_hc").space
    x = SparseVector.basis(1) + SparseVector.basis(10**7)
    assert _peak(lambda: metric(space, x, SparseVector.zero())) < 2**20
    space = catalog.build_example("ex2_kothe_dc_not_hc").space
    js = np.array([1, 10**7])
    assert _peak(lambda: space.matrix.log_row_array(3, js)) < 2**20
    assert list(space.matrix.log_row_array(3, js)) == [
        space.matrix.log_entry(1, 3), space.matrix.log_entry(10**7, 3)]
