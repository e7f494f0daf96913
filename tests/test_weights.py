"""Weight products: dense tables, piecewise form, cocycle identity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos.catalog import segment_end
from shiftchaos.numerics import ONE, LogScalar
from shiftchaos.sequences import (
    BlockSideSequence,
    ClosedFormSequence,
    ConstantSequence,
    SplitSequence,
    alternating_powers,
    constant,
    ramp_plateau,
    twos_halves_ones,
)
from shiftchaos.spaces import IndexSet
from shiftchaos.weights import (
    MAX_DENSE,
    WeightSpec,
    bilateral_weights,
    coalesce_pieces,
    forward_product,
    product,
    product_log_slice,
    product_log_table,
    product_pieces,
    products,
    unilateral_weights,
)


def ex1_weights() -> WeightSpec:
    return bilateral_weights(
        BlockSideSequence(alternating_powers(2.0), -1, -1),
        ConstantSequence(2.0))


def ex3_weights() -> WeightSpec:
    return bilateral_weights(
        BlockSideSequence(twos_halves_ones(2.0), -1, -1),
        ConstantSequence(2.0))


def ramp_unilateral() -> WeightSpec:
    return unilateral_weights(SplitSequence(
        constant(1.0), BlockSideSequence(ramp_plateau(10), 1, 1), split=1))


WEIGHT_CASES = [
    ("ex1", ex1_weights()),
    ("ex3", ex3_weights()),
    ("rolewicz", unilateral_weights(ConstantSequence(2.0))),
    ("halves-Z", bilateral_weights(ConstantSequence(0.5),
                                   ConstantSequence(0.5))),
    ("ramp-N", ramp_unilateral()),
]

weight_cases = st.sampled_from(WEIGHT_CASES)

NEGATIVE_CASE = ("alternating-negative", bilateral_weights(
    BlockSideSequence(alternating_powers(-2.0), -1, -1),
    BlockSideSequence(alternating_powers(-2.0), 0, 1)))


CLOSED_CASE = ("closed-form-N", unilateral_weights(ClosedFormSequence(
    lambda j: -1.5 if j % 5 == 0 else 0.75 + (j % 3) / 4)))

TABLE_CASES = st.sampled_from(WEIGHT_CASES + [NEGATIVE_CASE, CLOSED_CASE])


def zero_tail_weights() -> WeightSpec:
    """Bilateral weights with w_j = 0 for j <= -101, which the constructor's
    spot checks do not reach."""
    return bilateral_weights(
        SplitSequence(ConstantSequence(0.0), ConstantSequence(2.0), split=-100),
        ConstantSequence(2.0))


def anchor_for(w: WeightSpec, raw: int) -> int:
    return abs(raw) + 1 if w.index_set is IndexSet.N else raw


@st.composite
def pair_lists(draw):
    """A weight case and a pair list: unsorted, with repeats and n = 0, spans
    that leave the half line, spans up to 10**6 long and, on the ramp
    layout, spans out to segment_end(201)."""
    name, w = draw(st.sampled_from(WEIGHT_CASES + [NEGATIVE_CASE]))
    lengths = st.one_of(st.integers(0, 60), st.integers(0, 2_000), st.integers(0, 10**6))
    pairs = draw(st.lists(st.tuples(st.integers(-300, 300), lengths), min_size=1,
                          max_size=8))
    pairs = [(anchor_for(w, raw), n) for raw, n in pairs]
    if name == "ramp-N":
        for t in draw(st.lists(st.integers(1, 201), max_size=1)):
            end = segment_end(t)
            pairs.append((end + 1 + draw(st.integers(0, 50)),
                          draw(st.sampled_from([end, end - 1, end // 3, end + 7]))))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    return name, w, pairs


class TestProduct:
    def test_empty_product_is_one(self):
        w = ex1_weights()
        assert product(w, 5, 0).to_real() == 1.0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            product(ex1_weights(), 5, -1)

    def test_annihilation_on_half_line(self):
        w = unilateral_weights(ConstantSequence(2.0))
        assert product(w, 5, 5).sign == 0
        assert product(w, 5, 4).to_real() == pytest.approx(16.0)

    @settings(max_examples=200)
    @given(weight_cases, st.integers(-30, 30), st.integers(0, 60))
    def test_matches_naive(self, case, raw_i, n):
        _, w = case
        i = anchor_for(w, raw_i)
        got = product(w, i, n)
        want = oracles.naive_weight_product(w, i, n)
        if want == 0.0:
            assert got.sign == 0
        else:
            assert math.isclose(abs(got.to_real()), want, rel_tol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(pair_lists())
    @example(("ramp-N", ramp_unilateral(), [(segment_end(201) + 1, segment_end(201)),
                                             (segment_end(201) + 1, segment_end(200)),
                                             (5, 0), (3, 3)]))
    # spans whose terms a plain left-to-right sum rounds off the fsum
    @example(("ramp-N", ramp_unilateral(), [(1_111_153, 1_111_152), (11_111_169, 21),
                                             (segment_end(12) + 1, segment_end(12))]))
    def test_matches_exact_count_oracle_bitwise(self, case):
        _, w, pairs = case
        signs, logs = products(w, pairs)
        for (i, n), sign, logmag in zip(pairs, signs, logs):
            want_sign, want_log = oracles.exact_count_product_log(w, i, n)
            assert sign == want_sign
            assert logmag.hex() == want_log.hex()
        i, n = pairs[0]
        assert product(w, i, n) == LogScalar(signs[0], logs[0])


    def test_negative_weights_carry_sign(self):
        _, w = NEGATIVE_CASE
        assert product(w, 0, 1) == LogScalar(-1, math.log(2.0))
        assert product(w, 0, 2) == LogScalar(1, 0.0)
        assert product(w, 0, 3).sign == -1

    def test_deep_product_skips_the_run_walk(self, monkeypatch):
        # n ~ 10**6 spans ~1000 blocks; the count cache must answer without
        # walking them run by run
        def no_walk(self, lo, hi):
            raise AssertionError("product walked the runs")

        monkeypatch.setattr(BlockSideSequence, "run_arrays", no_walk)  # runs_over reads it too
        w = ex1_weights()
        # blocks 1..999 of the negative side fill [-999000, -1] with 499500
        # twos and 499500 halves; block 1000 opens with 1000 more halves
        deep = math.fsum([499_500 * math.log(2.0), 500_500 * math.log(0.5)])
        assert product(w, 0, 999_000) == ONE
        assert product(w, 0, 10**6) == LogScalar(1, deep)
        # the batch reads the gaps between the span ends [-10**6, -999000, 0]
        assert products(w, [(0, 10**6), (0, 999_000), (-999_000, 1_000)]) == (
            [1, 1, 1], [deep, 0.0, 1_000 * math.log(0.5)])

    def test_zero_weight_raises(self):
        with pytest.raises(ValueError, match="weight at -101 is zero"):
            product(zero_tail_weights(), 0, 150)
        assert product(zero_tail_weights(), 0, 100) == LogScalar(1, 100 * math.log(2.0))
        closed = bilateral_weights(
            ClosedFormSequence(lambda j: 0.0 if j <= -101 else 2.0),
            ConstantSequence(2.0))
        with pytest.raises(ValueError, match="weight at -101 is zero"):
            product(closed, 0, 150)
        # a batch raises for its first pair that holds a zero
        w = zero_tail_weights()
        assert products(w, [(0, 100), (-100, 0)]) == ([1, 1], [100 * math.log(2.0), 0.0])
        with pytest.raises(ValueError, match="weight at -101 is zero"):
            products(w, [(0, 100), (0, 150), (-150, 10)])
        with pytest.raises(ValueError, match="weight at -151 is zero"):
            products(w, [(0, 100), (-150, 10), (0, 150)])

    def test_closed_form_weights_count_each_pair(self, monkeypatch):
        _, w = CLOSED_CASE
        reads = []
        value_at = ClosedFormSequence.value_at
        monkeypatch.setattr(ClosedFormSequence, "value_at",
                            lambda self, j: reads.append(j) or value_at(self, j))
        pairs = [(400, 300), (400, 100), (350, 50), (402, 2), (401, 1)]
        signs, logs = products(w, pairs)
        # a span over a gap without counts reads each of its own indices; the
        # span [400, 401] is two one-index gaps, read once each
        assert len(reads) == 300 + 100 + 50 + 2
        for (i, n), sign, logmag in zip(pairs, signs, logs):
            assert (sign, logmag) == oracles.exact_count_product_log(w, i, n)
            assert product(w, i, n) == LogScalar(sign, logmag)
        with pytest.raises(ValueError, match="closed-form weights cannot"):
            products(w, [(MAX_DENSE + 5, MAX_DENSE + 1)])

    @settings(max_examples=200)
    @given(weight_cases, st.integers(-30, 30), st.integers(0, 40))
    def test_forward_matches_naive(self, case, raw_i, n):
        _, w = case
        i = anchor_for(w, raw_i)
        got = forward_product(w, i, n)
        want = oracles.naive_forward_product(w, i, n)
        assert math.isclose(abs(got.to_real()), want, rel_tol=1e-10)

    @settings(max_examples=200)
    @given(weight_cases, st.integers(-30, 30), st.integers(0, 40),
           st.integers(0, 40))
    def test_cocycle_identity(self, case, raw_i, m, n):
        _, w = case
        i = anchor_for(w, raw_i)
        whole = product(w, i, m + n)
        left = product(w, i, m)
        right = product(w, i - m, n)
        if whole.sign == 0:
            assert left.sign == 0 or right.sign == 0
        else:
            assert left.sign * right.sign == whole.sign
            assert abs(left.logmag + right.logmag - whole.logmag) < 1e-9


class TestProductTable:
    @given(weight_cases, st.integers(-20, 20), st.integers(1, 80))
    def test_matches_pointwise_product(self, case, raw_i, n_max):
        # magnitudes only: sign 0 (annihilation) exactly where the table
        # reads -inf, and ln |P| elsewhere
        _, w = case
        i = anchor_for(w, raw_i)
        table = product_log_table(w, i, n_max)
        signs, logs = products(w, [(i, n) for n in range(n_max + 1)])
        assert table[0] == 0.0
        for n in range(1, n_max + 1):
            assert (table[n] == -math.inf) == (signs[n] == 0)
            if signs[n] != 0:
                assert abs(table[n] - logs[n]) < 1e-9

    def test_zero_weight_raises(self):
        with pytest.raises(ValueError, match="weight at -101 is zero"):
            product_log_table(zero_tail_weights(), 0, 150)
        table = product_log_table(zero_tail_weights(), 0, 100)
        assert table[100] == pytest.approx(100 * math.log(2.0))

    def test_off_domain_is_annihilation(self):
        w = unilateral_weights(ConstantSequence(2.0))
        table = product_log_table(w, 5, 8)
        assert list(table == -math.inf) == [False] * 5 + [True] * 4
        # a slice that starts after the orbit has left N reads -inf
        # throughout: P(i, n0) is an exact zero there, not 1
        for i, n0, n1 in ((5, 10, 12), (1, 1, 3), (5, 5, 5)):
            assert product(w, i, n0).sign == 0
            assert np.all(product_log_slice(w, i, n0, n1) == -math.inf)

    def test_length_outside_dense_range_rejected(self):
        w = unilateral_weights(ConstantSequence(2.0))
        for n_max in (-1, MAX_DENSE + 1):
            with pytest.raises(ValueError, match="is outside"):
                product_log_table(w, 5, n_max)

    @settings(max_examples=200)
    @given(TABLE_CASES, st.integers(-300, 300), st.integers(0, 2000))
    @example(CLOSED_CASE, 5, 0)
    @example(CLOSED_CASE, 5, 40)
    @example(WEIGHT_CASES[-1], 2, 30)
    def test_matches_dense_reference_bytewise(self, case, raw_i, n_max):
        _, w = case
        i = anchor_for(w, raw_i)
        table = product_log_table(w, i, n_max)
        logs, signs = oracles.dense_table_reference(w, i, n_max)
        assert table.dtype == np.float64
        assert table.tobytes() == logs.tobytes()
        assert np.array_equal(table == -math.inf, signs == 0)

    @settings(max_examples=200)
    @given(TABLE_CASES, st.integers(-300, 300), st.integers(-1, 2000))
    def test_dense_logs_matches_value_at_bytewise(self, case, lo, span):
        _, w = case
        lo = max(lo, 1) if w.index_set is IndexSet.N else lo  # on-domain ranges
        js = range(lo, lo + span + 1)
        want = np.log(np.abs(np.array([w.seq.value_at(j) for j in js], dtype=float)))
        got = w.dense_logs(lo, lo + span)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_one_runs_pass_per_side(self, monkeypatch):
        # the table reads each side's runs once and never probes values cell
        # by cell; a return to per-cell passes fails here without any timing.
        # A side's runs pass is run_arrays (its run table, or its listed blocks)
        scanned = []
        run_arrays = BlockSideSequence.run_arrays

        def counted(self, lo, hi):
            scanned.append(self)
            return run_arrays(self, lo, hi)

        def no_cells(self, js):
            raise AssertionError("the table probed values cell by cell")

        monkeypatch.setattr(BlockSideSequence, "run_arrays", counted)
        monkeypatch.setattr(BlockSideSequence, "values_array", no_cells)
        w = ex1_weights()
        table = product_log_table(w, 0, 10**6)
        assert scanned == [w.seq.negative]
        assert table[10**6] == pytest.approx(product(w, 0, 10**6).logmag, rel=1e-9)
        scanned.clear()
        _, neg = NEGATIVE_CASE
        product_log_table(neg, 500_000, 10**6)
        assert sorted(map(id, scanned)) == sorted([id(neg.seq.negative),
                                                   id(neg.seq.nonnegative)])


class TestProductPieces:
    @given(weight_cases, st.integers(-20, 20), st.integers(1, 60),
           st.integers(0, 40))
    def test_matches_product(self, case, raw_i, span, lead):
        _, w = case
        i = anchor_for(w, raw_i)
        n_lo, n_hi = 1 + lead, lead + span
        pieces = product_pieces(w, i, n_lo, n_hi)
        assert oracles.total_length(pieces) == n_hi - n_lo + 1
        n = n_lo
        for piece in pieces:
            for t in range(piece.count):
                want = product(w, i, n)
                got = piece.log_at(n)
                if want.sign == 0:
                    assert got == -math.inf
                else:
                    assert abs(got - want.logmag) < 1e-9
                n += 1

    def test_zero_weight_raises(self):
        with pytest.raises(ValueError, match="weight at -101 is zero"):
            product_pieces(zero_tail_weights(), 0, 1, 150)
        with pytest.raises(ValueError, match="weight at -101 is zero"):
            product_pieces(zero_tail_weights(), 0, 120, 150)

    def test_off_domain_is_zero_piece(self):
        pieces = product_pieces(unilateral_weights(ConstantSequence(2.0)), 5, 1, 8)
        assert pieces[-1].n0 == 5 and pieces[-1].n1 == 8
        assert pieces[-1].log0 == -math.inf

    def test_coalesce_preserves_length(self):
        w = ex1_weights()
        pieces = product_pieces(w, 0, 1, 50)
        merged = coalesce_pieces(pieces)
        assert oracles.total_length(merged) == 50
        assert len(merged) <= len(pieces)

    def test_geometric_run_structure(self):
        # constant doubling weights: one long affine piece with slope ln 2
        # (plus at most a single-point lead-in)
        w = unilateral_weights(ConstantSequence(2.0))
        merged = coalesce_pieces(product_pieces(w, 100, 1, 60))
        assert len(merged) <= 2
        assert merged[-1].slope == pytest.approx(math.log(2.0))
        assert merged[-1].count >= 59


class TestBlockIndexRange:
    def test_negation_mirrors(self):
        side = BlockSideSequence(alternating_powers(2.0), -1, -1)
        assert oracles.block_index_range(side, 1) == (-2, -1)
        assert oracles.block_index_range(side, 1, negated=True) == (1, 2)
        assert oracles.block_index_range(side, 3) == (-12, -7)
        assert oracles.block_index_range(side, 3, negated=True) == (7, 12)
