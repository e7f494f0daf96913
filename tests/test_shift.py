"""The weighted backward shift: stepwise action vs closed products."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import test_weights as twt
from shiftchaos import catalog, numerics
from shiftchaos.numerics import NEG_INF, SparseVector
from shiftchaos.shift import (
    ShiftOperator,
    basis_orbit_logs,
    orbit_seminorm_log_array,
)
from shiftchaos.spaces import IndexSet
from test_spaces import ROW_CASES

OPS = [catalog.build_example(n) for n in
       ("ex1_s_Z_hc_not_dc", "ex2_kothe_dc_not_hc", "ex4_lp_mly_not_hc",
        "rolewicz_lp_N")]
op_cases = st.sampled_from(OPS)
coeffs = st.floats(min_value=-100, max_value=100).filter(
    lambda x: abs(x) > 1e-6)


def domain_index(op, raw: int) -> int:
    return abs(raw) + 1 if op.space.index_set is IndexSet.N else raw


class TestApply:
    def test_single_step(self):
        op = catalog.build_example("rolewicz_lp_N")
        y = oracles.apply(op, SparseVector.basis(5))
        assert y.support() == [4]
        assert y[4].to_real() == 2.0

    def test_edge_annihilates(self):
        op = catalog.build_example("rolewicz_lp_N")
        assert oracles.apply(op, SparseVector.basis(1)).is_zero()

    def test_linear_combination(self):
        op = catalog.build_example("rolewicz_lp_N")
        x = SparseVector.from_terms([(1, 7.0), (3, 1.5)])
        y = oracles.apply(op, x)
        assert y.support() == [2]
        assert math.isclose(y[2].to_real(), 3.0, rel_tol=1e-12)

    @settings(max_examples=200)
    @given(op_cases, st.integers(-25, 25), st.integers(0, 50))
    def test_iterate_basis_matches_stepwise(self, op, raw_i, n):
        i = domain_index(op, raw_i)
        cur = SparseVector.basis(i)
        for _ in range(n):
            cur = oracles.apply(op, cur)
        want = oracles.iterate_basis(op, i, n)
        assert cur.support() == want.support()
        for j in cur.support():
            assert cur[j].sign == want[j].sign
            assert abs(cur[j].logmag - want[j].logmag) < 1e-9


def _real(logmag: float) -> float:
    return 0.0 if logmag == NEG_INF else math.exp(logmag)


class TestOrbitSeries:
    @given(op_cases,
           st.dictionaries(st.integers(1, 25), coeffs, min_size=1, max_size=4),
           st.integers(1, 4), st.integers(1, 40))
    def test_matches_brute_force(self, op, d, m, n_max):
        if op.space.index_set is IndexSet.Z:
            x = SparseVector.from_terms((j - 13, v) for j, v in d.items())
        else:
            x = SparseVector.from_terms(d.items())
        arr = orbit_seminorm_log_array(op, x, m, n_max)
        assert arr.shape == (n_max + 1,)
        brute = oracles.brute_orbit_norms(op, x, n_max, m)
        start = oracles.naive_seminorm(op.space, x, m)
        assert math.isclose(_real(arr[0]), start, rel_tol=1e-9)
        for n in range(1, n_max + 1):
            want = brute[n - 1]
            if want == 0.0:
                assert arr[n] == NEG_INF
            else:
                assert math.isclose(_real(arr[n]), want, rel_tol=1e-9)

    @given(op_cases, st.integers(1, 25), st.integers(1, 4),
           st.integers(1, 40))
    def test_log_array_matches_reference(self, op, raw_i, m, n_max):
        # one support point: its orbit row, ln 2 + ln |P(i, n)| + ln a(i - n, m)
        i = domain_index(op, raw_i)
        arr = orbit_seminorm_log_array(op, SparseVector.basis(i, 2.0), m, n_max)
        want = oracles.orbit_logs_reference(op, i, m, math.log(2.0), 0, n_max)
        assert arr.shape == (n_max + 1,)
        assert arr.tobytes() == want.tobytes()

    def test_zero_vector(self):
        arr = orbit_seminorm_log_array(OPS[0], SparseVector.zero(), 1, 5)
        assert arr.shape == (6,) and np.all(arr == NEG_INF)


# weights for every index set, with negative and closed-form (run-less) ones
KERNEL_WEIGHTS = {
    IndexSet.Z: [w for _, w in twt.WEIGHT_CASES + [twt.NEGATIVE_CASE, twt.SIGN_FLIP_CASE]
                 if w.index_set is IndexSet.Z],
    IndexSet.N: [w for _, w in twt.WEIGHT_CASES + [twt.CLOSED_CASE]
                 if w.index_set is IndexSet.N],
}


def level_arrays(chunks, ks, n_lo) -> list[tuple[int, np.ndarray]]:
    """basis_orbit_logs' chunk-major (n0, k, vals) items as one (k, vals)
    per level, each level's chunks concatenated in order."""
    items = list(chunks)
    L = len(ks)
    for c in range(len(items) // L):
        step = items[c * L:(c + 1) * L]
        assert [k for _, k, _ in step] == list(ks)
        assert len({n0 for n0, _, _ in step}) == 1
    starts = [n0 for n0, _, _ in items[::L]]
    sizes = [vals.size for _, _, vals in items[::L]]
    assert starts == [n_lo + sum(sizes[:c]) for c in range(len(starts))]
    return [(k, np.concatenate([vals for _, _, vals in items[p::L]]))
            for p, k in enumerate(ks)]


class TestBasisOrbitLogs:
    @settings(max_examples=300)
    @given(st.sampled_from(ROW_CASES), st.data(), st.integers(-40, 60),
           st.sampled_from([0, 1]), st.integers(0, 300),
           st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.sampled_from([0.0, 1.5, -2.25, math.log(3.0)]))
    def test_matches_reference_bytewise(self, case, data, raw_i, n_lo, span, ks,
                                        coeff):
        # on N, i <= 61 and n up to 301: most draws run past the edge (n >= i)
        _, space = case
        op = ShiftOperator(space, data.draw(st.sampled_from(KERNEL_WEIGHTS[space.index_set])))
        i = domain_index(op, raw_i)
        n_hi = n_lo + span
        got = level_arrays(basis_orbit_logs(op, i, ks, n_lo, n_hi, coeff), ks, n_lo)
        for k, vals in got:
            want = oracles.orbit_logs_reference(op, i, k, coeff, n_lo, n_hi)
            assert vals.dtype == want.dtype and vals.shape == want.shape
            assert vals.tobytes() == want.tobytes()

    @settings(max_examples=150)
    @given(st.sampled_from(ROW_CASES), st.data(), st.integers(-40, 60),
           st.sampled_from([0, 1, 5]), st.integers(0, 300),
           st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.sampled_from([0.0, -2.25]), st.sampled_from([1, 7, 64]))
    def test_chunks_concatenate_to_one_chunk_bytewise(self, case, data, raw_i, n_lo,
                                                      span, ks, coeff, chunk):
        # the carry seeds each chunk's cumsum, so the boundaries leave no trace
        _, space = case
        op = ShiftOperator(space, data.draw(st.sampled_from(KERNEL_WEIGHTS[space.index_set])))
        i = domain_index(op, raw_i)
        n_hi = n_lo + span
        whole = level_arrays(basis_orbit_logs(op, i, ks, n_lo, n_hi, coeff), ks, n_lo)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "CHUNK", chunk)
            got = level_arrays(basis_orbit_logs(op, i, ks, n_lo, n_hi, coeff), ks, n_lo)
        assert [k for k, _ in got] == [k for k, _ in whole]
        for (_, vals), (_, want) in zip(got, whole):
            assert vals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["ex4_lp_mly_not_hc", "rolewicz_lp_N"])
    def test_constant_rows_give_one_shared_readonly_array(self, name):
        op = catalog.build_example(name)
        got = [vals for _, _, vals in basis_orbit_logs(op, 30, range(1, 41), 1, 500, 0.5)]
        assert all(vals is got[0] for vals in got)
        assert not got[0].flags.writeable
