"""Log-domain scalars, reductions, and sparse vectors."""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos.numerics import (
    BLOCK,
    NEG_INF,
    ONE,
    ZERO,
    LogScalar,
    SparseVector,
    logadd,
    logsumexp_blocks,
    logsumexp_p,
    logsumexp_p_rows,
)

finite_reals = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
nonzero_reals = finite_reals.filter(lambda x: abs(x) > 1e-9)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


class TestLogScalar:
    def test_constants(self):
        assert ZERO.sign == 0 and ZERO.logmag == NEG_INF
        assert ONE.sign == 1 and ONE.logmag == 0.0
        assert ZERO.is_zero() and not ONE.is_zero()

    @given(finite_reals)
    def test_roundtrip(self, x):
        assert close(LogScalar.from_real(x).to_real(), x)

    @given(nonzero_reals, nonzero_reals)
    def test_mul_matches_real(self, a, b):
        got = (LogScalar.from_real(a) * LogScalar.from_real(b)).to_real()
        assert close(got, a * b, rel=1e-12)

    def test_huge_magnitudes_stay_finite(self):
        big = LogScalar.from_log(5000.0)
        prod = big * big
        assert prod.logmag == 10000.0 and prod.sign == 1
        assert math.isinf(prod.to_real())

    def test_decimal_str(self):
        assert LogScalar.from_real(0.0).decimal_str() == "0"
        s = LogScalar.from_real(-2.0).decimal_str(6)
        assert s.startswith("-2.0")
        # far outside float range: rendered via exponent arithmetic
        s = LogScalar.from_log(10000.0).decimal_str(4)
        assert "e+" in s
        mant, expo = s.split("e+")
        assert int(expo) == math.floor(10000.0 / math.log(10))
        assert 1.0 <= float(mant) < 10.0

    def test_decimal_str_mantissa_rounding_up_to_ten(self):
        # a mantissa that rounds to 10 moves into the exponent
        assert LogScalar(1, -4.44e-16).decimal_str() == "1.00000000000e+0"
        assert LogScalar(1, math.log(99.9999999999999)).decimal_str() == "1.00000000000e+2"
        assert LogScalar(-1, math.log(0.0999999999999999)).decimal_str(3) == "-1.00e-1"


class TestReductions:
    @given(st.lists(finite_reals, min_size=1, max_size=20))
    # cancellation: 6.2e-7 relative off the sum, yet within the bound below
    @example([1e6, -999999.9999])
    def test_logadd_matches_sum(self, xs):
        acc = ZERO
        for x in xs:
            acc = logadd(acc, LogScalar.from_real(x))
        # Every step rounds a log of magnitude at most lam and an exp, so
        # it errs by a few (lam + 1) ulps of a partial sum, each at most
        # sum |x|: the condition-scaled bound c * u * sum |x| / |sum x|,
        # relative, with c = 8 (lam + 1) per term.  No fixed relative
        # tolerance holds under cancellation.
        mags = [abs(x) for x in xs if x]
        lam = max([abs(math.log(m)) for m in mags] + [math.log(math.fsum(mags) or 1.0)])
        bound = 8 * (lam + 1) * len(xs) * 2.0**-53 * math.fsum(mags)
        assert abs(acc.to_real() - math.fsum(xs)) <= bound

    @given(st.lists(nonzero_reals, min_size=1, max_size=20),
           st.sampled_from([1.0, 2.0, 3.0]))
    def test_logsumexp_p_matches_rooted_power_sum(self, xs, p):
        got = logsumexp_p([LogScalar.from_real(x).logmag for x in xs], p)
        want = math.fsum(abs(x) ** p for x in xs) ** (1.0 / p)
        assert close(math.exp(got), want, rel=1e-9)

    @given(st.lists(finite_reals, min_size=1, max_size=20))
    def test_sup_abs(self, xs):
        # the p = 0 form is the max; zeros come in as -inf and drop out
        got = LogScalar.from_log(logsumexp_p(
            [LogScalar.from_real(x).logmag for x in xs], 0))
        assert close(got.to_real(), max(abs(x) for x in xs))

    def test_logmul_zero_annihilates(self):
        assert oracles.logmul(ZERO, LogScalar.from_real(3.0)).is_zero()
        three = LogScalar.from_real(3.0)
        # adding zero returns the other operand bitwise
        assert logadd(ZERO, three) == three
        assert logadd(three, ZERO) == three
        # opposite signs with equal magnitude cancel exactly
        assert logadd(three, LogScalar(-1, three.logmag)).is_zero()

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1,
                    max_size=30),
           st.sampled_from([1.0, 2.0]))
    def test_logsumexp_p_array(self, logs, p):
        got = logsumexp_p(np.array(logs), p)
        want = math.log(math.fsum(math.exp(v) ** p for v in logs)) / p
        assert close(got, want, rel=1e-9) or abs(got - want) < 1e-9

    def test_logsumexp_p_rows_columnwise(self):
        rows = np.array([[0.0, 1.0, NEG_INF], [math.log(3.0), 1.0, NEG_INF]])
        got = logsumexp_p_rows(rows, 1.0)
        assert close(got[0], math.log(4.0))
        assert close(got[1], 1.0 + math.log(2.0))
        assert got[2] == NEG_INF
        # p = 2 roots the column power sums
        got2 = logsumexp_p_rows(rows, 2.0)
        assert close(got2[0], math.log(math.sqrt(10.0)))

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1,
                    max_size=40))
    def test_logaddexp_accumulate(self, logs):
        # check_f3 reads its running product averages off this primitive
        got = np.logaddexp.accumulate(np.array(logs))
        running = 0.0
        for t, v in enumerate(logs):
            running += math.exp(v)
            assert abs(float(got[t]) - math.log(running)) < 1e-9


def lp_form_reference(logs, p) -> float:
    """The lp form by one unshifted fsum of e^(p x) over the finite logs."""
    xs = [x for x in logs if x > NEG_INF]
    if not xs:
        return NEG_INF
    if p == 0:
        return max(xs)
    s = math.log(math.fsum(math.exp(p * x) for x in xs))
    return s / p


log_terms = st.one_of(st.floats(min_value=-30, max_value=30), st.just(NEG_INF))
forms = st.sampled_from([0, 1, 2, 3])


def masked_lp_rows(rows: np.ndarray, p: float) -> np.ndarray:
    """logsumexp_p_rows' formula with the columns whose max is -inf masked
    out, whether or not there is one."""
    if rows.shape[0] == 1:
        return rows[0]
    m = rows.max(axis=0)
    if p == 0:
        return m
    out = np.full(rows.shape[1], NEG_INF)
    finite = m > NEG_INF
    s = np.log(np.sum(np.exp(p * (rows[:, finite] - m[finite])), axis=0))
    out[finite] = m[finite] + s / p
    return out


class TestLpForm:
    @given(st.lists(log_terms, max_size=12), forms)
    def test_scalar_matches_fsum(self, logs, p):
        got = logsumexp_p(logs, p)
        want = lp_form_reference(logs, p)
        assert got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @given(st.integers(1, 5), st.integers(1, 8), st.data(), forms)
    def test_rows_match_fsum_columnwise(self, r, n, data, p):
        rows = np.array([[data.draw(log_terms) for _ in range(n)] for _ in range(r)])
        rows[:, 0] = NEG_INF  # one all-zero column in every draw
        with np.errstate(all="raise"):  # no -inf - (-inf) anywhere
            got = logsumexp_p_rows(rows, p)
        assert got.shape == (n,) and got[0] == NEG_INF
        for col in range(n):
            want = lp_form_reference(rows[:, col], p)
            assert (got[col] == want
                    or abs(got[col] - want) <= 1e-12 * max(1.0, abs(want)))

    @given(st.integers(1, 4), st.integers(1, 50), st.data(),
           st.sampled_from([0, 1, 1.5, 2]), st.booleans())
    def test_rows_match_the_masked_form_bytewise(self, r, n, data, p, dead_column):
        # without a -inf column no mask is applied; the bytes must not move
        terms = log_terms if dead_column else st.floats(min_value=-30, max_value=30)
        rows = np.array([[data.draw(terms) for _ in range(n)] for _ in range(r)])
        if dead_column:
            rows[:, data.draw(st.integers(0, n - 1))] = NEG_INF
        assert logsumexp_p_rows(rows, p).tobytes() == masked_lp_rows(rows, p).tobytes()

    @pytest.mark.parametrize("dead_columns", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 2.5])
    @pytest.mark.parametrize("r", [2, 3])
    def test_folded_rows_match_the_stacked_formula_bytewise(self, r, p, dead_columns):
        # the rows are folded one at a time; the bytes are those of one
        # (r, N) max-shifted array summed down axis 0, masked where a
        # column is all -inf.  Ties between rows, -inf in some rows only,
        # spans of 1e-300 and of 700 between rows in a column
        rng = np.random.default_rng(r * 10 + int(2 * p))
        rows = rng.normal(scale=20.0, size=(r, 4099))
        rows[1, ::5] = rows[0, ::5]
        rows[0, 2::11] = rows[1, 2::11] + 1e-300
        rows[0, 3::13] = rows[1, 3::13] - 700.0
        rows[-1, 1::7] = NEG_INF
        if dead_columns:
            rows[:, 4::17] = NEG_INF
            want = masked_lp_rows(rows, p)
        else:
            m = rows.max(axis=0)
            want = m + np.log(np.sum(np.exp(p * (rows - m)), axis=0)) / p
        assert logsumexp_p_rows(rows, p).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_one_term_comes_back_unchanged(self, p):
        x = 1.2345678901234567
        assert logsumexp_p([x, NEG_INF], p) == x
        row = np.array([[x, -3.5, NEG_INF]])
        assert logsumexp_p_rows(row, p).tobytes() == row[0].tobytes()

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_no_terms_give_minus_inf(self, p):
        assert logsumexp_p([], p) == NEG_INF
        assert logsumexp_p([NEG_INF, NEG_INF], p) == NEG_INF

    @pytest.mark.parametrize("p", [0.5, 0.999, -1])
    def test_p_between_0_and_1_raises(self, p):
        with pytest.raises(ValueError, match="p must be 0 or >= 1"):
            logsumexp_p([0.0, 1.0], p)
        with pytest.raises(ValueError, match="p must be 0 or >= 1"):
            logsumexp_p_rows(np.zeros((2, 3)), p)


@contextmanager
def _no_float_warnings():
    """A NaN, overflow or division by zero raises; underflow in exp is fine."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield


def _cells(seed: int, n: int, center: float, width: float, dead: float,
           dead_blocks: list[int]) -> np.ndarray:
    """n logs uniform on center +- width, clipped to +-700, a share `dead`
    of them -inf and the listed blocks of BLOCK cells wholly -inf."""
    rng = np.random.default_rng(seed)
    x = np.clip(rng.uniform(center - width, center + width, n), -700, 700)
    x[rng.random(n) < dead] = NEG_INF
    for b in dead_blocks:
        x[b * BLOCK:(b + 1) * BLOCK] = NEG_INF
    return x


MAX_CELLS = 3 * BLOCK + 64
spread_logs = st.floats(min_value=-700, max_value=700)
# whole blocks and a remainder, so most draws span a block edge
cell_counts = st.builds(lambda b, r: max(1, b * BLOCK + r), st.integers(0, 3),
                        st.integers(0, 64) | st.integers(0, BLOCK - 1))
cell_arrays = st.one_of(
    st.builds(_cells, st.integers(0, 2**32 - 1), cell_counts, spread_logs,
              st.sampled_from([0.0, 1.0, 30.0, 700.0]), st.sampled_from([0.0, 0.3, 0.99]),
              st.lists(st.integers(0, 3), max_size=2)),
    st.lists(st.one_of(spread_logs, st.just(NEG_INF)), max_size=40).map(np.array))


class TestBlockLogSum:
    @settings(max_examples=80)
    @given(cell_arrays)
    @example(_cells(1, BLOCK, 0, 700, 0.0, []))
    @example(_cells(2, BLOCK + 1, 695, 5, 0.0, []))
    @example(_cells(3, 3 * BLOCK + 17, -650, 50, 0.3, [0, 2]))
    @example(_cells(4, 2 * BLOCK, 0, 700, 0.0, [1]))
    def test_within_the_stated_bound_of_fsum(self, cells):
        with _no_float_warnings():
            got = logsumexp_blocks([cells])
        want = oracles.log_sum_reference(cells)
        if want == NEG_INF:
            assert got == NEG_INF
            return
        n = int(np.count_nonzero(cells > NEG_INF))
        slack = (abs(want) + 2 * math.log(n) + 5) * oracles.U  # the reference's own
        assert abs(got - want) <= oracles.log_sum_blocks_bound(cells, BLOCK) + slack

    @given(cell_arrays, st.lists(st.integers(0, MAX_CELLS), max_size=8))
    @example(_cells(5, 3 * BLOCK + 17, 0, 1, 0.3, [1]),
             [1, BLOCK - 1, BLOCK, BLOCK, 2 * BLOCK + 1, 3 * BLOCK])
    def test_any_chunking_gives_the_same_bits(self, cells, cuts):
        cells.flags.writeable = False  # the dense route's chunks may be read-only
        chunks = np.split(cells, sorted(c for c in cuts if c <= cells.size))
        with _no_float_warnings():
            want = logsumexp_blocks([cells])
            got = logsumexp_blocks(chunks)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_no_finite_cell_gives_minus_inf(self):
        with _no_float_warnings():
            assert logsumexp_blocks([]) == NEG_INF
            assert logsumexp_blocks([np.empty(0)]) == NEG_INF
            assert logsumexp_blocks([np.full(3 * BLOCK + 5, NEG_INF),
                                     np.full(7, NEG_INF)]) == NEG_INF

    @given(spread_logs)
    def test_one_cell_comes_back_unchanged(self, x):
        with _no_float_warnings():
            assert logsumexp_blocks([np.array([NEG_INF, x, NEG_INF])]) == x


class TestSparseVector:
    def test_basis_and_getitem(self):
        e = SparseVector.basis(5, 2.0)
        assert e[5].to_real() == 2.0
        assert e[4].is_zero()
        assert e.support() == [5]

    def test_from_terms_drops_zeros(self):
        v = SparseVector.from_terms([(1, 0.0), (2, 3.0)])
        assert v.support() == [2]

    @given(st.dictionaries(st.integers(-50, 50), nonzero_reals,
                           min_size=0, max_size=8),
           st.dictionaries(st.integers(-50, 50), nonzero_reals,
                           min_size=0, max_size=8))
    def test_add_sub_match_dicts(self, da, db):
        va = SparseVector.from_terms(da.items())
        vb = SparseVector.from_terms(db.items())
        s = va + vb
        d = va - vb
        keys = set(da) | set(db)
        for j in keys:
            a, b = da.get(j, 0.0), db.get(j, 0.0)
            # cancellation error scales with the operands, not the result
            tol = 1e-9 * max(abs(a), abs(b), 1.0)
            assert abs(s[j].to_real() - (a + b)) <= tol
            assert abs(d[j].to_real() - (a - b)) <= tol

    @given(st.dictionaries(st.integers(-50, 50), nonzero_reals,
                           min_size=1, max_size=8),
           nonzero_reals, st.integers(-10, 10))
    def test_scale_shift(self, d, c, off):
        v = SparseVector.from_terms(d.items())
        sc = v.scale(c)
        sh = oracles.shift_indices(v, off)
        for j, x in d.items():
            assert close(sc[j].to_real(), c * x, rel=1e-11)
            assert close(sh[j + off].to_real(), x)

    def test_eq_and_zero(self):
        a = SparseVector.from_terms([(1, 2.0), (3, -1.0)])
        b = SparseVector.from_terms([(3, -1.0), (1, 2.0)])
        assert a == b
        assert (a - b).is_zero()
        assert SparseVector.zero().is_zero()
