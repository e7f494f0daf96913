"""Mean Li-Yorke certificates: Cesaro averages, boundedness falsifiers."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos import catalog
from shiftchaos.dc_cert import WitnessTerm, single_term_pieces
from shiftchaos.piecewise import log_sum
from shiftchaos.sequences import BlockSideSequence, SplitSequence
from shiftchaos.numerics import LogScalar, SparseVector
from shiftchaos.shift import ShiftOperator, orbit_product_logs
from shiftchaos.spaces import IndexSet, lp_space, metric
from shiftchaos.weights import bilateral_weights, unilateral_weights
from shiftchaos.mly_cert import (
    anchor_equivalence_probe,
    basis_probes,
    cesaro_distance_series,
    check_acb,
    check_f3,
    check_kothe_mly,
    check_mly_condition_A,
    check_mly_condition_B,
    schedule_mly,
)

SEG = catalog.segment_end


class TestCesaroSeries:
    def test_terms_in_unit_interval(self, ex3_op):
        series = cesaro_distance_series(ex3_op, 0, 2000)
        cap = 1.0 - 2.0 ** (-ex3_op.space.metric_depth)
        assert np.all(series.terms >= 0.0)
        assert np.all(series.terms <= cap)
        assert np.all(series.averages >= 0.0)
        assert np.all(series.averages <= cap)

    def test_matches_stepwise_metric(self, ex3_op, ex4_op, halfweights_op):
        for op in (ex3_op, ex4_op, halfweights_op):
            brute = oracles.brute_cesaro_averages(op, 0, 300)
            series = cesaro_distance_series(op, 0, 300)
            for a, b in zip(brute, series.averages):
                assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("name", catalog.names())
    def test_terms_are_the_metric_of_the_orbit_point(self, name):
        # the series and spaces.metric share one level sum, so each term is
        # d(P(i, n) e_{i-n}, 0) bit for bit, with ln|P(i, n)| read off the
        # orbit's product slices; where the orbit has left N it reads 0
        op = catalog.build_example(name)
        zero = SparseVector.zero()
        for i in (-3, 0, 5, 40):
            if not op.space.index_set.contains(i):
                continue
            terms = cesaro_distance_series(op, i, 600).terms.tolist()
            logs = np.concatenate([logs for _, _, logs in orbit_product_logs(op, i, 1, 600)])
            for n, (term, log) in enumerate(zip(terms, logs.tolist()), 1):
                want = 0.0 if log == -math.inf else metric(
                    op.space, SparseVector({i - n: LogScalar(1, log)}), zero)
                assert term == want, (i, n)

    def test_average_drift_bounded(self, ex3_op):
        # terms live in [0, 1], so consecutive averages move by < 1/(n+1)
        series = cesaro_distance_series(ex3_op, 0, 1000)
        avg = series.averages
        for n in range(1, 1000):
            assert abs(avg[n] - avg[n - 1]) <= 1.0 / (n + 1) + 1e-15

    def test_rejects_bad_horizon(self, ex3_op):
        with pytest.raises(ValueError):
            cesaro_distance_series(ex3_op, 0, 0)


class TestConditionA:
    def test_ex4_dips(self, ex4_op):
        rep = check_mly_condition_A(ex4_op, 0, 10_000)
        assert rep.verdict == "condition-A-holds-at-horizon"
        assert rep.params["running_min"] < 1e-3

    def test_ex4_series_rows(self, ex4_op):
        rep = check_mly_condition_A(ex4_op, 0, 500, include_series=True)
        assert len(rep.rows) == 500
        assert set(rep.rows[0]) == {"n", "term", "prefix_average"}
        # backward products (1/2)^n: prefix averages sit below 2/N throughout
        for r in rep.rows:
            assert r["prefix_average"] <= 2.0 / r["n"]

    def test_ex3_refuted_frozen_minimum(self, ex3_op):
        rep = check_mly_condition_A(ex3_op, 0, 100_000, refute_floor=0.9,
                                    start=3)
        assert rep.verdict == "refuted-at-horizon"
        assert rep.params["running_min"] == pytest.approx(
            0.9836224216443645, rel=1e-12)
        assert rep.params["argmin_N"] == 42859
        assert rep.params["running_min"] > 0.9 > 0.05

    def test_ex3_brute_force_floor(self, ex3_op):
        # independent stepwise oracle over the exhaustible range
        brute = oracles.brute_cesaro_averages(ex3_op, 0, 3000)
        assert min(brute[2:]) > 0.9

    def test_rolewicz_anchor_dips_vs_interior(self, rolewicz_op):
        # anchor 1 annihilates instantly; a deep interior anchor never dips
        edge = check_mly_condition_A(rolewicz_op, 1, 1000)
        assert edge.verdict == "condition-A-holds-at-horizon"
        deep = check_mly_condition_A(rolewicz_op, 10 ** 6, 1000)
        assert deep.verdict == "inconclusive"
        refuted = check_mly_condition_A(rolewicz_op, 10 ** 6, 1000,
                                        refute_floor=0.9)
        assert refuted.verdict == "refuted-at-horizon"

    def test_start_validated(self, ex3_op):
        with pytest.raises(ValueError):
            check_mly_condition_A(ex3_op, 0, 100, start=101)

    @pytest.mark.parametrize("anchor", [0, -5])
    def test_anchor_off_the_domain_is_rejected(self, rolewicz_op, anchor):
        # e_0 is no basis vector of l2(N): the series of 0 read a running
        # minimum of 0.0 and condition (A) held
        with pytest.raises(ValueError, match=f"anchor {anchor} is outside the domain N"):
            check_mly_condition_A(rolewicz_op, anchor, 100)

    def test_probe_anchor_off_the_domain_is_rejected(self, rolewicz_op):
        with pytest.raises(ValueError, match="anchor 0 is outside the domain N"):
            anchor_equivalence_probe(rolewicz_op, [1, 0], 100)

    def test_anchor_agreement(self, ex4_op, rolewicz_op):
        rep = anchor_equivalence_probe(ex4_op, [0, -3, 5], 10_000)
        assert rep.verdict == "agrees"
        assert all(r["below"] for r in rep.rows)
        rep = anchor_equivalence_probe(rolewicz_op, [1, 10 ** 6], 500)
        assert rep.verdict == "mismatch"


class TestConditionB:
    def test_rolewicz_closed_form(self, rolewicz_op):
        # single witness far from the edge: average is (2^(N+1) - 2) / N
        sched = schedule_mly(1, [(k, k + 4, [(1000, 1.0)])
                                 for k in range(1, 7)])
        rep = check_mly_condition_B(rolewicz_op, sched)
        assert rep.verdict == "certified-at-horizon"
        for row in rep.rows:
            N, k = row["N_k"], row["k"]
            want = Fraction(2 ** (N + 1) - 2, N)
            assert math.isclose(row["average"].logmag,
                                math.log(want), rel_tol=1e-12)
            assert want >= k  # the exact non-strict bound behind "pass"
            assert row["pass"]

    def test_nonstrict_equality_passes(self, rolewicz_op):
        # single step from e_1000 gives average exactly 2 at level 2: ties pass
        sched = schedule_mly(1, [(2, 1, [(1000, 1.0)])])
        rep = check_mly_condition_B(rolewicz_op, sched)
        assert rep.rows[0]["average"].logmag == math.log(2.0)
        assert rep.rows[0]["pass"]

    def test_unweighted_fails_above_one(self, unweighted_op):
        sched = schedule_mly(1, [(2, 10, [(30, 1.0)]), (3, 20, [(30, 1.0)])])
        rep = check_mly_condition_B(unweighted_op, sched)
        assert rep.verdict == "condition-failed"
        assert [r["pass"] for r in rep.rows] == [False, False]

    def test_ex4_schedule_with_exact_oracle(self, ex4_op):
        sched = schedule_mly(1, [(k, SEG(k), [(SEG(k), 1.0)])
                                 for k in range(1, 7)])
        rep = check_mly_condition_B(ex4_op, sched, mode="pieces")
        assert rep.verdict == "certified-at-horizon"
        for row in rep.rows:
            k, N = row["k"], row["N_k"]
            exact = oracles.exact_run_average(ex4_op, SEG(k), N)
            assert exact >= k  # non-strict integer-side comparison
            assert math.isclose(row["average"].logmag, math.log(exact),
                                rel_tol=1e-10)

    def test_pieces_match_dense(self, ex4_op):
        sched = schedule_mly(1, [(2, SEG(2), [(SEG(2), 1.0)])])
        a = check_mly_condition_B(ex4_op, sched, mode="dense")
        b = check_mly_condition_B(ex4_op, sched, mode="pieces")
        assert math.isclose(a.rows[0]["average"].logmag,
                            b.rows[0]["average"].logmag, rel_tol=1e-12)

    def test_condition_a_notes(self, rolewicz_op, ex4_op):
        sched = schedule_mly(1, [(1, 5, [(1000, 1.0)])])
        rep = check_mly_condition_B(rolewicz_op, sched)
        assert any("one-sided" in n for n in rep.notes)
        sched = schedule_mly(1, [(1, SEG(2), [(SEG(2), 1.0)])])
        rep = check_mly_condition_B(ex4_op, sched, auto_a_horizon=5000)
        assert rep.verdict == "certified-at-horizon"
        assert any("condition (A)" in n for n in rep.notes)

    @settings(max_examples=200)
    @given(st.floats(min_value=-25, max_value=25).filter(
        lambda e: abs(e) > 1e-3),
        st.integers(1, 6), st.integers(5, 200))
    def test_scaling_invariance_of_averages(self, log10_c, k, N):
        # the average is a ratio: scaling the witness cannot move it
        op = catalog.build_example("rolewicz_lp_N")
        c = 10.0 ** log10_c
        base = schedule_mly(1, [(k, N, [(1000, 1.0)])])
        scaled = schedule_mly(1, [(k, N, [(1000, c)])])
        a = check_mly_condition_B(op, base).rows[0]["average"]
        b = check_mly_condition_B(op, scaled).rows[0]["average"]
        assert abs(a.logmag - b.logmag) < 1e-9


class TestKotheRoute:
    def test_matches_seminorm_route(self, ex4_op, rolewicz_op):
        for op, idx in ((ex4_op, SEG(4)), (rolewicz_op, 1000)):
            sched = schedule_mly(1, [(k, k + 7, [(idx, 1.0)])
                                     for k in range(1, 5)])
            a = check_mly_condition_B(op, sched)
            b = check_kothe_mly(op, sched)
            assert [r["pass"] for r in a.rows] == [r["pass"] for r in b.rows]
            for ra, rb in zip(a.rows, b.rows):
                assert math.isclose(ra["average"].logmag,
                                    rb["average"].logmag, rel_tol=1e-10)

    def test_sup_form_for_p0(self):
        op = catalog.build_example("rolewicz_lp_N", p=0)
        sched = schedule_mly(1, [(2, 8, [(1000, 1.0)])])
        a = check_mly_condition_B(op, sched)
        b = check_kothe_mly(op, sched)
        assert math.isclose(a.rows[0]["average"].logmag,
                            b.rows[0]["average"].logmag, rel_tol=1e-12)

    def test_multi_term_witness_agreement(self, rolewicz_op):
        sched = schedule_mly(
            1, [(2, 12, [(500, 1.0), (700, 2.0), (900, 0.25)])])
        a = check_mly_condition_B(rolewicz_op, sched)
        b = check_kothe_mly(rolewicz_op, sched)
        assert math.isclose(a.rows[0]["average"].logmag,
                            b.rows[0]["average"].logmag, rel_tol=1e-10)


class TestAcb:
    def test_rolewicz_falsified(self, rolewicz_op):
        rep = check_acb(rolewicz_op, basis_probes([1000], [20]))
        assert rep.verdict == "falsified-at-horizon"
        want = Fraction(2 ** 21 - 2, 20)
        for row in rep.rows:
            assert row["witnessed"]
            assert row["probe"] == "e[1000]"
            assert math.isclose(row["average"].logmag, math.log(want),
                                rel_tol=1e-12)
            assert row["norm"].logmag == pytest.approx(0.0, abs=1e-12)

    def test_unweighted_no_falsifier(self, unweighted_op):
        rep = check_acb(unweighted_op, basis_probes([50], [30]), C_grid=(1.0,))
        assert rep.verdict == "no-falsifier-found-at-horizon"
        row = rep.rows[0]
        assert not row["witnessed"]
        assert row["average"].is_zero() and row["norm"].is_zero()

    def test_ex4_hits_frozen_probes(self, ex4_op):
        ts = (1, 2, 3, 4, 5, 6, 21, 201)
        probes = basis_probes([SEG(t) for t in ts], [SEG(t) for t in ts])
        rep = check_acb(ex4_op, probes)
        assert rep.verdict == "falsified-at-horizon"
        by_c = {row["C"]: row for row in rep.rows}
        assert by_c[1.0]["probe"] == "e[12]"
        assert by_c[10.0]["probe"] == f"e[{SEG(21)}]"
        assert by_c[100.0]["probe"] == f"e[{SEG(201)}]"
        # the scan order is the probe order: each hit is the first exceeder
        assert by_c[10.0]["average"].logmag > math.log(10.0)
        assert by_c[100.0]["average"].logmag > math.log(100.0)

    def test_strictness(self, unweighted_op):
        # average exactly C * ||y|| must not witness
        rep = check_acb(unweighted_op, basis_probes([50], [30]), C_grid=(1.0,))
        assert not rep.rows[0]["witnessed"]

    def test_requires_banach_rows(self, ex2_op):
        with pytest.raises(ValueError):
            check_acb(ex2_op, basis_probes([10], [5]))

    def test_rejects_bad_probes(self, rolewicz_op):
        with pytest.raises(ValueError):
            check_acb(rolewicz_op, [])
        with pytest.raises(ValueError):
            check_acb(rolewicz_op, [("zero", 5, 0.0, 10)])
        with pytest.raises(ValueError):
            basis_probes([1, 2], [10])

    def test_rejects_an_empty_grid(self, rolewicz_op):
        # no C to falsify once read falsified-at-horizon, with no rows
        with pytest.raises(ValueError, match="need at least one C in C_grid"):
            check_acb(rolewicz_op, basis_probes([1000], [20]), C_grid=())


def _exact_log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _rounded_log(x: Fraction) -> float:
    """ln x to 50 digits, then rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(Decimal(x.numerator).ln() - Decimal(x.denominator).ln())


# weight and row values that survive LogScalar's exp(log(v)) round trip, so
# the stepwise oracle reads them exactly
_WEIGHT_VALUES = [0.5, 1.0, 2.0, -1.0, -2.0, 0.25, 1.5, -0.75]
_ROW_VALUES = [1.0, 2.0, 0.5, 4.0, 1.5]


def _layout(values):
    return st.lists(st.tuples(st.sampled_from(values), st.integers(1, 6)),
                    min_size=1, max_size=4)


def _side(runs, origin, direction):
    return BlockSideSequence(lambda n: runs, origin, direction)


class TestRunOracle:
    def test_matches_stepwise_oracle_on_ex4(self, ex4_op):
        for t in (1, 2, 3, 4):
            assert (oracles.exact_run_average(ex4_op, SEG(t), SEG(t))
                    == oracles.exact_single_term_average(ex4_op, SEG(t), SEG(t)))

    @settings(max_examples=150)
    @given(_layout(_WEIGHT_VALUES), _layout(_WEIGHT_VALUES), _layout(_ROW_VALUES),
           _layout(_ROW_VALUES), st.booleans(), st.integers(-40, 40),
           st.integers(1, 120))
    def test_matches_stepwise_oracle_on_random_layouts(self, w_left, w_right, a_left,
                                                       a_right, bilateral, index, N):
        if bilateral:
            weights = bilateral_weights(_side(w_left, -1, -1), _side(w_right, 0, 1))
            nu = SplitSequence(_side(a_left, -1, -1), _side(a_right, 0, 1), split=0)
            space = lp_space(2, IndexSet.Z, nu=nu)
        else:
            weights = unilateral_weights(_side(w_right, 1, 1))
            space = lp_space(2, IndexSet.N, nu=_side(a_right, 1, 1))
            index = abs(index) + 1
        op = ShiftOperator(space, weights)
        assert (oracles.exact_run_average(op, index, N)
                == oracles.exact_single_term_average(op, index, N))

    def test_rejects_long_non_unit_runs(self, halfweights_op):
        assert oracles.exact_run_average(halfweights_op, 0, 1000) > 0
        with pytest.raises(ValueError, match="too long"):
            oracles.exact_run_average(halfweights_op, 0, 10 ** 6)

    @pytest.mark.parametrize("t", [8, 10, 11, 13, 15])
    def test_piece_route_log_sum_within_two_ulps(self, ex4_op, t):
        # the piece route, taken even where the count form applies, against
        # ln of the exact sum over n <= N of P(N, n) a(N - n, 1)
        N = SEG(t)
        got = log_sum(single_term_pieces(ex4_op, WitnessTerm.of(N, 1.0), 1, N))
        want = _rounded_log(oracles.exact_run_average(ex4_op, N, N) * N)
        assert abs(got - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("t", [21, 201])
    def test_ex4_acb_probe_average_exact(self, ex4_op, t):
        # ln of the average is ln(sum) - ln N with both near 2.3 * t: the
        # bound is absolute, a few ulps of ln(sum)
        N = SEG(t)
        rep = check_acb(ex4_op, basis_probes([N], [N]), C_grid=(1.0,))
        exact = oracles.exact_run_average(ex4_op, N, N)
        assert math.isclose(rep.rows[0]["average"].logmag, _exact_log(exact),
                            rel_tol=0, abs_tol=4 * math.ulp(_exact_log(exact * N)))


class TestF3:
    def ex4_probes(self):
        ts = (1, 2, 3, 4, 5, 6, 21, 201)
        return basis_probes([SEG(t) for t in ts], [SEG(t) for t in ts])

    def test_ex4_certified(self, ex4_op):
        rep = check_f3(ex4_op, 100_000, self.ex4_probes())
        assert rep.verdict == "certified-at-horizon"
        assert rep.params["acb_verdict"] == "falsified-at-horizon"
        part1 = rep.rows[0]
        assert part1["part"] == "product-average-liminf"
        assert part1["ok"]
        assert part1["running_min"] < 1e-3

    def test_halfweights_not_certified(self, halfweights_op):
        # products vanish (part 1 passes) but boundedness holds (part 2 fails)
        rep = check_f3(halfweights_op, 10_000,
                       basis_probes([0], [50]), C_grid=(1.0,))
        assert rep.verdict == "not-certified-at-horizon"
        assert rep.rows[0]["ok"]
        assert rep.params["acb_verdict"] == "no-falsifier-found-at-horizon"

    def test_domain_guards(self, rolewicz_op, ex1_op):
        with pytest.raises(ValueError):
            check_f3(rolewicz_op, 100, basis_probes([5], [5]))
        with pytest.raises(ValueError):
            check_f3(ex1_op, 100, basis_probes([5], [5]))

    def test_ex4_probes_walk_no_orbit(self, monkeypatch):
        # the ex4 probes lie right of the origin, where every weight is 1:
        # acb and f3 read each probe's count form and never walk its orbit
        # cell by cell; a level in explicit mode "dense" still does.  Every
        # dense orbit walk runs through orbit_product_logs, f3's bare
        # product averages at anchor 0 included
        from shiftchaos import mly_cert, shift
        real, walked = shift.orbit_product_logs, []

        def counted(op, i, *args, **kwargs):
            walked.append(i)
            return real(op, i, *args, **kwargs)

        for module in (shift, mly_cert):
            monkeypatch.setattr(module, "orbit_product_logs", counted)
        op = catalog.build_example("ex4_lp_mly_not_hc")
        kinds = []
        for cfg in catalog.get("ex4_lp_mly_not_hc").config["checks"]:
            if cfg["kind"] in ("acb", "f3"):
                walked.clear()
                assert catalog.run_check(op, cfg).verdict == cfg["expect"]
                assert walked == ([0] if cfg["kind"] == "f3" else []), cfg["kind"]
                kinds.append(cfg["kind"])
        assert sorted(kinds) == ["acb", "f3"]
        walked.clear()
        sched = schedule_mly(1, [(1, SEG(2), [(SEG(2), 1.0)])])
        check_mly_condition_B(op, sched, mode="dense", auto_a_horizon=0)
        assert walked == [SEG(2)]

    def test_liminf_tracks_products(self, ex4_op):
        # raw product averages: (1/N) sum 2^-n <= 2/N, checked directly
        from shiftchaos.weights import product
        vals = [abs(product(ex4_op.weights, 0, n).to_real())
                for n in range(1, 201)]
        running = np.cumsum(vals) / np.arange(1, 201)
        assert np.all(running <= 2.0 / np.arange(1, 201))
