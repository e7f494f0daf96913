"""Index-set densities: closed-form counters vs brute counting."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos import catalog, dc_cert
from shiftchaos.catalog import expanding_product_blocks
from shiftchaos.density import (
    IndexPredicate,
    check_counter_agreement,
    check_density,
    density_envelope,
    evens,
    members_in,
    naturals,
    prefix_ratio,
    run_columns,
)
from shiftchaos.sequences import BlockSideSequence, Run, alternating_powers
from shiftchaos.weights import bilateral_weights
from shiftchaos.sequences import ConstantSequence


class TestBuiltins:
    def test_naturals(self):
        p = naturals()
        assert p.prefix_count(10) == 10
        assert prefix_ratio(p, 7) == 1.0
        assert check_counter_agreement(p, 500)

    def test_evens(self):
        p = evens()
        assert p.prefix_count(10) == 5
        assert p.prefix_count(11) == 5
        assert prefix_ratio(p, 4) == 0.5
        assert check_counter_agreement(p, 500)

    def test_prefix_ratio_rejects_bad_n(self):
        with pytest.raises(ValueError):
            prefix_ratio(naturals(), 0)


class TestExpandingProductBlocks:
    """The density set behind the first counterexample's non-DC argument."""

    def test_block_membership(self):
        p = expanding_product_blocks()
        # block t occupies [t(t-1)+1, t(t+1)]; odd blocks belong
        assert [j for j in range(1, 31) if p.member(j)] == (
            list(range(1, 3)) + list(range(7, 13)) + list(range(21, 31)))
        assert not p.member(0)
        assert not p.member(-5)

    def test_counter_agrees_with_brute_force(self):
        p = expanding_product_blocks()
        brute = oracles.brute_prefix_counts(p.member, 10_000)
        for n in range(1, 10_001):
            assert p.count(n) == brute[n - 1]

    @settings(max_examples=200)
    @given(st.integers(1, 10**6))
    def test_count_array_matches_scalar(self, n):
        # the float-sqrt counter of the set's cell route in the tests
        p = expanding_product_blocks()
        got = oracles.expanding_blocks_count_array(np.array([n], dtype=np.int64))
        assert int(got[0]) == p.count(n)

    def test_ratio_floor_exact(self):
        # 6 * count(N) > N for every N up to a million: ratio > 1/6 exactly,
        # each count read off the run of run_columns' block holding N
        p = expanding_product_blocks()
        (a, b, at_a, member), = run_columns(p, 1, 10**6)
        ns = np.arange(1, 10**6 + 1, dtype=np.int64)
        t = np.searchsorted(b, ns)
        counts = at_a[t] + member[t] * (ns - a[t])
        assert counts.size == ns.size and np.all(6 * counts > ns)
        assert [int(counts[n - 1]) for n in (6, 12, 10**6)] == [p.count(n) for n in
                                                                 (6, 12, 10**6)]

    def test_density_floor_at_a_billion_without_a_counter(self):
        # read off the O(sqrt H) run ends: no vectorized counter, no cells
        p = expanding_product_blocks()
        assert p.count_array is None
        rep = check_density(None, p, 10**9)
        assert rep.verdict == "passes-at-horizon"
        assert (rep.rows[0]["min_ratio"], rep.rows[0]["min_ratio_at"]) == (1 / 3, 6)

    def test_envelope_minimum(self):
        p = expanding_product_blocks()
        env = density_envelope(p, 10**6)
        # worst prefix ratio 1/3, first attained where block 2 ends (N = 6)
        assert env.lower == pytest.approx(1 / 3)
        assert env.lower_at == 6
        assert env.upper == 1.0
        assert env.lower > 1 / 6

    def test_members_carry_large_backward_products(self):
        # on the first construction, membership marks exactly the n with
        # |P(0, n)| >= 1 inside odd blocks; check the implication brute-force
        p = expanding_product_blocks()
        side = BlockSideSequence(alternating_powers(2.0), -1, -1)
        w = bilateral_weights(side, ConstantSequence(2.0))
        prod = 1.0
        for n in range(1, 2001):
            prod *= side.value_at(-n)
            if p.member(n):
                assert prod >= 1.0


class TestBlocksUnionPredicate:
    def test_envelope_without_counter(self):
        from shiftchaos.density import IndexPredicate
        ref = expanding_product_blocks()
        bare = IndexPredicate(ref.member)  # no closed-form counter
        a = density_envelope(bare, 500)
        b = density_envelope(ref, 500)
        assert a == b

    def test_envelope_start_parameter(self):
        ref = expanding_product_blocks()
        env = density_envelope(ref, 100, start=7)
        assert env.lower_at >= 7
        with pytest.raises(ValueError):
            density_envelope(ref, 10, start=11)


def run_set(runs, tail: bool) -> IndexPredicate:
    """The set whose indicator runs, laid from 1, have the given
    (length, member) pairs, then one endless run of membership tail; with
    every counter, so its cell route can run as well."""
    starts = list(itertools.accumulate([1] + [length for length, _ in runs]))
    members = [m for _, m in runs] + [tail]
    before = list(itertools.accumulate(
        (length * m for length, m in runs), initial=0))
    ends = [b - 1 for b in starts[1:]]

    def at(n: int) -> int:
        return bisect.bisect_right(starts, n) - 1

    def count(n: int) -> int:
        i = at(n)
        return 0 if n < 1 else before[i] + members[i] * (n - starts[i] + 1)

    def count_array(ns: np.ndarray) -> np.ndarray:
        i = np.searchsorted(starts, ns, side="right") - 1
        return np.take(before, i) + np.take(members, i) * (ns - np.take(starts, i) + 1)

    def runs_of(lo: int, hi: int) -> list[Run]:
        lo = max(lo, 1)
        return [Run(max(starts[i], lo), min(ends[i] if i < len(ends) else hi, hi),
                    float(members[i])) for i in range(at(lo), at(hi) + 1)] if hi >= lo else []

    return IndexPredicate(lambda j: j >= 1 and members[at(j)], count=count,
                          count_array=count_array, runs=runs_of, name="runs")


class TestRunRoute:
    """Envelopes and density reports read off run ends equal the cell
    route's, the first N of a tie included."""

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(1, 40), st.booleans()), min_size=1, max_size=6),
           st.integers(1, 60), st.booleans(), st.integers(1, 10**5),
           st.tuples(st.integers(0, 5), st.integers(1, 6)), st.sampled_from([0, 6, 50]),
           st.integers(1, 40))
    # the ratio 1/3 at N = 3, 6, 9, ...: the least ratio ties in float across
    # runs, and 1 at N = 1, 2, 4, 5, ... ties the greatest
    @example([(1, True), (2, False)], 60, True, 10**5, (1, 3), 50, 1)
    @example([(2, True), (1, False)], 60, False, 999, (2, 3), 6, 5)
    def test_matches_the_cell_route(self, pattern, reps, tail, horizon, threshold,
                                    exhaustive_to, start):
        runs = run_set(pattern * reps, tail)
        cells = replace(runs, runs=None)
        want = check_density(None, cells, horizon, threshold, exhaustive_to)
        got = check_density(None, runs, horizon, threshold, exhaustive_to)
        assert got.to_json() == want.to_json()
        start = min(start, horizon)
        assert (density_envelope(runs, horizon, start)
                == density_envelope(cells, horizon, start))

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1, max_size=5),
           st.integers(1, 8), st.booleans(), st.booleans(), st.integers(1, 300),
           st.lists(st.integers(0, 301), max_size=12))
    def test_members_in_intervals_are_the_brute_counts(self, pattern, reps, tail, by_cell,
                                                      horizon, cuts):
        # sorted disjoint intervals of [1, horizon] against the set's own
        # runs, or every N a run of its own (one block per chunk of CHUNK)
        D = run_set(pattern * reps, tail)
        if by_cell:
            D = replace(D, runs=None)
        (block,) = run_columns(D, 1, horizon)
        edges = sorted({c for c in cuts if 1 <= c <= horizon + 1})
        starts, ends = np.array(edges[0::2], np.int64), np.array(edges[1::2], np.int64) - 1
        starts = starts[:ends.size]  # [s, e] holds a single N where e = s
        count, upto, last = members_in(block, starts, ends)
        mask = D.member_mask(horizon)
        for t, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            inside = np.flatnonzero(mask[s - 1:e]) + s
            assert count[t] == inside.size and upto[t] == mask[:e].sum(), (s, e)
            if inside.size:
                assert last[t] == inside[-1], (s, e)

    def test_strict_bound_is_exact_past_int64(self):
        # den * N passes 2**63 (int64 would wrap to False at 2 * 10**12),
        # and den itself passes it in the last two: the least ratio is 1/3
        # (at N = 3), one side or the other of num/den
        runs = run_set([(1, True), (2, False)], True)
        cells = replace(runs, runs=None)
        for num, den, above in ((10**12, 3 * 10**12 + 1, True), (10**12, 3 * 10**12 - 1, False),
                                (2**70, 3 * 2**70 + 1, True), (2**70, 3 * 2**70 - 1, False)):
            for D, horizon in ((runs, 2 * 10**12), (runs, 10**4), (cells, 10**4)):
                rep = check_density(None, D, horizon, (num, den))
                assert rep.rows[0]["strict_above_threshold"] is above, (num, den, horizon)

    def test_first_n_of_a_float_tie_inside_a_run(self):
        # past about 10**8 the ratios (N - 1) / N of a member run round to
        # the same float as the horizon's, and past 2**53 the ratios 1 / N
        # off one do too: the first such N is reported, as one argmax or
        # argmin over every cell would
        H = 3 * 10**8
        env = density_envelope(run_set([(1, False)], True), H)
        n = env.upper_at
        assert n < H and env.upper == (n - 1) / n == (H - 1) / H > (n - 2) / (n - 1)
        H = 10**17
        env = density_envelope(run_set([(1, True)], False), H)
        n = env.lower_at
        assert n < H and env.lower == 1 / n == 1 / H < 1 / (n - 1)
        assert (env.upper, env.upper_at) == (1.0, 1)


class TestEnvelopeFromCounts:
    def test_callers_count_prefixes_once(self, monkeypatch):
        # a set with runs is walked by its runs alone: condition (A) and
        # the density check call a vectorized counter it carries not at all
        ref = expanding_product_blocks()
        calls = []

        def counted(ns):
            calls.append(ns.size)
            return oracles.expanding_blocks_count_array(ns)

        once = replace(ref, count_array=counted)
        op = catalog.build_example("ex2_kothe_dc_not_hc")
        rep = dc_cert.check_dc_condition_A(op, once, [1], 5000)
        assert rep.to_json() == dc_cert.check_dc_condition_A(op, ref, [1], 5000).to_json()
        monkeypatch.setitem(catalog.PREDICATES, ref.name, lambda: once)
        rep = catalog.run_check(op, {"kind": "density", "set": ref.name,
                                     "horizon": 5000})
        assert calls == []
        assert rep.rows[0]["min_ratio"] == density_envelope(ref, 5000).lower


class TestMemberWalkBound:
    """A set with neither runs nor vectorized counter is walked member by
    member over the whole horizon at once, so only up to 200,000."""

    BARE = IndexPredicate(expanding_product_blocks().member, name="bare")
    MESSAGE = "set has no vectorized counter for a horizon this large"

    def test_every_walker_refuses_past_the_bound(self):
        op = catalog.build_example("ex2_kothe_dc_not_hc")
        for walk in (lambda h: check_density(None, self.BARE, h),
                     lambda h: density_envelope(self.BARE, h),
                     lambda h: dc_cert.check_dc_condition_A(op, self.BARE, [1], h)):
            with pytest.raises(ValueError, match=self.MESSAGE):
                walk(200_001)

    def test_the_bound_itself_is_walked(self):
        assert (density_envelope(self.BARE, 200_000)
                == density_envelope(expanding_product_blocks(), 200_000))

    def test_the_exhaustive_prefix_is_bounded_too(self):
        # the prefix is held whole: 10**6 indices took 9.5 s and 55 MiB
        with pytest.raises(ValueError, match="exhaustive_to .* at most 200000; got 200001"):
            check_density(None, expanding_product_blocks(), 10**6, exhaustive_to=200_001)
        rep = check_density(None, naturals(), 10**6, (1, 2), exhaustive_to=200_000)
        assert rep.params["exhaustive_to"] == 200_000
        assert rep.rows[0]["exhaustive_prefix_ok"] and rep.verdict == "passes-at-horizon"
