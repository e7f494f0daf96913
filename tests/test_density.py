"""Index-set densities: closed-form counters vs brute counting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shiftchaos.catalog import expanding_product_blocks
from shiftchaos.density import (
    check_counter_agreement,
    density_envelope,
    evens,
    naturals,
    prefix_ratio,
)
from shiftchaos.sequences import BlockSideSequence, alternating_powers
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
        p = expanding_product_blocks()
        got = p.count_array(np.array([n], dtype=np.int64))
        assert int(got[0]) == p.count(n)

    def test_ratio_floor_exact(self):
        # 6 * count(N) > N for every N up to a million: ratio > 1/6 exactly
        p = expanding_product_blocks()
        ns = np.arange(1, 10**6 + 1, dtype=np.int64)
        counts = p.count_array(ns)
        assert np.all(6 * counts > ns)

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


class TestEnvelopeFromCounts:
    def test_callers_count_prefixes_once(self, monkeypatch):
        # the density check and DC condition (A) reuse their own prefix
        # counts for the envelope instead of counting 1..horizon again
        from dataclasses import replace

        from shiftchaos import catalog, dc_cert
        ref = expanding_product_blocks()
        calls = []

        def counted(ns):
            calls.append(ns.size)
            return ref.count_array(ns)

        once = replace(ref, count_array=counted)
        op = catalog.build_example("ex2_kothe_dc_not_hc")
        dc_cert.check_dc_condition_A(op, once, [1], 5000)
        assert calls == [5000]
        calls.clear()
        monkeypatch.setitem(catalog.PREDICATES, ref.name, lambda: once)
        rep = catalog.run_check(op, {"kind": "density", "set": ref.name,
                                     "horizon": 5000})
        assert calls == [5000]
        assert rep.rows[0]["min_ratio"] == density_envelope(ref, 5000).lower
