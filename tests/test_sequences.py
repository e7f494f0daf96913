"""Block-template sequences: frozen layouts and run-length consistency."""

from __future__ import annotations

from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftchaos import sequences
from shiftchaos.catalog import segment_end
from shiftchaos.sequences import (
    BlockSideSequence,
    ClosedFormSequence,
    ConstantSequence,
    Run,
    SplitSequence,
    alternating_powers,
    constant,
    ramp_plateau,
    side_from_template,
    twos_halves_ones,
)

# Frozen scan-order layouts for the leftward-stacked weight sides (origin -1,
# direction -1).  w[t] below is the value at index -(t+1).
EX1_LEFT_WEIGHTS = [2, 0.5, 0.5, 0.5, 2, 2, 2, 2, 2, 0.5, 0.5, 0.5]
EX1_BACK_PRODUCTS = [2, 1, 0.5, 0.25, 0.5, 1, 2, 4, 8, 4, 2, 1]
EX3_LEFT_WEIGHTS = [1, 0.5, 2, 1, 1, 1, 1, 0.5, 0.5, 2, 2, 1, 1, 1]
EX3_BACK_PRODUCTS = [1, 0.5, 1, 1, 1, 1, 1, 0.5, 0.25, 0.5, 1, 1, 1, 1]
# ramp_plateau(10), rightward from 1: segment n = ramp 1..n, plateau
# (n+1) x 10^n, ramp n..1
RAMP_VALUES_1_TO_16 = [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 2, 3, 3]


def windows(lo=-400, hi=400, span=80):
    return st.tuples(st.integers(lo, hi), st.integers(1, span)).map(
        lambda t: (t[0], t[0] + t[1] - 1))


def eval_naive(seq, lo, hi):
    return [seq.value_at(j) for j in range(lo, hi + 1)]


class TestRun:
    def test_count(self):
        assert Run(3, 7, 1.0).count == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Run(5, 4, 1.0)


class TestConstantAndClosedForm:
    def test_constant(self):
        c = ConstantSequence(2.5)
        assert c.value_at(-7) == 2.5
        assert c.runs_over(-3, 4) == [Run(-3, 4, 2.5)]
        assert c.value_counts(-3, 4) == {2.5: 8}
        assert c.value_counts(4, -3) == {}
        assert list(c.values_array(np.array([1, 9]))) == [2.5, 2.5]

    def test_closed_form(self):
        s = ClosedFormSequence(lambda j: float(abs(j) + 1))
        assert s.value_at(-3) == 4.0
        assert s.runs_over(0, 5) is None
        assert s.value_counts(0, 5) is None
        assert list(s.values_array(np.array([0, 2]))) == [1.0, 3.0]


class TestFrozenLayouts:
    def test_ex1_leftward_weights(self):
        side = BlockSideSequence(alternating_powers(2.0), origin=-1,
                                 direction=-1)
        got = [side.value_at(-(t + 1)) for t in range(12)]
        assert got == pytest.approx(EX1_LEFT_WEIGHTS)

    def test_ex1_backward_products(self):
        side = BlockSideSequence(alternating_powers(2.0), origin=-1,
                                 direction=-1)
        prod = 1.0
        for n, want in enumerate(EX1_BACK_PRODUCTS, start=1):
            prod *= side.value_at(-n)
            assert prod == pytest.approx(want)

    def test_ex1_block_ranges(self):
        side = BlockSideSequence(alternating_powers(2.0), origin=-1,
                                 direction=-1)
        assert [side.block_range(n) for n in range(1, 5)] == [
            (-2, -1), (-6, -3), (-12, -7), (-20, -13)]

    def test_ex3_leftward_weights(self):
        side = BlockSideSequence(twos_halves_ones(2.0), origin=-1,
                                 direction=-1)
        got = [side.value_at(-(t + 1)) for t in range(14)]
        assert got == pytest.approx(EX3_LEFT_WEIGHTS)
        prod = 1.0
        for n, want in enumerate(EX3_BACK_PRODUCTS, start=1):
            prod *= side.value_at(-n)
            assert prod == pytest.approx(want)

    def test_rightward_mirror(self):
        side = BlockSideSequence(alternating_powers(2.0), origin=1,
                                 direction=1)
        got = [side.value_at(t + 1) for t in range(12)]
        assert got == pytest.approx(EX1_LEFT_WEIGHTS)

    def test_ramp_plateau_values(self):
        side = BlockSideSequence(ramp_plateau(10), origin=1, direction=1)
        got = [side.value_at(j) for j in range(1, 17)]
        assert got == pytest.approx(RAMP_VALUES_1_TO_16)
        # segment boundaries: 2n ramp entries + 10^n plateau entries each
        assert [side.block_range(n) for n in range(1, 4)] == [
            (1, 12), (13, 116), (117, 1122)]
        # plateau interior of segment 3 holds the value 4
        assert side.value_at(200) == 4.0
        assert side.value_at(1119) == 4.0

    def test_block_cache_is_capped(self, monkeypatch):
        # 50 alternating blocks cover offsets 0 .. 2549; past them a query
        # raises (exit 3 at the CLI) instead of caching without bound
        monkeypatch.setattr(sequences, "MAX_CACHED_BLOCKS", 50)
        side = BlockSideSequence(alternating_powers(2.0), origin=-1, direction=-1)
        assert side.value_counts(-2550, -1) == {2.0: 1275, 0.5: 1275}
        with pytest.raises(ValueError, match="offset 2550 from origin -1 lies past the 50 "):
            side.value_at(-2551)
        assert len(side._block_runs) == 50

    def test_a_bad_block_raises_on_every_query(self):
        # runs are checked before they are cached, so a second query does
        # not read a run list one block ahead of the bounds
        side = BlockSideSequence(lambda n: [(float(n), 0 if n == 2 else 2)], 1, 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="nonpositive run count 0"):
                side.value_at(3)

    def test_runs_over_reads_no_block_past_its_range(self, monkeypatch):
        # the last of 50 cached blocks is offsets 2450 .. 2549 (index -2550)
        monkeypatch.setattr(sequences, "MAX_CACHED_BLOCKS", 50)
        side = BlockSideSequence(alternating_powers(2.0), origin=-1, direction=-1)
        assert side.runs_over(-2550, -2549) == [Run(-2550, -2549, 2.0)]
        side = BlockSideSequence(alternating_powers(2.0), origin=1, direction=1)
        side.runs_over(1, 2)
        assert list(side._block_runs) == [1]

    def test_blocks_adjoin(self):
        for direction in (-1, 1):
            side = BlockSideSequence(alternating_powers(2.0),
                                     origin=direction, direction=direction)
            for n in range(1, 8):
                a = side.block_range(n)
                b = side.block_range(n + 1)
                if direction == 1:
                    assert b[0] == a[1] + 1
                else:
                    assert b[1] == a[0] - 1


def side_cases():
    return st.sampled_from([
        ("alt-left", BlockSideSequence(alternating_powers(2.0), -1, -1)),
        ("alt-right", BlockSideSequence(alternating_powers(2.0), 1, 1)),
        ("tho-left", BlockSideSequence(twos_halves_ones(2.0), -1, -1)),
        ("ramp-right", BlockSideSequence(ramp_plateau(10), 1, 1)),
    ])


def side_window(side, offset: int, span: int) -> tuple[int, int]:
    """Window of `span` indices on the side's own half-line."""
    a = side.origin + side.direction * offset
    b = side.origin + side.direction * (offset + span - 1)
    return (a, b) if a <= b else (b, a)


offsets = st.tuples(st.integers(0, 400), st.integers(1, 80))


class TestRunsAgainstScalar:
    @given(side_cases(), offsets)
    def test_runs_match_value_at(self, case, off_span):
        _, side = case
        lo, hi = side_window(side, *off_span)
        assert list(np.repeat(*side.run_arrays(lo, hi))) == eval_naive(side, lo, hi)

    @given(side_cases(), offsets)
    def test_values_array_matches(self, case, off_span):
        _, side = case
        lo, hi = side_window(side, *off_span)
        js = np.arange(lo, hi + 1)
        assert list(side.values_array(js)) == eval_naive(side, lo, hi)

    @given(side_cases(), st.tuples(st.integers(0, 3000), st.integers(1, 3000)))
    def test_value_counts_match_value_at(self, case, off_span):
        # spans cross many blocks, so the prefix-count difference is exercised
        _, side = case
        lo, hi = side_window(side, *off_span)
        assert side.value_counts(lo, hi) == Counter(eval_naive(side, lo, hi))

    @given(side_cases(), offsets)
    def test_runs_are_sorted_and_cover(self, case, off_span):
        _, side = case
        lo, hi = side_window(side, *off_span)
        runs = side.runs_over(lo, hi)
        assert runs[0].start == lo and runs[-1].stop == hi
        for a, b in zip(runs, runs[1:]):
            assert b.start == a.stop + 1


class TestRampClosedForms:
    """ramp_plateau gives block sizes and value counts in closed form; the
    same runs served through a plain callable take the run path."""

    @staticmethod
    def pair(base, origin, direction):
        gen = ramp_plateau(base)
        return (BlockSideSequence(ramp_plateau(base), origin, direction),
                BlockSideSequence(lambda n: gen(n), origin, direction))

    @given(st.sampled_from([1, 2, 3, 10, 2.5]), st.sampled_from([1, -1]),
           st.integers(1, 60), st.integers(1, 60),
           st.integers(0, 2**256), st.integers(0, 2**256))
    def test_closed_forms_match_the_run_path(self, base, direction, s1, s2, u, v):
        fast, runs = self.pair(base, direction, direction)
        ends = []
        for s, pick in ((min(s1, s2), u), (max(s1, s2), v)):
            lo, hi = runs.block_range(s)
            ends.append(lo + pick % (hi - lo + 1))
        lo, hi = sorted(ends)
        # the closed-form side answers cold, before any other query
        got = fast.value_counts(lo, hi)
        assert list(got.items()) == list(runs.value_counts(lo, hi).items())
        assert fast.runs_over(lo, hi) == runs.runs_over(lo, hi)
        assert [fast.value_at(j) for j in (lo, hi)] == [runs.value_at(j) for j in (lo, hi)]
        assert [fast.block_range(s) for s in (s1, s2)] == [runs.block_range(s) for s in (s1, s2)]

    @pytest.mark.parametrize("base", [0, -1, "x"])
    def test_bad_plateau_bases_raise_as_the_runs_do(self, base):
        messages = []
        for side in self.pair(base, 1, 1):
            with pytest.raises((ValueError, TypeError)) as err:
                side.value_counts(1, 5)
            messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]
        if base != "x":
            assert messages[0] == (ValueError, f"nonpositive run count {base}")

    def test_counts_list_only_the_clipped_blocks(self):
        # the run path lists all 200 blocks; the closed forms only the two
        # end blocks of the span (here both ends fall in blocks 1 and 200)
        side = BlockSideSequence(ramp_plateau(10), 1, 1)
        side.value_counts(1, segment_end(200))
        assert len(side._block_runs) <= 2
        side = BlockSideSequence(ramp_plateau(10), 1, 1)
        assert side.value_at(segment_end(199) + 300) == 201.0
        assert len(side._block_runs) == 1


ARRAY_TEMPLATES = [alternating_powers, twos_halves_ones]
# 1 / (1 / 49) is not 49, and base 1 joins every run of a side into one
ARRAY_BASES = [2, 3, 0.5, 1.0, 49.0]


def _list_path(gen):
    """The same blocks through a plain callable: the per-block list path."""
    return lambda n: gen(n)


def _same_arrays(got, want):
    assert got[0].dtype == np.float64 and got[1].dtype == np.int64
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestBlockArrays:
    """alternating_powers and twos_halves_ones list blocks as arrays, with
    block sizes and value counts in closed form; the same blocks served
    through a plain callable take the per-block list path."""

    @staticmethod
    def pair(template, base, origin, direction):
        gen = template(base)
        return (BlockSideSequence(template(base), origin, direction),
                BlockSideSequence(_list_path(gen), origin, direction))

    @given(st.sampled_from(ARRAY_TEMPLATES), st.sampled_from(ARRAY_BASES),
           st.integers(1, 80), st.integers(1, 80))
    def test_closed_forms_match_the_runs(self, template, base, b0, b1):
        gen = template(base)
        b0, b1 = sorted((b0, b1))
        sizes = gen.block_sizes(b0, b1)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [sum(c for _, c in gen(n)) for n in range(b0, b1 + 1)]
        want = {}
        for n in range(1, b1 + 1):
            for v, c in gen(n):
                want[float(v)] = want.get(float(v), 0) + c
        assert list(gen.counts_through(b1).items()) == list(want.items())
        listed = [(float(v), c) for n in range(b0, b1 + 1) for v, c in gen(n)]
        _same_arrays(gen.block_arrays(b0, b1),
                     (np.array([v for v, _ in listed]), np.array([c for _, c in listed])))

    @given(st.sampled_from(ARRAY_TEMPLATES), st.sampled_from(ARRAY_BASES),
           st.sampled_from([1, -1]), st.integers(1, 70), st.integers(1, 70),
           st.integers(0, 10**6), st.integers(0, 10**6))
    def test_arrays_match_the_list_path(self, template, base, direction, s1, s2, u, v):
        # ends anywhere in two blocks, so spans cross block ends, and from
        # the origin (the first cell of block 1) when u picks it
        fast, runs = self.pair(template, base, direction, direction)
        ends = []
        for s, pick in ((min(s1, s2), u), (max(s1, s2), v)):
            lo, hi = runs.block_range(s)
            ends.append(lo + pick % (hi - lo + 1))
        lo, hi = sorted(ends)
        # the array side answers cold, before any other query
        _same_arrays(fast.run_arrays(lo, hi), runs.run_arrays(lo, hi))
        got = fast.runs_over(lo, hi)
        assert got == runs.runs_over(lo, hi)
        assert all(type(r.count) is int for r in got)
        assert list(fast.value_counts(lo, hi).items()) == list(runs.value_counts(lo, hi).items())
        assert [fast.value_at(j) for j in (lo, hi)] == [runs.value_at(j) for j in (lo, hi)]
        assert [fast.block_range(s) for s in (s1, s2)] == [runs.block_range(s) for s in (s1, s2)]
        js = np.arange(lo, hi + 1)
        assert fast.values_array(js).tobytes() == runs.values_array(js).tobytes()

    @given(st.sampled_from(ARRAY_TEMPLATES), st.sampled_from(ARRAY_TEMPLATES),
           st.sampled_from(ARRAY_BASES), st.integers(1, 3000), st.integers(0, 3000))
    def test_split_arrays_match_the_list_path(self, left, right, base, back, ahead):
        # spans cross the split at 0: equal runs meeting there are joined
        def split(arrays):
            make = (lambda t: t(base)) if arrays else (lambda t: _list_path(t(base)))
            return SplitSequence(BlockSideSequence(make(left), -1, -1),
                                 BlockSideSequence(make(right), 0, 1), split=0)

        fast, runs = split(True), split(False)
        lo, hi = -back, ahead
        # the reference: the values index by index, equal neighbours grouped
        grouped = [(v, len(list(g))) for v, g in groupby(eval_naive(runs, lo, hi))]
        want = (np.array([v for v, _ in grouped]), np.array([c for _, c in grouped], np.int64))
        _same_arrays(fast.run_arrays(lo, hi), want)
        _same_arrays(runs.run_arrays(lo, hi), want)
        assert fast.runs_over(lo, hi) == runs.runs_over(lo, hi)
        assert sequences.run_arrays(fast, lo, hi)[1] is not None

    @pytest.mark.parametrize("template", ARRAY_TEMPLATES)
    def test_a_query_past_the_run_cap_raises_on_both_paths(self, monkeypatch, template):
        monkeypatch.setattr(sequences, "MAX_RUNS_PER_QUERY", 10)
        for side in self.pair(template, 2.0, 1, 1):
            assert len(side.runs_over(1, 20)) <= 10
            with pytest.raises(RuntimeError, match="run query exploded"):
                side.runs_over(1, 2000)
        with pytest.raises(RuntimeError, match="run query exploded"):
            self.pair(template, 2.0, 1, 1)[0].run_arrays(1, 2000)


def _bounds_one_at_a_time(gen, offset: int, cap: int) -> tuple[list[int], bool]:
    """Block bounds grown block by block from the runs until they cover
    offset, and whether the cap on cached blocks stopped them first."""
    bounds = [0]
    while bounds[-1] <= offset:
        if len(bounds) > cap:
            return bounds, True
        bounds.append(bounds[-1] + sum(c for _, c in gen(len(bounds))))
    return bounds, False


BOUND_LAYOUTS = [(alternating_powers, 2.0), (alternating_powers, 3), (twos_halves_ones, 2.0),
                 (twos_halves_ones, 49.0), (ramp_plateau, 10), (ramp_plateau, 2)]


# offsets at and around block ends, backwards and forwards, out to where
# every cap below stops the block layouts (ramp_plateau's reach 10**30 in
# 30 blocks)
BOUND_QUERIES = [0, 1, 2, 5, 3, 64, 65, 66, 200, 131, 2549, 2550, 2551, 10**4, 10**5,
                 7, 2 * 10**5, 10**6, 10**9, 10**30]


@pytest.mark.parametrize("list_path", [False, True])
@pytest.mark.parametrize("template, base", BOUND_LAYOUTS)
@pytest.mark.parametrize("cap", [1, 50, 700, 3000])
def test_batched_bounds_are_the_one_at_a_time_bounds(monkeypatch, template, base,
                                                     list_path, cap):
    # block_sizes grows the bounds in batches cut at the first block past
    # the offset; each query leaves the bounds the block-by-block growth
    # leaves, and past the cap both stop at the same block with one error
    monkeypatch.setattr(sequences, "MAX_CACHED_BLOCKS", cap)
    gen = template(base)
    side = BlockSideSequence(_list_path(gen) if list_path else template(base), 1, 1)
    reach = 0
    for off in BOUND_QUERIES:
        reach = max(reach, off)
        want, capped = _bounds_one_at_a_time(gen, reach, cap)
        if capped:
            with pytest.raises(ValueError, match=f"offset {off} from origin 1 lies "
                                                 f"past the {cap} blocks"):
                side.value_at(1 + off)
            assert side._bounds == want
            return
        side.value_at(1 + off)
        assert side._bounds == want
        assert all(type(b) is int for b in side._bounds)


class TestSplitSequence:
    def split(self):
        return SplitSequence(constant(0.5), BlockSideSequence(
            ramp_plateau(10), 1, 1), split=1)

    def test_routing(self):
        s = self.split()
        assert s.value_at(0) == 0.5
        assert s.value_at(-100) == 0.5
        assert s.value_at(1) == 1.0
        assert s.value_at(2) == 2.0

    @given(windows(lo=-60, hi=60, span=50))
    def test_runs_stitch_across_split(self, win):
        s = self.split()
        lo, hi = win
        assert list(np.repeat(*s.run_arrays(lo, hi))) == eval_naive(s, lo, hi)
        js = np.arange(lo, hi + 1)
        assert list(s.values_array(js)) == eval_naive(s, lo, hi)
        assert s.value_counts(lo, hi) == Counter(eval_naive(s, lo, hi))

    def test_value_counts_need_runs_on_both_sides(self):
        s = SplitSequence(ClosedFormSequence(lambda j: 2.0), constant(0.5), split=0)
        assert s.value_counts(1, 5) == {0.5: 5}
        assert s.value_counts(-1, 5) is None


class TestSpansPastInt64:
    """A run query over 2**63 indices or more keeps its counts as Python
    ints (dtype object), exact, in every access path."""

    CASES = {
        "constant": (ConstantSequence(2.0), 0, 10**30),
        "split-equal": (SplitSequence(constant(2.0), constant(2.0)), -10**30, 10**30),
        "split-unequal": (SplitSequence(constant(2.0), constant(0.5)), -10**30, 10**30),
        "ramp-right": (BlockSideSequence(ramp_plateau(10), 1, 1), 1, segment_end(25)),
        "ramp-left": (BlockSideSequence(ramp_plateau(10), -1, -1), -segment_end(25), -1),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_counts_are_exact_python_ints(self, name):
        seq, lo, hi = self.CASES[name]
        values, counts = seq.run_arrays(lo, hi)
        assert counts.dtype == object
        counts = counts.tolist()
        assert all(type(c) is int for c in counts)
        assert sum(counts) == hi - lo + 1
        assert all(a != b for a, b in zip(values, values[1:]))
        runs = seq.runs_over(lo, hi)
        assert [(r.value, r.count) for r in runs] == list(zip(values.tolist(), counts))
        assert runs[0].start == lo and runs[-1].stop == hi
        tally: dict[float, int] = {}
        for v, c in zip(values.tolist(), counts):
            tally[v] = tally.get(v, 0) + c
        assert tally == seq.value_counts(lo, hi)
        assert seq.run_arrays(lo, lo + 20)[1].dtype == np.int64  # a short span keeps int64


class TestTemplateFactory:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            side_from_template("no-such-template", {}, 1, 1)

    def test_constant_passthrough(self):
        s = side_from_template("constant", {"value": 3.0}, 1, 1)
        assert s.value_at(99) == 3.0

    def test_block_template(self):
        s = side_from_template("alternating_powers", {"base": 2.0}, -1, -1)
        assert s.value_at(-1) == 2.0
        assert s.value_at(-2) == 0.5
