"""Index-to-value sequences backed by run-length-encoded blocks.

Both weight sequences and Kothe-matrix row bases are built from the same
machinery: a side is an infinite concatenation of finite blocks, each block a
short list of (value, count) runs, laid rightward from a start index or
leftward from an end index.  Block boundaries are cached prefix sums of the
block sizes, extended lazily.  A generator may give a block's size
(block_size, or block_sizes over a range of blocks) and the value counts
over blocks 1..n (counts_through) in closed form; a plain callable answers
both from its runs, so every block it reaches is listed once.  A generator
may also list blocks b0..b1 at once as numpy arrays (block_arrays) with
their sizes (block_sizes): alternating_powers and twos_halves_ones do.
Their bounds grow in batches of one np.cumsum, and a run query on their
side lists every block the side reaches into one table of arrays, so it
pays per run in numpy, not in Python.  The others (ramp_plateau, plain
callables) grow their bounds one block at a time and list a block's runs
only when a query clips it, with Python int counts, so blocks of size
10**200 stay exact.

A sequence exposes four access paths and every consumer picks the cheapest
one available:
  value_at(j)           single probe
  run_arrays(lo, hi)    (values, counts) of the maximal constant runs covering
                        [lo, hi] (None when the sequence has no run
                        structure); runs_over(lo, hi) is the same runs as a
                        list of Run, derived from it once in SequenceBase
                        through runs_of, which Kothe row runs share
  value_counts(lo, hi)  exact count of each distinct value on [lo, hi] (None
                        without run structure); block layouts serve it as a
                        difference of prefix counts, found in O(log blocks),
                        plus the runs of the two end blocks
  values_array(js)      probe at an index array: vectorized on a closed form,
                        one value_at per index elsewhere (sparse supports;
                        ranges read run_arrays)
and one cost query, block_count(lo, hi): the blocks [lo, hi] reaches, read
off the cached bounds (a constant is one block; None without run
structure), so a consumer can weigh one run read of a range against many
count reads inside it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

MAX_RUNS_PER_QUERY = 2_000_000
# blocks one side may cache (peak 13 MB with their bounds on the alternating
# layouts once a run query lists their runs into one run table); every
# catalog and benchmark check stays under about 5,000
MAX_CACHED_BLOCKS = 100_000


class RunQueryTooWide(RuntimeError):
    """A run query that would return more than MAX_RUNS_PER_QUERY runs."""


@dataclass(frozen=True)
class Run:
    """Constant stretch value on the inclusive index interval [start, stop]."""

    start: int
    stop: int
    value: float

    def __post_init__(self):
        if self.stop < self.start:
            raise ValueError(f"empty run [{self.start}, {self.stop}]")

    @property
    def count(self) -> int:
        return self.stop - self.start + 1


def _count_dtype(lo: int, hi: int):
    """Run counts over [lo, hi] are int64 while its length fits one, and
    Python ints (dtype object) from 2**63 indices on."""
    return np.int64 if hi - lo < 2**63 - 1 else object


def runs_of(values: np.ndarray, counts: np.ndarray, lo: int) -> list[Run]:
    """The runs (values, counts) laid end to end from index lo, as Runs."""
    runs, start = [], lo
    for value, count in zip(values.tolist(), counts.tolist()):
        runs.append(Run(start, start + count - 1, value))
        start += count
    return runs


class SequenceBase:
    """Duck-typed interface; subclasses override the access paths they serve.
    A sequence with run structure implements run_arrays, the one run query."""

    def value_at(self, j: int) -> float:
        raise NotImplementedError

    def run_arrays(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, counts) of the maximal runs over [lo, hi] in index order
        (empty arrays for an empty range), values float64 and counts of
        _count_dtype; None without run structure."""
        return None

    def runs_over(self, lo: int, hi: int) -> list[Run] | None:
        """The runs of run_arrays(lo, hi) as Runs; None without run structure."""
        arrays = self.run_arrays(lo, hi)
        return None if arrays is None else runs_of(*arrays, lo)

    def value_counts(self, lo: int, hi: int) -> dict[float, int] | None:
        return None

    def block_count(self, lo: int, hi: int) -> int | None:
        """Blocks that [lo, hi] reaches; None without run structure."""
        return None

    def values_array(self, js: np.ndarray) -> np.ndarray:
        return np.array([self.value_at(int(j)) for j in js], dtype=float)


_NO_RUNS = (np.zeros(0), np.zeros(0, np.int64))


class ConstantSequence(SequenceBase):
    def __init__(self, value: float):
        self.value = float(value)

    def value_at(self, j: int) -> float:
        return self.value

    def run_arrays(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        if hi < lo:
            return _NO_RUNS
        return np.array([self.value]), np.array([hi - lo + 1], _count_dtype(lo, hi))

    def value_counts(self, lo: int, hi: int) -> dict[float, int]:
        return {self.value: hi - lo + 1} if hi >= lo else {}

    def block_count(self, lo: int, hi: int) -> int:
        return 1 if hi >= lo else 0


class ClosedFormSequence(SequenceBase):
    """Arbitrary j -> value rule; vectorized form optional."""

    def __init__(self, fn: Callable[[int], float],
                 vectorized: Callable[[np.ndarray], np.ndarray] | None = None):
        self.fn = fn
        self.vectorized = vectorized

    def value_at(self, j: int) -> float:
        return float(self.fn(j))

    def values_array(self, js: np.ndarray) -> np.ndarray:
        if self.vectorized is not None:
            return np.asarray(self.vectorized(js), dtype=float)
        return super().values_array(js)


BlockGenerator = Callable[[int], list[tuple[float, int]]]


class _RunTable:
    """The runs of every block a side's bounds reach (bounds[n] = total
    count of blocks 1..n), for a generator with block_arrays: arrays in scan
    order of each run's value, count and first offset.  A run query lists
    the blocks the bounds added since the last one, in one block_arrays
    call, and the arrays double their capacity as they grow; single probes
    never list them.  Its length and iteration give the blocks reached, as
    the dict of listed blocks does on the list path."""

    def __init__(self, blocks, bounds: list[int]):
        self.blocks, self.bounds = blocks, bounds
        self.m = self.n = 0  # blocks and runs listed
        self._values = np.zeros(0)
        self._counts = np.zeros(0, np.int64)
        self._starts = np.zeros(0, np.int64)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self) + 1))

    def _list(self) -> None:
        """List every block the bounds reach."""
        m = len(self)
        if m <= self.m:
            return
        values, counts = self.blocks.block_arrays(self.m + 1, m)
        n = self.n + values.size
        if n > self._values.size:
            cap = max(n, 2 * self._values.size)
            self._values, self._counts, self._starts = (
                np.concatenate((a[:self.n], np.empty(cap - self.n, a.dtype)))
                for a in (self._values, self._counts, self._starts))
        self._values[self.n:n] = values
        self._counts[self.n:n] = counts
        self._starts[self.n:n] = self.bounds[self.m] + np.cumsum(counts) - counts
        self.m, self.n = m, n

    def span(self, off_lo: int, off_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, counts) of the runs over offsets [off_lo, off_hi] (inside
        the bounds), in scan order, the two end runs clipped."""
        self._list()
        starts = self._starts[:self.n]
        r0 = int(np.searchsorted(starts, off_lo, "right")) - 1
        r1 = int(np.searchsorted(starts, off_hi, "right"))
        edges = np.append(starts[r0:r1], off_hi + 1)
        edges[0] = off_lo
        return self._values[r0:r1], np.diff(edges)


class BlockSideSequence(SequenceBase):
    """One side of a block layout.

    blocks(n) for n = 1, 2, ... yields the n-th block as (value, count) runs
    in scan order along the stacking direction.  direction +1 stacks blocks
    rightward from `origin`; direction -1 stacks them leftward starting at
    `origin` (the first block's first run sits at `origin` and the block
    grows toward smaller indices).  When blocks also has block_size(n), or
    block_sizes(b0, b1) (the int64 sizes of blocks b0..b1, which grows the
    bounds in batches), and counts_through(n) ({value: count} over blocks
    1..n, keys in the order the runs first give them), sizes and
    whole-block counts come from those.  When it also has block_arrays(b0,
    b1) (the values, float64, and counts, int64, of the runs of blocks
    b0..b1 in scan order), run queries list every block the bounds reach
    with it into one _RunTable and are answered from that table in numpy; a
    single probe and the end blocks of a count read still list their block
    through blocks(n).
    """

    def __init__(self, blocks: BlockGenerator, origin: int, direction: int):
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        self.blocks = blocks
        self.origin = origin
        self.direction = direction
        self._size_of = getattr(blocks, "block_size", None)
        self._sizes_of = getattr(blocks, "block_sizes", None)
        self._counts_through = getattr(blocks, "counts_through", None)
        # _bounds[n] = total count of blocks 1..n (Python ints)
        self._bounds: list[int] = [0]
        # block n -> its runs, for every block a probe, a count read or a
        # run query without the table clipped (and every block reached when
        # blocks gives no block sizes)
        self._listed: dict[int, list[tuple[float, int]]] = {}
        # the blocks whose runs the side holds: with block_arrays, every block
        # the bounds reach, in the _RunTable that run queries read; else _listed
        self._arrays = hasattr(blocks, "block_arrays")
        self._block_runs = _RunTable(blocks, self._bounds) if self._arrays else self._listed
        # _counts[n] = {value: count} over blocks 1..n, built only on demand
        # when blocks gives no counts_through
        self._counts: list[dict[float, int]] = [{}]

    def _runs(self, n: int) -> list[tuple[float, int]]:
        """Runs of block n (1-based), listed once."""
        runs = self._listed.get(n)
        if runs is None:
            runs = [(float(v), int(c)) for v, c in self.blocks(n)]
            if not runs:
                raise ValueError(f"block {n} is empty")
            for _, count in runs:
                if count <= 0:
                    raise ValueError(f"nonpositive run count {count}")
            self._listed[n] = runs
        return runs

    def _block_size(self, n: int) -> int:
        if self._size_of is not None:
            return self._size_of(n)
        return sum(count for _, count in self._runs(n))

    def _extend_to_offset(self, offset: int) -> None:
        """Grow cached prefix sums until they cover 0-based offset `offset`,
        up to the first block that reaches past it.  With block_sizes the
        sizes come in batches of blocks (more than twice the blocks cached),
        each one np.cumsum cut at that block; else one block at a time."""
        bounds = self._bounds
        while bounds[-1] <= offset:
            n = len(bounds)
            if n > MAX_CACHED_BLOCKS:
                raise ValueError(f"offset {offset} from origin {self.origin} lies past the "
                                 f"{MAX_CACHED_BLOCKS} blocks a layout side caches")
            if self._sizes_of is None:
                bounds.append(bounds[-1] + self._block_size(n))
                continue
            sizes = self._sizes_of(n, min(2 * n + 64, MAX_CACHED_BLOCKS))
            ends = bounds[-1] + np.cumsum(sizes)
            if offset < int(ends[-1]):
                ends = ends[:int(np.searchsorted(ends, offset, "right")) + 1]
            bounds.extend(ends.tolist())

    def _offset_of(self, j: int) -> int:
        """Distance from origin measured along the stacking direction."""
        off = (j - self.origin) * self.direction
        if off < 0:
            raise IndexError(f"index {j} is on the wrong side of origin {self.origin}")
        return off

    def block_range(self, n: int) -> tuple[int, int]:
        """Inclusive index interval occupied by block n (1-based)."""
        if n < 1:
            raise ValueError("block numbers start at 1")
        self._extend_to_offset(0)
        while len(self._bounds) <= n:
            self._extend_to_offset(self._bounds[-1])
        first_off, last_off = self._bounds[n - 1], self._bounds[n] - 1
        if self.direction == 1:
            return self.origin + first_off, self.origin + last_off
        return self.origin - last_off, self.origin - first_off

    def _value_at_offset(self, off: int) -> float:
        self._extend_to_offset(off)
        n = bisect.bisect_right(self._bounds, off)
        rel = off - self._bounds[n - 1]
        for value, count in self._runs(n):
            if rel < count:
                return value
            rel -= count
        raise AssertionError("offset fell off the end of its block")

    def value_at(self, j: int) -> float:
        return self._value_at_offset(self._offset_of(j))

    def _offset_span(self, lo: int, hi: int) -> tuple[int, int]:
        """Offsets of [lo, hi] in increasing order, with blocks cached to cover them."""
        # for leftward sides the offset order reverses
        if self.direction == 1:
            off_lo, off_hi = self._offset_of(lo), self._offset_of(hi)
        else:
            off_lo, off_hi = self._offset_of(hi), self._offset_of(lo)
        self._extend_to_offset(off_hi)
        return off_lo, off_hi

    def _prefix_counts(self, n: int) -> dict[float, int]:
        """{value: count} over blocks 1..n (their bounds must be cached)."""
        if self._counts_through is not None:
            return self._counts_through(n)
        while len(self._counts) <= n:
            acc = dict(self._counts[-1])
            for value, count in self._runs(len(self._counts)):
                acc[value] = acc.get(value, 0) + count
            self._counts.append(acc)
        return self._counts[n]

    def _add_block_counts(self, acc: dict[float, int], b: int,
                          off_lo: int, off_hi: int) -> None:
        """Add the counts of 0-based block b clipped to offsets [off_lo, off_hi]."""
        cursor = self._bounds[b]
        for value, count in self._runs(b + 1):
            a, z = max(cursor, off_lo), min(cursor + count - 1, off_hi)
            cursor += count
            if a <= z:
                acc[value] = acc.get(value, 0) + (z - a + 1)

    def value_counts(self, lo: int, hi: int) -> dict[float, int]:
        if hi < lo:
            return {}
        off_lo, off_hi = self._offset_span(lo, hi)
        b_lo = bisect.bisect_right(self._bounds, off_lo) - 1
        b_hi = bisect.bisect_right(self._bounds, off_hi) - 1
        out: dict[float, int] = {}
        self._add_block_counts(out, b_lo, off_lo, off_hi)
        if b_hi == b_lo:
            return out
        # whole blocks b_lo+1 .. b_hi-1 (0-based) from a prefix difference
        before, through = self._prefix_counts(b_lo + 1), self._prefix_counts(b_hi)
        for value, count in through.items():
            count -= before.get(value, 0)
            if count:
                out[value] = out.get(value, 0) + count
        self._add_block_counts(out, b_hi, off_lo, off_hi)
        return out

    def block_count(self, lo: int, hi: int) -> int:
        if hi < lo:
            return 0
        off_lo, off_hi = self._offset_span(lo, hi)
        return (bisect.bisect_right(self._bounds, off_hi)
                - bisect.bisect_right(self._bounds, off_lo) + 1)

    def run_arrays(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The runs over the span in scan order, the two end runs clipped
        (from the run table, or from the blocks they reach listed one by
        one), then equal neighbours joined and reversed on a leftward side."""
        if hi < lo:
            return _NO_RUNS
        off_lo, off_hi = self._offset_span(lo, hi)
        if self._arrays:
            values, counts = self._block_runs.span(off_lo, off_hi)
        else:
            runs: list[tuple[float, int]] = []
            b = bisect.bisect_right(self._bounds, off_lo) - 1
            cursor = self._bounds[b]
            while cursor <= off_hi:
                b += 1
                for value, count in self._runs(b):
                    a, z = max(cursor, off_lo), min(cursor + count - 1, off_hi)
                    cursor += count
                    if a <= z:
                        runs.append((value, z - a + 1))
                if len(runs) > MAX_RUNS_PER_QUERY:
                    raise RunQueryTooWide("run query exploded; range too wide for this layout")
            values = np.array([v for v, _ in runs])
            counts = np.array([c for _, c in runs], _count_dtype(lo, hi))
        keep = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        if keep.size > MAX_RUNS_PER_QUERY:
            raise RunQueryTooWide("run query exploded; range too wide for this layout")
        values, counts = values[keep], np.add.reduceat(counts, keep)
        if self.direction == 1:
            return values, counts
        return values[::-1], counts[::-1]

    # the Run view of run_arrays, named in this class body too so that it can
    # be wrapped on the class (perfbench/tracer.py looks it up in __dict__)
    runs_over = SequenceBase.runs_over


def run_arrays(seq: SequenceBase, lo: int,
               hi: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(values, counts) of the runs covering [lo, hi] from seq.run_arrays,
    so per-value work is done once per run; (one value per index, None)
    from one values_array when the sequence has no run structure."""
    arrays = seq.run_arrays(lo, hi)
    if arrays is None:
        return seq.values_array(np.arange(lo, hi + 1)), None
    return arrays


class SplitSequence(SequenceBase):
    """Two-sided sequence: `negative` serves j <= split-1, `nonnegative` j >= split."""

    def __init__(self, negative: SequenceBase, nonnegative: SequenceBase, split: int = 0):
        self.negative = negative
        self.nonnegative = nonnegative
        self.split = split

    def value_at(self, j: int) -> float:
        return self.nonnegative.value_at(j) if j >= self.split else self.negative.value_at(j)

    def run_arrays(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray] | None:
        if hi < lo:
            return _NO_RUNS
        parts = []
        if lo < self.split:
            parts.append(self.negative.run_arrays(lo, min(hi, self.split - 1)))
            if parts[-1] is None:
                return None
        if hi >= self.split:
            parts.append(self.nonnegative.run_arrays(max(lo, self.split), hi))
            if parts[-1] is None:
                return None
        if len(parts) == 1:
            return parts[0]
        if _count_dtype(lo, hi) is object:  # a joined run past 2**63 stays exact
            parts = [(v, c.astype(object)) for v, c in parts]
        (lv, lc), (rv, rc) = parts
        if lv[-1] == rv[0]:  # equal runs meet at the split: one run
            lc = np.append(lc[:-1], lc[-1] + rc[0])
            rv, rc = rv[1:], rc[1:]
        return np.concatenate((lv, rv)), np.concatenate((lc, rc))

    def value_counts(self, lo: int, hi: int) -> dict[float, int] | None:
        if hi < lo:
            return {}
        out: dict[float, int] = {}
        if lo < self.split:
            left = self.negative.value_counts(lo, min(hi, self.split - 1))
            if left is None:
                return None
            out.update(left)
        if hi >= self.split:
            right = self.nonnegative.value_counts(max(lo, self.split), hi)
            if right is None:
                return None
            for value, count in right.items():
                out[value] = out.get(value, 0) + count
        return out

    def block_count(self, lo: int, hi: int) -> int | None:
        sides = []
        if lo < self.split:
            sides.append(self.negative.block_count(lo, min(hi, self.split - 1)))
        if hi >= self.split:
            sides.append(self.nonnegative.block_count(max(lo, self.split), hi))
        return None if None in sides else sum(sides)


# ---------------------------------------------------------------------------
# block generator templates (names are part of the CLI config surface)


def constant(value: float) -> ConstantSequence:
    return ConstantSequence(value)


def _tally(runs) -> dict[float, int]:
    """{value: count} over (value, count) pairs, keys in first-seen order
    (as the runs of blocks 1..n first give them), zero counts left out."""
    out: dict[float, int] = {}
    for value, count in runs:
        if count:
            out[value] = out.get(value, 0) + count
    return out


class _AlternatingPowers:
    """alternating_powers' generator, with block sizes, value counts and
    block runs in closed form.  Its values are base, 1.0 / base and
    1.0 / (1.0 / base), the floats the runs carry (the last need not be
    base)."""

    def __init__(self, base):
        self.base = base

    def __call__(self, n: int) -> list[tuple[float, int]]:
        up = self.base if n % 2 == 1 else 1.0 / self.base
        return [(up, n), (1.0 / up, n)]

    def _values(self) -> tuple[float, float, float]:
        down = 1.0 / self.base
        return float(self.base), down, 1.0 / down

    def block_sizes(self, b0: int, b1: int) -> np.ndarray:
        return 2 * np.arange(b0, b1 + 1, dtype=np.int64)

    def counts_through(self, n: int) -> dict[float, int]:
        """Odd blocks m <= n give m of base then m of 1 / base, odd^2 in
        all; even blocks m of 1 / base then m of 1 / (1 / base),
        even * (even + 1) in all."""
        up, down, back = self._values()
        odd, even = (n + 1) // 2, n // 2
        return _tally(((up, odd * odd), (down, odd * odd),
                       (down, even * (even + 1)), (back, even * (even + 1))))

    def block_arrays(self, b0: int, b1: int) -> tuple[np.ndarray, np.ndarray]:
        up, down, back = self._values()
        n = np.arange(b0, b1 + 1, dtype=np.int64)
        odd = n % 2 == 1
        values = np.stack((np.where(odd, up, down), np.where(odd, down, back)), axis=1)
        return values.ravel(), np.repeat(n, 2)


def alternating_powers(base: float = 2.0) -> BlockGenerator:
    """Block n (scan order): n copies of one power of `base`, then n of its
    inverse, the leading power alternating with the block parity.

    Cumulative products along the scan rise then fall back to 1 on odd
    blocks, dip then recover on even blocks.
    """
    return _AlternatingPowers(base)


class _TwosHalvesOnes:
    """twos_halves_ones' generator, with block sizes, value counts and block
    runs in closed form."""

    def __init__(self, base):
        self.base = base

    def __call__(self, n: int) -> list[tuple[float, int]]:
        if n % 2 == 1:
            t = (n + 1) // 2
            return [(1.0, t * t)]
        t = n // 2
        return [(1.0 / self.base, t), (self.base, t)]

    def block_sizes(self, b0: int, b1: int) -> np.ndarray:
        n = np.arange(b0, b1 + 1, dtype=np.int64)
        t = (n + 1) // 2
        return np.where(n % 2 == 1, t * t, n)

    def counts_through(self, n: int) -> dict[float, int]:
        """Blocks 2t - 1 <= n give t^2 ones; blocks 2t <= n give t of 1 / base then t of base."""
        odd, even = (n + 1) // 2, n // 2
        halves = even * (even + 1) // 2
        return _tally(((1.0, odd * (odd + 1) * (2 * odd + 1) // 6),
                       (1.0 / self.base, halves), (float(self.base), halves)))

    def block_arrays(self, b0: int, b1: int) -> tuple[np.ndarray, np.ndarray]:
        """Two slots per block, the second dropped on odd blocks (one run of ones)."""
        down, up = 1.0 / self.base, float(self.base)
        n = np.arange(b0, b1 + 1, dtype=np.int64)
        odd, t = n % 2 == 1, (n + 1) // 2
        values = np.stack((np.where(odd, 1.0, down), np.full(n.size, up)), axis=1).ravel()
        counts = np.stack((np.where(odd, t * t, t), t), axis=1).ravel()
        keep = np.stack((np.ones(n.size, bool), ~odd), axis=1).ravel()
        return values[keep], counts[keep]


def twos_halves_ones(base: float = 2.0) -> BlockGenerator:
    """Alternate a square block of ones with a halving/doubling block.

    Block 2t-1: t*t copies of 1.  Block 2t (scan order): t copies of 1/`base`
    then t copies of `base`, so cumulative products along the scan dip to
    base^-t and recover.
    """
    return _TwosHalvesOnes(base)


class _RampPlateau:
    """ramp_plateau's generator, with block sizes and value counts in closed
    form: plateau(n) = int(plateau_base ** n), the count the runs carry."""

    def __init__(self, plateau_base):
        self.plateau_base = plateau_base
        self._plateaus: list[int] = []  # plateau(1), plateau(2), ...

    def __call__(self, n: int) -> list[tuple[float, int]]:
        asc = [(float(i), 1) for i in range(1, n + 1)]
        plateau = [(float(n + 1), self.plateau_base ** n)]
        desc = [(float(i), 1) for i in range(n, 0, -1)]
        return asc + plateau + desc

    def plateau(self, n: int) -> int:
        while len(self._plateaus) < n:
            count = int(self.plateau_base ** (len(self._plateaus) + 1))
            if count <= 0:
                raise ValueError(f"nonpositive run count {count}")
            self._plateaus.append(count)
        return self._plateaus[n - 1]

    def block_size(self, n: int) -> int:
        return 2 * n + self.plateau(n)

    def counts_through(self, n: int) -> dict[float, int]:
        """Over segments 1..n each v in [1, n] sits twice in the ramps of
        segments v..n and fills segment v-1's plateau; n+1 fills segment n's."""
        counts = {1.0: 2 * n}
        for v in range(2, n + 1):
            counts[float(v)] = 2 * (n - v + 1) + self.plateau(v - 1)
        counts[float(n + 1)] = self.plateau(n)
        return counts


def ramp_plateau(plateau_base: int = 10) -> BlockGenerator:
    """Segment n: ascending ramp 1..n, plateau n+1 repeated plateau_base^n
    times, descending ramp n..1.  Values here are bases; a power-row matrix
    raises them to the k-th power per row."""
    return _RampPlateau(plateau_base)


TEMPLATES: dict[str, Callable] = {
    "constant": constant,
    "alternating_powers": alternating_powers,
    "twos_halves_ones": twos_halves_ones,
    "ramp_plateau": ramp_plateau,
}


def side_from_template(name: str, params: dict, origin: int, direction: int) -> SequenceBase:
    """Instantiate a template as one side of a layout (CLI config path)."""
    if name not in TEMPLATES:
        raise ValueError(f"unknown block template {name!r}")
    made = TEMPLATES[name](**params)
    if isinstance(made, SequenceBase):
        return made
    return BlockSideSequence(made, origin, direction)
