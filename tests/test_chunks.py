"""The dense route walks its horizon in numerics.CHUNK-cell chunks.  No
report may depend on where the chunk boundaries fall, and the memory of a
dense check must not grow with its horizon."""

from __future__ import annotations

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
import test_weights as twt
from shiftchaos import catalog, dc_cert, mly_cert, numerics, orbit, reports
from shiftchaos.density import (IndexPredicate, check_density, density_envelope, evens,
                                naturals)
from shiftchaos.numerics import SparseVector
from shiftchaos.sequences import ClosedFormSequence, ConstantSequence
from shiftchaos.shift import ShiftOperator, orbit_seminorm_log_array
from shiftchaos.spaces import (IndexSet, KotheMatrix, SpaceSpec, c0_space, lp_space,
                               rapidly_decreasing_space)
from shiftchaos.weights import (bilateral_weights, product_log_slice, products,
                                unilateral_weights)
from test_spaces import ramp_nu

SINGLE = 1 << 30  # one chunk for every horizon here
CHUNKS = (1, 7, 64)
# condition (A)'s candidate sets: evens is walked by its prefix counts, the
# other two by their membership runs
CANDIDATE_SETS = (evens, naturals, catalog.expanding_product_blocks)


def _zero_weights():
    """w_j = 0 for j <= -101 and at j in {5, 60, 61}, beyond the
    constructor's spot checks: backward orbits from 0 meet -101 first, those
    from 10 meet 5, and the forward products from 0 meet 5, 60 and 61."""
    return bilateral_weights(
        ClosedFormSequence(lambda j: 0.0 if j <= -101 else 2.0),
        ClosedFormSequence(lambda j: 0.0 if j in (5, 60, 61) else 2.0))


# (name, operator, anchors): each anchor's orbit at horizon 200 starts off
# chunk boundaries for every size in CHUNKS
LAYOUTS = [
    # the orbit of 150 crosses j = 0 at n = 150, where the run route splits
    # its pieces: at CHUNK 1, 7 and 64 here and against the references
    ("ex1-on-s(Z)", ShiftOperator(rapidly_decreasing_space(IndexSet.Z), twt.ex1_weights()),
     [-3, 0, 4, 150]),
    ("negative-on-power-rows-Z",
     ShiftOperator(SpaceSpec(1, KotheMatrix("power", ramp_nu()), IndexSet.Z),
                   twt.NEGATIVE_CASE[1]), [-2, 1, 5]),
    ("halves-on-c0(Z)", ShiftOperator(c0_space(IndexSet.Z), twt.WEIGHT_CASES[3][1]),
     [0, 3]),
    # on N the orbits of 40 and 150 leave the domain inside a chunk
    ("rolewicz-on-l2(N)", ShiftOperator(lp_space(2, IndexSet.N), twt.WEIGHT_CASES[2][1]),
     [40, 150]),
    ("ramp-on-c0(N)",
     ShiftOperator(c0_space(IndexSet.N, nu=ramp_nu()), twt.ramp_unilateral()), [1, 97]),
    ("zero-weights-on-s(Z)",
     ShiftOperator(rapidly_decreasing_space(IndexSet.Z), _zero_weights()), [0, 10]),
]
HORIZON = 200


def _outcome(fn, *args, **kw) -> str:
    """The report's JSON (an array's bytes), or the error a check raised."""
    try:
        out = fn(*args, **kw)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return repr(out.tobytes()) if isinstance(out, np.ndarray) else out.to_json()


def _streamed_reports(op: ShiftOperator, anchors: list[int]) -> list[str]:
    """One report of every consumer of the chunked dense route; run under
    _exact_floats, so a float that moves by an ulp shows."""
    sched = [(k, HORIZON - 10 + 5 * k, [(a, 1.5 - a / 7) for a in anchors[:k]])
             for k in (1, 2)]
    dense_dc = dc_cert.schedule_dc(1, sched)
    x = SparseVector.from_terms([(a, 2.0 - a / 11) for a in anchors])
    return [
        _outcome(dc_cert.refute_dc_condition_A, op, anchors, HORIZON, settle_by=HORIZON),
        # a thinner bad set: the ratios dip to delta and settle later
        _outcome(dc_cert.refute_dc_condition_A, op, anchors, HORIZON, bound=10.0,
                 delta=0.25, settle_by=HORIZON),
        _outcome(dc_cert.refute_hypercyclicity, op, HORIZON, k_max=3),
        *(_outcome(dc_cert.check_dc_condition_A, op, D(), anchors, HORIZON,
                   decay_tol=0.5, k_max=3) for D in CANDIDATE_SETS),
        _outcome(dc_cert.check_dc_condition_B, op, dense_dc, mode="dense"),
        _outcome(mly_cert.check_mly_condition_B, op, dense_dc, mode="dense",
                 auto_a_horizon=0),
        _outcome(mly_cert.check_mly_condition_A, op, anchors[0], HORIZON,
                 include_series=True),
        # the streamed readers: running min, its first N and the last average
        _outcome(mly_cert.check_mly_condition_A, op, anchors[-1], HORIZON, start=5,
                 refute_floor=0.5),
        _outcome(mly_cert.anchor_equivalence_probe, op, anchors, HORIZON),
        # f3's product averages read the weights alone: on lp(J) any layout's
        # weights get past the constant-row guard
        _outcome(mly_cert.check_f3, ShiftOperator(lp_space(1, op.space.index_set),
                                                  op.weights),
                 HORIZON, mly_cert.basis_probes([anchors[0]], [50]), C_grid=(1.0,)),
        _outcome(dc_cert.check_dc_search, op, k_range=(1, 2),
                 anchor_window=(anchors[0], anchors[0] + 3), N_max=HORIZON),
        _outcome(orbit_seminorm_log_array, op, x, 2, HORIZON),
    ]


@pytest.fixture
def _exact_floats(monkeypatch):
    """Reports print floats to 12 digits; here they print every bit."""
    monkeypatch.setattr(reports, "fmt_float", lambda x: repr(float(x)))


@pytest.mark.usefixtures("_exact_floats")
@pytest.mark.parametrize("name, op, anchors", LAYOUTS, ids=[l[0] for l in LAYOUTS])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, name, op, anchors):
    monkeypatch.setattr(numerics, "CHUNK", SINGLE)
    want = _streamed_reports(op, anchors)
    for chunk in CHUNKS:
        monkeypatch.setattr(numerics, "CHUNK", chunk)
        assert _streamed_reports(op, anchors) == want, chunk


# The run route walks orbit.STEP_CHUNKS chunks at a step: at CHUNK 1 and 7
# step ends fall inside HORIZON, at CHUNK 64 only inside this horizon
STEP_HORIZON = 600


@pytest.mark.usefixtures("_exact_floats")
@pytest.mark.parametrize("name, op, anchors", LAYOUTS, ids=[l[0] for l in LAYOUTS])
def test_run_route_reports_do_not_depend_on_the_step(monkeypatch, name, op, anchors):
    def reports():
        return [_outcome(dc_cert.refute_dc_condition_A, op, anchors, STEP_HORIZON,
                         settle_by=STEP_HORIZON),
                _outcome(dc_cert.refute_dc_condition_A, op, anchors, STEP_HORIZON,
                         bound=10.0, delta=0.25, settle_by=STEP_HORIZON),
                *(_outcome(dc_cert.check_dc_condition_A, op, D(), anchors, STEP_HORIZON,
                           decay_tol=0.5, k_max=3) for D in CANDIDATE_SETS)]

    monkeypatch.setattr(numerics, "CHUNK", SINGLE)
    want = reports()
    monkeypatch.setattr(numerics, "CHUNK", 64)
    assert len(list(numerics.chunk_spans(1, STEP_HORIZON,
                                         orbit.STEP_CHUNKS * numerics.CHUNK))) == 3
    assert reports() == want


def _dense_mly(op: ShiftOperator, anchors: list[int], horizon: int) -> str:
    """One dense MLY condition-(B) level over the anchors' two-term witness."""
    sched = dc_cert.schedule_dc(1, [(1, horizon, [(a, 1.5 - t / 4)
                                                  for t, a in enumerate(anchors)])])
    return _outcome(mly_cert.check_mly_condition_B, op, sched, mode="dense",
                    auto_a_horizon=0)


# The dense MLY average sums its cells in blocks of numerics.BLOCK aligned at
# n = 1; a horizon of three blocks and a remainder makes CHUNK 1, 7 and 64
# gather blocks across chunk edges.  On N the witness leaves the domain in
# the third block, so the rest of it and the remainder hold no finite cell.
BLOCK_SPAN = 3 * numerics.BLOCK + 17
BLOCK_LAYOUTS = [(LAYOUTS[0][1], [0, 4]),
                 (LAYOUTS[3][1], [2 * numerics.BLOCK + 100, 2 * numerics.BLOCK + 97])]


@pytest.mark.usefixtures("_exact_floats")
@pytest.mark.parametrize("op, anchors", BLOCK_LAYOUTS,
                         ids=[LAYOUTS[0][0], LAYOUTS[3][0]])
def test_block_sums_do_not_depend_on_the_chunk_size(monkeypatch, op, anchors):
    monkeypatch.setattr(numerics, "CHUNK", SINGLE)
    want = _dense_mly(op, anchors, BLOCK_SPAN)
    assert '"pass": true' in want
    for chunk in CHUNKS:
        monkeypatch.setattr(numerics, "CHUNK", chunk)
        assert _dense_mly(op, anchors, BLOCK_SPAN) == want, chunk


@pytest.mark.usefixtures("_exact_floats")
@pytest.mark.parametrize("name, op, anchors", LAYOUTS, ids=[l[0] for l in LAYOUTS])
def test_small_block_sums_do_not_depend_on_the_chunk_size(monkeypatch, name, op, anchors):
    # blocks of 16 cells: a block edge falls inside most chunks at HORIZON
    monkeypatch.setattr(numerics, "BLOCK", 16)
    monkeypatch.setattr(numerics, "CHUNK", SINGLE)
    want = _dense_mly(op, anchors[:2], HORIZON)
    for chunk in CHUNKS:
        monkeypatch.setattr(numerics, "CHUNK", chunk)
        assert _dense_mly(op, anchors[:2], HORIZON) == want, chunk


def test_zero_weights_are_named_as_one_pass_names_them(monkeypatch):
    _, op, anchors = LAYOUTS[-1]
    for chunk in (SINGLE,) + CHUNKS:
        monkeypatch.setattr(numerics, "CHUNK", chunk)
        reports = _streamed_reports(op, anchors)
        assert reports[0] == "ValueError: weight at -101 is zero; weights must be nonzero on-domain"
        # the forward product names the zero nearest the range's end
        assert reports[2] == "ValueError: weight at 61 is zero; weights must be nonzero on-domain"
        # orbits run in step: the one from 10 meets 5 in an earlier chunk,
        # but the one from 0 comes first and names -101
        assert reports[3].startswith("ValueError: weight at -101 is zero")
        assert reports[-1].startswith("ValueError: weight at -101 is zero")


# ln decay_tol from -6.9 to 92: on every layout some level crosses the
# orbit's pieces inside them, not only at their ends; 0.5 meets exact ties
# on s(Z) under dyadic weights
DECAY_TOLS = (1e-3, 0.37, 0.5, 7.3, 1e3, 1e9, 1e20, 1e40)


@functools.cache
def _whole_horizon_references(name: str) -> tuple:
    """The references test_carried_state_matches_whole_horizon_references
    compares a layout's reports with at every chunk size, built once."""
    _, op, anchors = next(layout for layout in LAYOUTS if layout[0] == name)
    refute_a = [oracles.refute_a_rows_reference(op, anchors, HORIZON, bound, delta, HORIZON)
                for bound, delta in ((0.5, 1 / 6), (10.0, 0.25))]
    condition_a = [oracles.condition_a_rows_reference(op, D().member, anchors, HORIZON,
                                                      decay_tol, 4, 0.3)
                   for D in CANDIDATE_SETS for decay_tol in DECAY_TOLS]
    return refute_a, condition_a, oracles.refute_hc_minima_reference(op, HORIZON, 3)


@pytest.mark.parametrize("chunk", (7, 64, SINGLE))
@pytest.mark.parametrize("name, op, anchors", LAYOUTS[:-1], ids=[l[0] for l in LAYOUTS[:-1]])
def test_carried_state_matches_whole_horizon_references(monkeypatch, name, op, anchors,
                                                        chunk):
    monkeypatch.setattr(numerics, "CHUNK", chunk)
    refute_a, condition_a, refute_hc = _whole_horizon_references(name)
    for (bound, delta), want in zip(((0.5, 1 / 6), (10.0, 0.25)), refute_a):
        rep = dc_cert.refute_dc_condition_A(op, anchors, HORIZON, bound, delta, HORIZON)
        assert rep.rows == want
    wants = iter(condition_a)
    for D in CANDIDATE_SETS:
        for decay_tol in DECAY_TOLS:
            rep = dc_cert.check_dc_condition_A(op, D(), anchors, HORIZON, decay_tol, 4, 0.3)
            assert rep.rows == next(wants), (D().name, decay_tol)
    rep = dc_cert.refute_hypercyclicity(op, HORIZON, k_max=3)
    assert [(r["seminorm"], r["min_value"].logmag, r["min_at_n"]) for r in rep.rows] \
        == refute_hc


def _doubling_on(matrix: KotheMatrix) -> ShiftOperator:
    return ShiftOperator(SpaceSpec(1, matrix, IndexSet.Z),
                         bilateral_weights(ConstantSequence(2.0), ConstantSequence(2.0)))


# Under weights 2 every level of s(Z) reads ||.||_k >= 1 from k = 1 on.  These
# two matrices agree with s(Z) at the constructor's spot checks but fall
# below 1 with k at -13 and -150 (base 1/2), or at j = 3 mod 7, so the
# series must run every level of the chunks holding those cells.
LEVEL_BY_LEVEL = [
    ("base-below-1-on-power-rows", _doubling_on(KotheMatrix("power", ClosedFormSequence(
        lambda j: 0.5 if j in (-13, -150) else abs(j) + 1.0,
        vectorized=lambda js: np.where(np.isin(js, (-13, -150)), 0.5,
                                       np.abs(js.astype(float)) + 1.0))))),
    ("custom-rows", _doubling_on(KotheMatrix("custom", log_fn=lambda j, k: (
        (2 - k) if j % 7 == 3 else k) * math.log(abs(j) + 1.0)))),
]
# the last n before an orbit of the zero-weights layout meets a zero weight
BEFORE_ZERO = {0: 100, 10: 4}
# no run structure in the rows (both above) or in the weights: condition
# (A) reads every cell of every level the dense way
WITHOUT_RUNS = LEVEL_BY_LEVEL + [
    ("closed-form-weights-on-s(N)",
     ShiftOperator(rapidly_decreasing_space(IndexSet.N), twt.CLOSED_CASE[1]))]


@pytest.mark.parametrize("chunk", (7, SINGLE))
@pytest.mark.parametrize("name, op", WITHOUT_RUNS, ids=[l[0] for l in WITHOUT_RUNS])
def test_condition_a_without_runs_matches_the_references(monkeypatch, chunk, name, op):
    monkeypatch.setattr(numerics, "CHUNK", chunk)
    anchors = [40, 150] if op.space.index_set is IndexSet.N else [0, 5]
    for D in CANDIDATE_SETS:
        for decay_tol in (0.5, 1e3):
            rep = dc_cert.check_dc_condition_A(op, D(), anchors, HORIZON, decay_tol, 4, 0.3)
            assert rep.rows == oracles.condition_a_rows_reference(
                op, D().member, anchors, HORIZON, decay_tol, 4, 0.3), (D().name, decay_tol)


# On s(N) under weights 1/2 the orbit of 150 reads ln(151 - n) - n ln 2 at
# level 1: >= 0 for the first n (decided at level 1), below 0 but crossing
# it at a later level further on, below 0 at every level near j = 1, and
# -inf from n = 150 on, where the orbit has left N
HALVES_ON_S_N = ("halves-on-s(N)", ShiftOperator(rapidly_decreasing_space(IndexSet.N),
                                                 unilateral_weights(ConstantSequence(0.5))),
                 [150, 40])
CESARO_LAYOUTS = (LAYOUTS + [(name, op, [0, 5]) for name, op in LEVEL_BY_LEVEL]
                  + [HALVES_ON_S_N])


@functools.cache
def _cesaro_reference(name: str, a: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """oracles.cesaro_terms_reference of a layout, built once for every chunk
    size that compares with it."""
    op = next(layout[1] for layout in CESARO_LAYOUTS if layout[0] == name)
    return oracles.cesaro_terms_reference(op, a, N)


def test_the_saturating_layout_mixes_every_kind_of_cell():
    _, op, (a, _) = HALVES_ON_S_N
    first = oracles.orbit_logs_reference(op, a, 1, 0.0, 1, HORIZON)
    last = oracles.orbit_logs_reference(op, a, op.space.metric_depth, 0.0, 1, HORIZON)
    finite = first > -np.inf
    assert np.count_nonzero(first >= 0) > 1
    assert np.count_nonzero((first < 0) & (last >= 0)) > 1
    assert np.count_nonzero(finite & (last < 0)) > 1
    assert np.count_nonzero(~finite) == HORIZON - a + 1


@pytest.mark.parametrize("chunk", CHUNKS + (SINGLE,))
@pytest.mark.parametrize("name, op, anchors", CESARO_LAYOUTS,
                         ids=[l[0] for l in CESARO_LAYOUTS])
def test_cesaro_series_matches_the_level_loop_bytewise(monkeypatch, chunk, name, op,
                                                       anchors):
    # the series skips cells and levels whose terms are already decided;
    # every byte must still be the plain level loop's
    monkeypatch.setattr(numerics, "CHUNK", chunk)
    for a in anchors:
        N = HORIZON
        if name == "zero-weights-on-s(Z)":
            with pytest.raises(ValueError, match="is zero"):
                mly_cert.cesaro_distance_series(op, a, N)
            N = BEFORE_ZERO[a]
        series = mly_cert.cesaro_distance_series(op, a, N)
        terms, averages = _cesaro_reference(name, a, N)
        assert series.terms.tobytes() == terms.tobytes(), a
        assert series.averages.tobytes() == averages.tobytes(), a
        # the streamed minimum carries across chunks; on a tie (every n on
        # ex1's orbit of 150 and the ramp's of 1) the first n wins
        for start in (1, min(9, N)):
            at = start + int(np.argmin(averages[start - 1:]))
            row = mly_cert.check_mly_condition_A(op, a, N, start=start).rows[0]
            assert (row["running_min"], row["argmin_N"], row["average_at_horizon"]) \
                == (float(averages[at - 1]), at, float(averages[-1])), (a, start)


F3_CASES = [c for c in twt.WEIGHT_CASES + [twt.NEGATIVE_CASE, twt.SIGN_FLIP_CASE]
            if c[1].index_set is IndexSet.Z]


@pytest.mark.parametrize("chunk", CHUNKS + (SINGLE,))
@pytest.mark.parametrize("name, w", F3_CASES, ids=[c[0] for c in F3_CASES])
def test_f3_minimum_matches_one_accumulate(monkeypatch, chunk, name, w):
    # f3's running product averages, carried across chunks, against one
    # logaddexp accumulate over [1, N]; under |w| = 1 left of 0 (sign
    # flips) the minimum ties at 42 N, and the first must win
    monkeypatch.setattr(numerics, "CHUNK", chunk)
    op = ShiftOperator(lp_space(1, IndexSet.Z), w)
    avg_logs = (np.logaddexp.accumulate(product_log_slice(w, 0, 1, HORIZON))
                - np.log(np.arange(1, HORIZON + 1)))
    at = int(np.argmin(avg_logs))
    row = mly_cert.check_f3(op, HORIZON, mly_cert.basis_probes([0], [5]),
                            C_grid=(1.0,)).rows[0]
    assert (row["running_min"], row["argmin_N"]) == (float(np.exp(avg_logs[at])), at + 1)


SLICE_CASES = twt.WEIGHT_CASES + [twt.NEGATIVE_CASE, twt.CLOSED_CASE, twt.SIGN_FLIP_CASE]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name, w", SLICE_CASES, ids=[c[0] for c in SLICE_CASES])
def test_slices_match_products_at_every_n(monkeypatch, chunk, name, w):
    # chunked slices, each seeded with the last one's carry, against the
    # exact products: -inf exactly where P(i, n) is an exact zero; and
    # against one slice, bit for bit.  On N the orbits of 1, 2 and 40 leave
    # the domain before most chunk starts
    monkeypatch.setattr(numerics, "CHUNK", chunk)
    anchors = [1, 2, 40, 150] if w.index_set is IndexSet.N else [-3, 0, 40]
    for i in anchors:
        logs = products(w, [(i, n) for n in range(HORIZON + 1)])
        carry, slices = 0.0, []
        for n0, n1 in numerics.chunk_spans(0, HORIZON):
            got = product_log_slice(w, i, n0, n1, carry)
            carry = got[-1]
            slices.append(got.tobytes())
            assert got.shape == (n1 - n0 + 1,)
            assert got.flags.writeable
            for n, lm in enumerate(got.tolist(), n0):
                assert (lm == -np.inf) == (logs[n] == -np.inf), (i, n)
                if lm != -np.inf:
                    assert abs(lm - logs[n]) < 1e-9, (i, n)
        assert b"".join(slices) == product_log_slice(w, i, 0, HORIZON).tobytes(), i


DENSITY_SETS = [
    catalog.expanding_product_blocks(),
    evens(),
    # the least prefix ratio, 0, is taken at N = 1 and again at N = 2
    IndexPredicate(lambda j: j % 3 == 0, count=lambda n: n // 3,
                   count_array=lambda ns: ns // 3, name="thirds"),
    IndexPredicate(catalog.expanding_product_blocks().member, name="bare"),  # no counter
]


@pytest.mark.usefixtures("_exact_floats")
@pytest.mark.parametrize("D", DENSITY_SETS, ids=lambda d: d.name)
def test_density_check_does_not_depend_on_the_chunk_size(monkeypatch, D):
    def reports():
        return [check_density(None, D, horizon, (1, 6), exhaustive_to).to_json()
                for horizon in (1, 64, 300) for exhaustive_to in (0, 6, 50, 300)]

    monkeypatch.setattr(numerics, "CHUNK", SINGLE)
    want = reports()
    for chunk in CHUNKS:
        monkeypatch.setattr(numerics, "CHUNK", chunk)
        assert reports() == want, chunk


@pytest.mark.parametrize("chunk", CHUNKS + (numerics.CHUNK,))
@pytest.mark.parametrize("D", DENSITY_SETS + [naturals()], ids=lambda d: d.name)
def test_density_matches_the_brute_envelope(monkeypatch, D, chunk):
    # sets with runs and without are both read by envelope_of_runs, so the
    # reference is an outside one: brute counts, the first N of a tie
    monkeypatch.setattr(numerics, "CHUNK", chunk)
    for horizon in (1, 2, 6, 64, 300, 1000):
        for start in {1, 2, 7, horizon} & set(range(1, horizon + 1)):
            assert (density_envelope(D, horizon, start)
                    == oracles.brute_envelope(D.member, horizon, start)), (horizon, start)
        want = oracles.brute_envelope(D.member, horizon)
        counts = oracles.brute_prefix_counts(D.member, horizon)
        for num, den in ((1, 6), (1, 3), (1, 2), (2, 3)):
            row = check_density(None, D, horizon, (num, den)).rows[0]
            assert (row["min_ratio"], row["min_ratio_at"]) == (want.lower, want.lower_at)
            assert row["strict_above_threshold"] == all(
                den * c > num * n for n, c in enumerate(counts, 1)), (horizon, num, den)


# each set with runs, and a vectorized counter for its cell route
RUN_SETS = [pytest.param(D, count_array, id=D.name) for D, count_array in (
    (catalog.expanding_product_blocks(), oracles.expanding_blocks_count_array),
    (naturals(), lambda ns: ns))]


@pytest.mark.usefixtures("_exact_floats")
@pytest.mark.parametrize("D, count_array", RUN_SETS)
def test_density_run_route_matches_the_cell_route(monkeypatch, D, count_array):
    # the run route reads run ends; the cell route (the same set without
    # runs) walks every N chunk by chunk.  Large horizons (block ends
    # t(t + 1) and the block start after one, up to 2 * 10**6) are walked
    # at the default chunk size, the small ones at every size
    cells = replace(D, runs=None, count_array=count_array)

    def reports(pred, horizons):
        return [check_density(None, pred, horizon, threshold, exhaustive_to).to_json()
                for horizon in horizons
                for threshold, exhaustive_to in (((1, 6), 50), ((1, 3), 0))]

    large = (1413 * 1414, 1413 * 1414 + 1, 2 * 10**6)
    assert reports(D, large) == reports(cells, large)
    small = (1, 2, 6, 7, 64, 300)
    for chunk in CHUNKS:
        monkeypatch.setattr(numerics, "CHUNK", chunk)
        assert reports(D, small) == reports(cells, small), chunk


# ---------------------------------------------------------------------------
# memory: O(CHUNK), not O(horizon)


def _refute_a_peak(op: ShiftOperator, horizon: int) -> int:
    tracemalloc.start()
    try:
        rep = dc_cert.refute_dc_condition_A(op, [0], horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "condition-A-refuted-at-horizon"
    return peak


def test_refute_a_memory_does_not_grow_with_the_horizon(ex1_op):
    # one orbit at 10**7 held whole took 306 MiB; a chunk takes about 17
    assert _refute_a_peak(ex1_op, 10**7) <= 64 * 2**20
    small = _refute_a_peak(ex1_op, 1 << 20)
    assert _refute_a_peak(ex1_op, 4 << 20) <= 1.25 * small


# the streamed MLY readers, each with its verdict on ex4 at both horizons
MLY_READERS = {
    "condition-A": (lambda op, h: mly_cert.check_mly_condition_A(op, 0, h),
                    "condition-A-holds-at-horizon"),
    "anchor-equivalence": (lambda op, h: mly_cert.anchor_equivalence_probe(op, [-1, 2], h),
                           "agrees"),
    "f3": (lambda op, h: mly_cert.check_f3(op, h, mly_cert.basis_probes([1], [50]),
                                           C_grid=(1.0,)),
           "not-certified-at-horizon"),
}


def _peak(run, want: str) -> int:
    tracemalloc.start()
    try:
        rep = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == want
    return peak


@pytest.mark.parametrize("reader", MLY_READERS)
def test_mly_reader_memory_does_not_grow_with_the_horizon(ex4_op, reader):
    # whole-horizon series held three or four float arrays: 100 MiB and more
    # at 4 * 2**20; one chunk's buffers take about 10
    check, want = MLY_READERS[reader]
    small = _peak(lambda: check(ex4_op, 1 << 20), want)
    large = _peak(lambda: check(ex4_op, 4 << 20), want)
    assert large <= 32 * 2**20
    assert large <= 1.25 * small


def test_chunk_spans_cover_the_range_once(monkeypatch):
    monkeypatch.setattr(numerics, "CHUNK", 7)
    assert list(numerics.chunk_spans(3, 20)) == [(3, 9), (10, 16), (17, 20)]
    assert list(numerics.chunk_spans(3, 2)) == []
    assert list(numerics.chunk_spans(0, 0)) == [(0, 0)]
    assert np.array_equal(np.concatenate([np.arange(a, b + 1) for a, b in
                                          numerics.chunk_spans(-5, 100)]),
                          np.arange(-5, 101))
