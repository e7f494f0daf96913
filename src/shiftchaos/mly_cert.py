"""Finite-horizon certificate checkers for mean Li-Yorke behaviour.

The two sides mirror the distributional-chaos module but count averages, not
exceedances:

  (A) the Cesaro averages of the metric distances d(B^n-image of a basis
      vector, 0) dip below a small tolerance (proximality side);
  (B) per level k, the horizon-N_k average of orbit seminorms of a witness
      vector is at least k times its p(k)-th seminorm (divergence side),
      with a NON-strict >= as the comparison.

Averages are accumulated in the log domain; series terms are genuine metric
values in [0, 1].  The series reads the orbit's product logs chunk by chunk
(shift.orbit_product_logs) and row 1 of the matrix (spaces.add_metric_levels,
whose accumulator starts at zero).  It does per-cell work only where a
level can still change a term: on constant rows only cells whose clipped
value min(1, ||.||) is not 0 are summed.  On power rows with no finite
ln base below 0 a cell with ||.||_1 >= 1 reads 1 at every level, so its
term is the constant 0 + 2^-1 + ... + 2^-depth; the level loop runs on the
other cells only, gathered, with row k built there as k * row_1, and stops
at the first level where all of them read ||.||_k >= 1.  Every term is bit
for bit the plain level loop's.  Condition (A) and the anchor probe stream
the series (_cesaro_chunks): a chunk's terms fill one CHUNK buffer, whose
cumsum is seeded with the last chunk's sum and divided in place by n, and
the running minimum and its first n carry across chunks, so memory does
not grow with the horizon.  Only include_series and cesaro_distance_series
hold the whole series.

Schedules and the level loop (dc_cert.level_report) are the
distributional-chaos module's, and a level's orbit and its route are
`orbit`'s; each level here averages where dc_cert counts.  The averaging
level (_mly_level) compares seminorms, so check_mly_condition_B and
check_kothe_mly run the same comparison.  check_f3's running product
averages stay a logaddexp accumulate (prefix sums cannot share one shift
without underflow), read chunk by chunk through orbit_product_logs with the
accumulate seeded by the last chunk's running log sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import numerics
from .dc_cert import (DCWitnessEntry, WitnessScheduleDC, _require_anchors, level_report,
                      schedule_dc)
from .numerics import NEG_INF, ZERO, LogScalar, SparseVector
from .orbit import WitnessOrbit, WitnessTerm, require_dense
from .reports import CertificateReport
from .shift import ShiftOperator, orbit_product_logs
from .spaces import IndexSet, add_metric_levels, seminorm

# An MLY schedule is a DC schedule.
MLYWitnessEntry = DCWitnessEntry
WitnessScheduleMLY = WitnessScheduleDC


def schedule_mly(m: int, entries: Iterable[tuple[int, int, Iterable[tuple[int, float]]]]
                 ) -> WitnessScheduleMLY:
    """Build a schedule from plain (k, N_k, [(index, coeff), ...]) triples."""
    return schedule_dc(m, entries)


# ---------------------------------------------------------------------------
# Cesaro distance series (condition (A) side)


@dataclass(frozen=True)
class CesaroSeries:
    """terms[n-1] = d(B^n-image of e_anchor shifted n steps, 0) in [0, 1];
    averages are the running Cesaro means."""

    anchor: int
    terms: np.ndarray
    averages: np.ndarray


def _cesaro_chunks(op: ShiftOperator, anchor: int, N: int,
                   terms_out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(n0, running Cesaro means at n in [n0, n1]) per chunk [n0, n1] of [1, N].

    A chunk's terms are written into one buffer of at most CHUNK cells (and
    copied to terms_out[n0 - 1:n1] when given).  Its cumsum is seeded with
    the last chunk's prefix sum, so the bits are one cumsum's over [1, N],
    and it is divided by n in place; the next chunk overwrites the buffer.
    """
    if N < 1:
        raise ValueError("need a positive horizon")
    require_dense(1, N)
    depth = op.space.metric_depth
    buf = np.empty(min(numerics.CHUNK, N))
    ns = np.arange(1, buf.size + 1, dtype=float)  # n at each cell of the chunk
    total = 0.0
    for n0, n1, logs in orbit_product_logs(op, anchor, 1, N):
        vals = buf[:n1 - n0 + 1]
        vals.fill(0.0)
        rows = op.space.log_rows(anchor - n1, anchor - n0, range(1, depth + 1))
        add_metric_levels(vals, logs, rows, op.space.matrix.rule, depth)
        if terms_out is not None:
            terms_out[n0 - 1:n1] = vals
        vals[0] += total
        np.cumsum(vals, out=vals)
        total = vals[-1]
        vals /= ns[:vals.size]
        ns += vals.size
        yield n0, vals


def cesaro_distance_series(op: ShiftOperator, anchor: int, N: int) -> CesaroSeries:
    """d(P(anchor, n) e_{anchor-n}, 0) for n = 1..N, with running averages:
    the chunks of _cesaro_chunks laid end to end.

    The metric is the truncated series sum_k 2^{-k} min(1, ||.||_k), so every
    term lies in [0, 1 - 2^-depth] and averages inherit the range exactly.
    """
    terms, averages = np.empty(max(N, 0)), np.empty(max(N, 0))
    for n0, vals in _cesaro_chunks(op, anchor, N, terms):
        averages[n0 - 1:n0 - 1 + vals.size] = vals
    return CesaroSeries(anchor, terms, averages)


def _running_min(chunks: Iterable[tuple[int, np.ndarray]], start: int
                 ) -> tuple[float, int, float]:
    """(least average over n >= start, the first n taking it, the average
    at the last n) of (n0, averages at n0, n0 + 1, ...) chunks."""
    least, at, last = math.inf, start, math.nan
    for n0, avgs in chunks:
        skip = max(start - n0, 0)
        if skip < avgs.size:
            t = skip + int(np.argmin(avgs[skip:]))
            if avgs[t] < least:  # a tie keeps the first n, as np.argmin does
                least, at = float(avgs[t]), n0 + t
        last = float(avgs[-1])
    return least, at, last


def check_mly_condition_A(op: ShiftOperator, anchor: int, horizon: int,
                          pass_tol: float = 1e-3,
                          refute_floor: float | None = None,
                          start: int = 1,
                          include_series: bool = False) -> CertificateReport:
    """Does the Cesaro average of basis distances dip below pass_tol?

    Passing means the running minimum over N in [start, horizon] is strictly
    below pass_tol.  When refute_floor is given and the minimum stays at or
    above it, the dip is refuted on the checked range; otherwise the check is
    inconclusive.
    """
    if not 1 <= start <= horizon:
        raise ValueError("need 1 <= start <= horizon")
    _require_anchors(op, [anchor])
    if include_series:
        series = cesaro_distance_series(op, anchor, horizon)
        running_min, at, last = _running_min([(1, series.averages)], start)
    else:
        running_min, at, last = _running_min(_cesaro_chunks(op, anchor, horizon), start)
    if running_min < pass_tol:
        verdict = "condition-A-holds-at-horizon"
    elif refute_floor is not None and running_min >= refute_floor:
        verdict = "refuted-at-horizon"
    else:
        verdict = "inconclusive"
    params = {"anchor": anchor, "horizon": horizon, "pass_tol": pass_tol,
              "start": start, "running_min": running_min, "argmin_N": at}
    if refute_floor is not None:
        params["refute_floor"] = refute_floor
    if include_series:
        rows = [{"n": int(n), "term": float(series.terms[n - 1]),
                 "prefix_average": float(series.averages[n - 1])}
                for n in range(1, horizon + 1)]
    else:
        rows = [{"anchor": anchor, "running_min": running_min, "argmin_N": at,
                 "average_at_horizon": last}]
    return CertificateReport("mly-condition-A", verdict, params, rows)


def anchor_equivalence_probe(op: ShiftOperator, anchors: Iterable[int],
                             horizon: int, pass_tol: float = 1e-3) -> CertificateReport:
    """All probed anchors should agree on whether the averages dip.

    The dip property does not depend on the anchor; a split outcome at a
    finite horizon is a numeric-horizon artifact, flagged as a mismatch.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValueError("need at least one anchor")
    _require_anchors(op, anchors)
    rows = []
    outcomes = set()
    for a in anchors:
        running_min, at, _ = _running_min(_cesaro_chunks(op, a, horizon), 1)
        below = running_min < pass_tol
        outcomes.add(below)
        rows.append({"anchor": a, "running_min": running_min,
                     "argmin_N": at, "below": below})
    params = {"horizon": horizon, "pass_tol": pass_tol}
    if len(outcomes) == 1:
        return CertificateReport("anchor-equivalence", "agrees", params, rows)
    notes = ["anchors disagree: numeric-horizon artifact, raise the horizon"]
    return CertificateReport("anchor-equivalence", "mismatch", params, rows, notes)


# ---------------------------------------------------------------------------
# condition (B): orbit-seminorm averages


def _auto_a(op: ShiftOperator, horizon: int
            ) -> Callable[[], CertificateReport] | None:
    """Condition (A) at anchor 0 up to the horizon; none at horizon 0."""
    return (lambda: check_mly_condition_A(op, 0, horizon)) if horizon > 0 else None


def _average_log(op: ShiftOperator, entry, m: int, mode: str) -> float:
    """ln of (1/N) * sum_{n=1..N} ||B^n (witness vector)||_m; the shift by
    ln N rounds once more than the orbit's sum."""
    N = entry.horizon
    return WitnessOrbit(op, entry.terms, m, N, mode).log_sum() - math.log(N)


def _average_row(k: int, N: int, avg_log: float) -> dict:
    """An averaging level passes iff the average is >= k (non-strict); a
    vanishing orbit averages 0 and fails."""
    return {"k": k, "N_k": N, "average": LogScalar.from_log(avg_log), "target": k,
            "pass": avg_log >= math.log(k)}


def _mly_level(op: ShiftOperator, sched: WitnessScheduleMLY, mode: str
               ) -> Callable[[MLYWitnessEntry], dict | str]:
    """The averaging level: (1/N_k) sum_{n<=N_k} ||B^n x||_m >= k ||x||_p(k)?

    A zero denominator seminorm fails the level.
    """
    def level(entry: MLYWitnessEntry) -> dict | str:
        den = seminorm(op.space, entry.vector(), sched.p_of(entry.k))
        if den.sign == 0:
            return f"zero denominator seminorm at k={entry.k}"
        avg_log = _average_log(op, entry, sched.m, mode) - den.logmag
        return _average_row(entry.k, entry.horizon, avg_log)

    return level


def check_mly_condition_B(op: ShiftOperator, sched: WitnessScheduleMLY,
                          mode: str = "auto",
                          condition_a: CertificateReport | None = None,
                          auto_a_horizon: int = 100_000) -> CertificateReport:
    """Per level k: average orbit seminorm >= k * (p(k)-th seminorm)?

    The comparison is non-strict.  certified-at-horizon needs every level to
    pass and condition (A) settled (supplied, auto-checked at anchor 0, or
    automatic on the one-sided domain); a bare full pass yields
    condition-B-holds-at-horizon.
    """
    return level_report("mly-condition-B", op, sched, mode, condition_a,
                        _mly_level(op, sched, mode), _auto_a(op, auto_a_horizon))


def check_kothe_mly(op: ShiftOperator, sched: WitnessScheduleMLY,
                    mode: str = "auto",
                    condition_a: CertificateReport | None = None,
                    auto_a_horizon: int = 100_000) -> CertificateReport:
    """The averaging check on a Kothe echelon space lambda_p(A, J).

    There ||x||_k = (sum_j |a(j, k) x_j|^p)^(1/p) (the max for p = 0), which
    is the seminorm check_mly_condition_B compares, so this runs the same
    level; the report carries kind "kothe-mly" and the space's p.
    """
    return level_report("kothe-mly", op, sched, mode, condition_a,
                        _mly_level(op, sched, mode), _auto_a(op, auto_a_horizon),
                        p=op.space.p)


# ---------------------------------------------------------------------------
# absolute Cesaro boundedness: falsification search


def check_acb(op: ShiftOperator,
              probes: Sequence[tuple[str, int, float, int]],
              C_grid: Sequence[float] = (1.0, 10.0, 100.0)) -> CertificateReport:
    """Search for violations of absolute Cesaro boundedness.

    A falsifier for the constant C is a probe (a scaled basis vector y and a
    horizon N) with (1/N) * sum_{n<=N} ||B^n y|| strictly above C * ||y||,
    the norm being the first seminorm (constant-in-k rows required, so it is
    the space norm).  Probes are (label, index, coeff, N) and are scanned in
    the given order; per C, the first hit is reported.
    """
    if op.space.matrix.rule != "constant":
        raise ValueError("absolute Cesaro boundedness needs a Banach-space "
                         "norm: constant-in-k rows")
    if not probes:
        raise ValueError("need at least one probe")
    if not C_grid:  # no C to falsify would read as every C falsified
        raise ValueError("need at least one C in C_grid")
    results = []
    for label, index, coeff, N in probes:
        term = WitnessTerm.of(index, coeff)
        if term.coeff.sign == 0:
            raise ValueError(f"probe {label!r} has zero coefficient")
        norm = seminorm(op.space, SparseVector.from_terms([(term.index, term.coeff)]), 1)
        if norm.sign == 0:
            raise ValueError(f"probe {label!r} has zero norm")
        probe = DCWitnessEntry(1, int(N), (term,))
        results.append((label, int(N), _average_log(op, probe, 1, "auto"), norm.logmag))
    rows = []
    all_witnessed = True
    for C in C_grid:
        hit = next(((label, N, avg_log, norm_log)
                    for label, N, avg_log, norm_log in results
                    if avg_log > math.log(C) + norm_log), None)
        if hit is None:
            rows.append({"C": C, "witnessed": False, "probe": "", "N": 0,
                         "average": ZERO, "norm": ZERO})
            all_witnessed = False
        else:
            label, N, avg_log, norm_log = hit
            rows.append({"C": C, "witnessed": True, "probe": label, "N": N,
                         "average": LogScalar(1, avg_log),
                         "norm": LogScalar(1, norm_log)})
    verdict = "falsified-at-horizon" if all_witnessed else "no-falsifier-found-at-horizon"
    params = {"C_grid": list(C_grid), "probes": [p[0] for p in probes]}
    return CertificateReport("acb", verdict, params, rows)


def basis_probes(indices: Sequence[int], horizons: Sequence[int]
                 ) -> list[tuple[str, int, float, int]]:
    """Canonical probes: unit basis vectors, one horizon each."""
    if len(indices) != len(horizons):
        raise ValueError("need one horizon per probe index")
    return [(f"e[{i}]", int(i), 1.0, int(N)) for i, N in zip(indices, horizons)]


# ---------------------------------------------------------------------------
# combined criterion: mean Li-Yorke <=> not ACB and vanishing product averages


def check_f3(op: ShiftOperator, horizon: int,
             probes: Sequence[tuple[str, int, float, int]],
             C_grid: Sequence[float] = (1.0, 10.0, 100.0),
             lim_tol: float = 1e-3) -> CertificateReport:
    """Two-part equivalence check on two-sided Banach sequence spaces.

    Part 1: the running minimum of (1/N) * sum_{n<=N} |w_{-n} ... w_{-1}|
    drops strictly below lim_tol within the horizon (the averages of raw
    backward weight products at anchor 0).  Part 2: absolute Cesaro
    boundedness is falsified for every C in the grid.  Both together certify;
    anything less does not.
    """
    if op.space.index_set is not IndexSet.Z:
        raise ValueError("the equivalence check runs on the two-sided domain")
    if op.space.matrix.rule != "constant":
        raise ValueError("the equivalence check needs constant-in-k rows")
    if horizon < 1:
        raise ValueError("need a positive horizon")
    require_dense(1, horizon)
    least, at, _ = _running_min(_product_average_chunks(op, horizon), 1)
    min_avg = float(np.exp(least)) if least > NEG_INF else 0.0
    part1 = min_avg < lim_tol
    acb = check_acb(op, probes, C_grid)
    part2 = acb.verdict == "falsified-at-horizon"
    rows = [{"part": "product-average-liminf", "ok": part1,
             "running_min": min_avg, "argmin_N": at}]
    for r in acb.rows:
        row = {"part": "acb"}
        row.update(r)
        rows.append(row)
    verdict = "certified-at-horizon" if (part1 and part2) else "not-certified-at-horizon"
    params = {"horizon": horizon, "lim_tol": lim_tol, "C_grid": list(C_grid),
              "acb_verdict": acb.verdict}
    return CertificateReport("mly-equivalence", verdict, params, rows)


def _product_average_chunks(op: ShiftOperator, horizon: int
                            ) -> Iterator[tuple[int, np.ndarray]]:
    """(n0, ln (1/N) sum_{n<=N} |P(0, n)| for N from n0 on) per chunk of
    [1, horizon]: one logaddexp accumulate, seeded chunk to chunk."""
    ns = np.arange(1, min(numerics.CHUNK, horizon) + 1, dtype=float)  # N at each cell
    total = NEG_INF
    for n0, _, logs in orbit_product_logs(op, 0, 1, horizon):
        if n0 > 1:
            logs[0] = np.logaddexp(total, logs[0])
        np.logaddexp.accumulate(logs, out=logs)
        total = logs[-1]
        logs -= np.log(ns[:logs.size])
        ns += logs.size
        yield n0, logs
