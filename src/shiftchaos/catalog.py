"""Worked operator catalog and the config-document loaders.

Every catalog entry is a plain JSON-able config document: index set, space,
weight layout, and a list of checks, each carrying the verdict it is
expected to produce.  The same loaders serve the CLI, so an exported entry
re-runs bit-identically from file.  Entry names, template names, check kinds
and the set/sequence form names used below are part of the public surface.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import dc_cert, mly_cert
from .density import (IndexPredicate, check_counter_agreement,
                      envelope_of_counts, evens, naturals)
from .reports import CertificateReport
from .sequences import SequenceBase, SplitSequence, side_from_template
from .shift import ShiftOperator
from .spaces import (IndexSet, KotheMatrix, SpaceSpec, c0_space,
                     condition_c_check, lp_space, rapidly_decreasing_space)
from .numerics import SparseVector
from .weights import WeightSpec, bilateral_weights, unilateral_weights

CHECK_KINDS = ("dc", "dc_search", "kothe_dc", "lp_c0_dc", "mop",
               "hypercyclicity", "mly", "kothe_mly", "acb", "f3",
               "density", "orbit", "condition_C")


# ---------------------------------------------------------------------------
# config loaders (shared with the CLI)


def sequence_from_config(d: dict) -> SequenceBase:
    kind = d.get("kind")
    if kind == "constant":
        return side_from_template("constant", {"value": float(d["value"])}, 0, 1)
    if kind == "blocks":
        return side_from_template(d["template"], d.get("params", {}),
                                  int(d["origin"]), int(d["direction"]))
    if kind == "split":
        return SplitSequence(sequence_from_config(d["left"]),
                             sequence_from_config(d["right"]),
                             split=int(d.get("at", 0)))
    raise ValueError(f"unknown sequence kind {kind!r}")


def space_from_config(d: dict, index_set: IndexSet) -> SpaceSpec:
    kind = d.get("kind")
    depth = int(d.get("metric_depth", 40))
    if kind in ("lp", "c0"):
        p = 0.0 if kind == "c0" else float(d.get("p", 2))
        nu = sequence_from_config(d["nu"]) if d.get("nu") else None
        if p == 0:
            return c0_space(index_set, nu, depth)
        return lp_space(p, index_set, nu, depth)
    if kind == "s":
        return rapidly_decreasing_space(index_set, float(d.get("p", 1)), depth)
    if kind == "kothe":
        rows = d["rows"]
        matrix = KotheMatrix(rows["rule"], sequence_from_config(rows["base"]))
        return SpaceSpec(float(d.get("p", 1)), matrix, index_set, depth)
    raise ValueError(f"unknown space kind {kind!r}")


def weights_from_config(d: dict, index_set: IndexSet) -> WeightSpec:
    if index_set is IndexSet.N:
        return unilateral_weights(sequence_from_config(d["entries"]))
    return bilateral_weights(sequence_from_config(d["negative"]),
                             sequence_from_config(d["nonnegative"]))


def operator_from_config(config: dict) -> ShiftOperator:
    index_set = IndexSet[config["index_set"]]
    space = space_from_config(config["space"], index_set)
    weights = weights_from_config(config["weights"], index_set)
    return ShiftOperator(space, weights)


def _schedule_triples(d: dict) -> list[tuple[int, int, list[tuple[int, float]]]]:
    return [(int(k), int(N), [(int(i), float(b)) for i, b in terms])
            for k, N, terms in d["schedule"]]


def predicate_from_name(name: str) -> IndexPredicate:
    if name not in PREDICATES:
        raise ValueError(f"unknown index set name {name!r}")
    return PREDICATES[name]()


def n_seq_from_config(d: Any) -> list[int]:
    if isinstance(d, list):
        return [int(n) for n in d]
    form, count = d["form"], int(d.get("count", 60))
    if form not in N_SEQ_FORMS:
        raise ValueError(f"unknown probe sequence form {form!r}")
    return [N_SEQ_FORMS[form](k) for k in range(1, count + 1)]


# backward product of block 2t-1..: index where the alternating-powers /
# ones-then-powers layouts reach their k-th dip (derived block arithmetic)
N_SEQ_FORMS = {
    "alternating-powers-dip": lambda k: 2 * k * (2 * k - 1) + k,
    "twos-halves-ones-dip": lambda k: k + k * (k - 1) + k * (k + 1) * (2 * k + 1) // 6,
}

MOP_ALPHAS = {"linear": lambda n: float(n)}
MOP_J0 = {"one": lambda n: 1}
MOP_J1 = {"successor": lambda n: n + 1,
          "ramp-plateau-segment-end": lambda n: segment_end(n)}


def segment_end(t: int) -> int:
    """Last index of the t-th ramp/plateau/ramp segment (plateau base 10)."""
    return t * (t + 1) + (10 ** (t + 1) - 10) // 9


def expanding_product_blocks() -> IndexPredicate:
    """Union of the odd-numbered blocks of the alternating-powers layout.

    Block t occupies [t(t-1)+1, t(t+1)]; backward products from anchor 0
    stay >= 1 exactly on the odd blocks.  Counters are closed-form, so the
    density envelope stays exact at any horizon.
    """

    def block_of(n: int) -> int:
        c = (math.isqrt(4 * n + 1) - 1) // 2  # largest c with c(c+1) <= n
        return c if c * (c + 1) == n else c + 1

    def member(n: int) -> bool:
        return n >= 1 and block_of(n) % 2 == 1

    def count(n: int) -> int:
        if n < 1:
            return 0
        c = (math.isqrt(4 * n + 1) - 1) // 2
        m = (c + 1) // 2  # odd blocks completed
        partial = n - c * (c + 1) if (c + 1) % 2 == 1 else 0
        return 2 * m * m + partial

    def count_array(ns: np.ndarray) -> np.ndarray:
        ns = ns.astype(np.int64)
        c = ((np.sqrt(4.0 * ns + 1.0) - 1.0) // 2).astype(np.int64)
        for _ in range(2):  # fix float-sqrt rounding at block boundaries
            c -= (c * (c + 1) > ns).astype(np.int64)
            c += ((c + 1) * (c + 2) <= ns).astype(np.int64)
        m = (c + 1) // 2
        partial = np.where((c + 1) % 2 == 1, ns - c * (c + 1), 0)
        return 2 * m * m + partial

    return IndexPredicate(member, count=count, count_array=count_array,
                          name="expanding-product-blocks")


PREDICATES = {
    "naturals": naturals,
    "evens": evens,
    "expanding-product-blocks": expanding_product_blocks,
}


# ---------------------------------------------------------------------------
# check dispatch


def run_check(op: ShiftOperator, cfg: dict) -> CertificateReport:
    kind = cfg.get("kind")
    if kind not in CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}")
    return _DISPATCH[kind](op, cfg)


def _dc_condition_a(op, a_cfg: dict) -> CertificateReport:
    D = predicate_from_name(a_cfg.get("set", "naturals"))
    return dc_cert.check_dc_condition_A(
        op, D, a_cfg["anchors"], int(a_cfg["horizon"]),
        decay_tol=float(a_cfg.get("decay_tol", 1e-6)),
        k_max=int(a_cfg.get("k_max", 4)),
        tail_fraction_min=float(a_cfg.get("tail_fraction_min", 0.5)))


def _run_dc(op, cfg):
    if "refute_A" in cfg:
        r = cfg["refute_A"]
        return dc_cert.refute_dc_condition_A(
            op, r["anchors"], int(r["horizon"]),
            bound=float(r.get("bound", 0.5)),
            delta=float(r.get("delta", 1 / 6)),
            settle_by=int(r.get("settle_by", 50)))
    cond_a = _dc_condition_a(op, cfg["condition_A"]) if "condition_A" in cfg else None
    if "schedule" not in cfg:
        if cond_a is None:
            raise ValueError("dc check needs a schedule, a condition_A block, "
                             "or a refute_A block")
        return cond_a
    sched = dc_cert.schedule_dc(int(cfg.get("m", 1)), _schedule_triples(cfg))
    return dc_cert.check_dc_condition_B(op, sched, mode=cfg.get("mode", "auto"),
                                        condition_a=cond_a)


def _run_kothe_dc(op, cfg):
    cond_a = _dc_condition_a(op, cfg["condition_A"]) if "condition_A" in cfg else None
    sched = dc_cert.schedule_dc(int(cfg.get("m", 1)), _schedule_triples(cfg))
    return dc_cert.check_kothe_dc(op, sched, mode=cfg.get("mode", "auto"),
                                  condition_a=cond_a)


def _run_dc_search(op, cfg):
    window = cfg.get("anchor_window", [1, 60])
    sched = dc_cert.search_witness_dc(
        op, m=int(cfg.get("m", 1)),
        k_range=[int(k) for k in cfg.get("k_range", [1, 2, 3, 4, 5, 6])],
        anchor_window=(int(window[0]), int(window[1])),
        N_max=int(cfg.get("N_max", 60)), r_max=int(cfg.get("r_max", 1)))
    params = {"m": int(cfg.get("m", 1)), "anchor_window": list(window),
              "N_max": int(cfg.get("N_max", 60))}
    if sched is None:
        return CertificateReport("dc-witness-search",
                                 "no-witness-found-at-horizon", params)
    rows = [{"k": e.k, "N_k": e.horizon,
             "anchors": ",".join(str(t.index) for t in e.terms)}
            for e in sched.entries]
    verify = dc_cert.check_dc_condition_B(op, sched)
    notes = [f"found schedule settles the counting check: {verify.verdict}"]
    return CertificateReport("dc-witness-search", "witness-found", params,
                             rows, notes)


def _run_lp_c0_dc(op, cfg):
    ks = [int(k) for k in cfg.get("k_range", [1, 2, 3, 4, 5, 6])]
    horizons = cfg.get("horizons")
    return dc_cert.check_lp_c0_dc(
        op, [int(i) for i in cfg["S"]], k_range=ks,
        horizons=[int(N) for N in horizons] if horizons else None,
        eps=float(cfg.get("eps", 1e-2)),
        coeffs=cfg.get("coeffs"))


def _run_mop(op, cfg):
    return dc_cert.check_mop_sufficient(
        op, MOP_ALPHAS[cfg.get("alphas", "linear")],
        MOP_J0[cfg.get("j0", "one")], MOP_J1[cfg.get("j1", "successor")],
        k_range=[int(k) for k in cfg.get("k_range", [1, 2, 3, 4, 5])],
        n_max=int(cfg.get("n_max", 40)), mode=cfg.get("mode", "auto"))


def _run_hypercyclicity(op, cfg):
    if "refute" in cfg:
        r = cfg["refute"]
        return dc_cert.refute_hypercyclicity(
            op, int(r["horizon"]), k_max=int(r.get("k_max", 4)),
            floor=float(r.get("floor", 1.0)))
    w = cfg["witness"]
    window = w.get("ell_window", [-5, 5])
    return dc_cert.check_hypercyclicity_witness(
        op, n_seq_from_config(w["n_seq"]),
        (int(window[0]), int(window[1])),
        decay_tol=float(w.get("decay_tol", 1e-6)),
        k_max=int(w.get("k_max", 4)))


def _mly_condition_a(op, a_cfg: dict, include_series: bool = False):
    floor = a_cfg.get("refute_floor")
    return mly_cert.check_mly_condition_A(
        op, int(a_cfg.get("anchor", 0)), int(a_cfg["horizon"]),
        pass_tol=float(a_cfg.get("pass_tol", 1e-3)),
        refute_floor=float(floor) if floor is not None else None,
        start=int(a_cfg.get("start", 1)), include_series=include_series)


def _run_mly(op, cfg):
    cond_a = _mly_condition_a(op, cfg["condition_A"]) if "condition_A" in cfg else None
    if "schedule" not in cfg:
        if cond_a is None:
            raise ValueError("mly check needs a schedule or a condition_A block")
        return cond_a
    sched = mly_cert.schedule_mly(int(cfg.get("m", 1)), _schedule_triples(cfg))
    return mly_cert.check_mly_condition_B(
        op, sched, mode=cfg.get("mode", "auto"), condition_a=cond_a,
        auto_a_horizon=int(cfg.get("auto_A_horizon", 100_000)))


def _run_kothe_mly(op, cfg):
    cond_a = _mly_condition_a(op, cfg["condition_A"]) if "condition_A" in cfg else None
    sched = mly_cert.schedule_mly(int(cfg.get("m", 1)), _schedule_triples(cfg))
    return mly_cert.check_kothe_mly(
        op, sched, mode=cfg.get("mode", "auto"), condition_a=cond_a,
        auto_a_horizon=int(cfg.get("auto_A_horizon", 100_000)))


def _parse_probes(raw) -> list[tuple[str, int, float, int]]:
    return [(str(lbl), int(i), float(b), int(N)) for lbl, i, b, N in raw]


def _run_acb(op, cfg):
    return mly_cert.check_acb(op, _parse_probes(cfg["probes"]),
                              C_grid=[float(c) for c in cfg.get("C_grid", [1.0, 10.0, 100.0])])


def _run_f3(op, cfg):
    return mly_cert.check_f3(op, int(cfg["horizon"]), _parse_probes(cfg["probes"]),
                             C_grid=[float(c) for c in cfg.get("C_grid", [1.0, 10.0, 100.0])],
                             lim_tol=float(cfg.get("lim_tol", 1e-3)))


def _run_density(op, cfg):
    pred = predicate_from_name(cfg["set"])
    horizon = int(cfg["horizon"])
    num, den = (int(x) for x in cfg.get("threshold", [1, 6]))
    exhaustive_to = min(int(cfg.get("exhaustive_to", 50)), horizon)
    agree = check_counter_agreement(pred, min(10_000, horizon))
    ns = np.arange(1, horizon + 1, dtype=np.int64)
    if pred.count_array is not None:
        counts = pred.count_array(ns).astype(np.int64)
    elif horizon <= 200_000:
        counts = np.cumsum(pred.member_mask(horizon)).astype(np.int64)
    else:
        raise ValueError("set has no vectorized counter for a horizon this large")
    brute = np.cumsum(pred.member_mask(exhaustive_to)).astype(np.int64)
    exhaustive_ok = bool(np.array_equal(brute, counts[:exhaustive_to]))
    strict_ok = bool(np.all(den * counts > num * ns))
    env = envelope_of_counts(counts)
    ok = agree and exhaustive_ok and strict_ok
    rows = [{"min_ratio": env.lower, "min_ratio_at": env.lower_at,
             "ratio_at_horizon": env.ratio_at_horizon,
             "strict_above_threshold": strict_ok,
             "counters_agree": agree, "exhaustive_prefix_ok": exhaustive_ok}]
    params = {"set": pred.name, "horizon": horizon,
              "threshold": f"{num}/{den}", "exhaustive_to": exhaustive_to}
    verdict = "passes-at-horizon" if ok else "condition-failed"
    return CertificateReport("density", verdict, params, rows)


def _run_orbit(op, cfg):
    return _mly_condition_a(op, cfg, include_series=True)


def _run_condition_c(op, cfg):
    lo, hi = cfg.get("window", [-8, 8])
    k_max = int(cfg.get("k_max", 6))
    js = [j for j in range(int(lo), int(hi) + 1) if op.space.index_set.contains(j)]
    samples = [SparseVector.basis(j) for j in js]
    samples.append(SparseVector.from_terms([(j, 1.0) for j in js]))
    samples.append(SparseVector.from_terms(
        [(j, (-0.5) ** (abs(j) % 3 + 1)) for j in js]))
    rep = condition_c_check(op.space, samples, k_max=k_max)
    rows = [{"samples": rep.checked, "worst_excess": rep.worst_excess,
             "ok": rep.ok}]
    params = {"window": [int(lo), int(hi)], "k_max": k_max}
    verdict = "passes-at-horizon" if rep.ok else "condition-failed"
    return CertificateReport("condition-C", verdict, params, rows)


_DISPATCH = {
    "dc": _run_dc,
    "dc_search": _run_dc_search,
    "kothe_dc": _run_kothe_dc,
    "lp_c0_dc": _run_lp_c0_dc,
    "mop": _run_mop,
    "hypercyclicity": _run_hypercyclicity,
    "mly": _run_mly,
    "kothe_mly": _run_kothe_mly,
    "acb": _run_acb,
    "f3": _run_f3,
    "density": _run_density,
    "orbit": _run_orbit,
    "condition_C": _run_condition_c,
}


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    config: dict


def _const(v: float) -> dict:
    return {"kind": "constant", "value": v}


def _blocks(template: str, origin: int, direction: int, **params) -> dict:
    return {"kind": "blocks", "template": template, "params": params,
            "origin": origin, "direction": direction}


def _split(at: int, left: dict, right: dict) -> dict:
    return {"kind": "split", "at": at, "left": left, "right": right}


_RAMP_SIDE = _blocks("ramp_plateau", origin=1, direction=1, plateau_base=10)


def _ex1() -> CatalogEntry:
    config = {
        "schema_version": 1,
        "name": "ex1_s_Z_hc_not_dc",
        "index_set": "Z",
        "space": {"kind": "s", "p": 1},
        "weights": {
            "negative": _blocks("alternating_powers", origin=-1, direction=-1,
                                base=2.0),
            "nonnegative": _const(2.0),
        },
        "checks": [
            {"kind": "hypercyclicity",
             "witness": {"n_seq": {"form": "alternating-powers-dip", "count": 120},
                         "ell_window": [-5, 5], "decay_tol": 1e-6, "k_max": 4},
             "expect": "witnessed"},
            {"kind": "dc",
             "refute_A": {"anchors": [0], "horizon": 1_000_000,
                          "bound": 0.5, "delta": 1 / 6, "settle_by": 50},
             "expect": "condition-A-refuted-at-horizon"},
            {"kind": "density", "set": "expanding-product-blocks",
             "horizon": 1_000_000, "threshold": [1, 6], "exhaustive_to": 50,
             "expect": "passes-at-horizon"},
        ],
    }
    return CatalogEntry(
        "ex1_s_Z_hc_not_dc",
        "rapidly decreasing sequences over Z; alternating-powers weights left "
        "of the origin, doubling right: orbits admit a decay witness family "
        "but the backward products stay large on a sixth of all times",
        config)


def _ex2() -> CatalogEntry:
    dc_schedule = [[k, segment_end(k), [[segment_end(k), 1.0]]]
                   for k in range(2, 7)]
    condition_a = {"set": "naturals", "anchors": [-2, -1, 0, 1, 2],
                   "horizon": 10_000, "decay_tol": 1e-6, "k_max": 4}
    config = {
        "schema_version": 1,
        "name": "ex2_kothe_dc_not_hc",
        "index_set": "Z",
        "space": {"kind": "kothe", "p": 1,
                  "rows": {"rule": "power",
                           "base": _split(1, _const(1.0), _RAMP_SIDE)}},
        "weights": {"negative": _const(0.5), "nonnegative": _const(1.0)},
        "checks": [
            {"kind": "dc", "m": 1, "mode": "pieces", "schedule": dc_schedule,
             "condition_A": condition_a, "expect": "certified-at-horizon"},
            {"kind": "kothe_dc", "m": 1, "mode": "pieces",
             "schedule": dc_schedule, "condition_A": condition_a,
             "expect": "certified-at-horizon"},
            {"kind": "hypercyclicity",
             "refute": {"horizon": 10_000, "k_max": 4, "floor": 1.0},
             "expect": "refuted-at-horizon"},
            {"kind": "dc_search", "m": 1, "k_range": [1, 2],
             "anchor_window": [1, 130], "N_max": 130,
             "expect": "witness-found"},
        ],
    }
    return CatalogEntry(
        "ex2_kothe_dc_not_hc",
        "Kothe echelon space over Z with power rows over a ramp/plateau "
        "profile; halving weights left of the origin, unit right: counting "
        "witnesses certify the chaos conditions while the forward family "
        "never leaves the unit ball",
        config)


def _ex3() -> CatalogEntry:
    config = {
        "schema_version": 1,
        "name": "ex3_s_Z_hc_not_mly",
        "index_set": "Z",
        "space": {"kind": "s", "p": 1},
        "weights": {
            "negative": _blocks("twos_halves_ones", origin=-1, direction=-1,
                                base=2.0),
            "nonnegative": _const(2.0),
        },
        "checks": [
            {"kind": "hypercyclicity",
             "witness": {"n_seq": {"form": "twos-halves-ones-dip", "count": 120},
                         "ell_window": [-5, 5], "decay_tol": 1e-6, "k_max": 4},
             "expect": "witnessed"},
            {"kind": "mly",
             "condition_A": {"anchor": 0, "horizon": 100_000,
                             "pass_tol": 1e-3, "refute_floor": 0.9,
                             "start": 3},
             "expect": "refuted-at-horizon"},
        ],
    }
    return CatalogEntry(
        "ex3_s_Z_hc_not_mly",
        "rapidly decreasing sequences over Z; square blocks of unit weights "
        "separate doubling/halving runs left of the origin: a decay witness "
        "family exists, yet distance averages stay pinned near 1",
        config)


def _ex4() -> CatalogEntry:
    mly_schedule = [[k, segment_end(2 * k), [[segment_end(2 * k), 1.0]]]
                    for k in range(1, 7)]
    probes = [[f"e[{segment_end(t)}]", segment_end(t), 1.0, segment_end(t)]
              for t in (1, 2, 3, 4, 5, 6, 21, 201)]
    condition_a = {"anchor": 0, "horizon": 100_000, "pass_tol": 1e-3}
    config = {
        "schema_version": 1,
        "name": "ex4_lp_mly_not_hc",
        "index_set": "Z",
        "space": {"kind": "lp", "p": 2,
                  "nu": _split(1, _const(1.0), _RAMP_SIDE)},
        "weights": {"negative": _const(0.5), "nonnegative": _const(1.0)},
        "checks": [
            {"kind": "mly", "m": 1, "mode": "pieces", "schedule": mly_schedule,
             "condition_A": condition_a, "expect": "certified-at-horizon"},
            {"kind": "kothe_mly", "m": 1, "mode": "pieces",
             "schedule": mly_schedule, "condition_A": condition_a,
             "expect": "certified-at-horizon"},
            {"kind": "acb", "probes": probes, "C_grid": [1.0, 10.0, 100.0],
             "expect": "falsified-at-horizon"},
            {"kind": "f3", "horizon": 100_000, "probes": probes,
             "C_grid": [1.0, 10.0, 100.0], "lim_tol": 1e-3,
             "expect": "certified-at-horizon"},
            {"kind": "hypercyclicity",
             "refute": {"horizon": 10_000, "k_max": 4, "floor": 1.0},
             "expect": "refuted-at-horizon"},
        ],
    }
    return CatalogEntry(
        "ex4_lp_mly_not_hc",
        "weighted l2 over Z with a ramp/plateau weight profile to the right; "
        "halving weights left of the origin, unit right: orbit averages "
        "certify divergence while the forward family stays at or above 1",
        config)


def _rolewicz() -> CatalogEntry:
    config = {
        "schema_version": 1,
        "name": "rolewicz_lp_N",
        "index_set": "N",
        "space": {"kind": "lp", "p": 2, "nu": None},
        "weights": {"entries": _const(2.0)},
        "checks": [
            {"kind": "dc_search", "m": 1, "k_range": [1, 2, 3, 4, 5, 6],
             "anchor_window": [1, 40], "N_max": 40,
             "expect": "witness-found"},
            {"kind": "lp_c0_dc", "S": [1000], "k_range": [1, 2, 3, 4, 5, 6],
             "eps": 1e-2, "expect": "passes-at-horizon"},
            {"kind": "mly", "m": 1,
             "schedule": [[k, k + 4, [[1000, 1.0]]] for k in range(1, 7)],
             "expect": "certified-at-horizon"},
            {"kind": "acb", "probes": [["e[1000]", 1000, 1.0, 20]],
             "C_grid": [1.0, 10.0, 100.0], "expect": "falsified-at-horizon"},
        ],
    }
    return CatalogEntry(
        "rolewicz_lp_N",
        "doubling backward shift on l2 over the naturals: the classical "
        "chaotic shift; witnesses exist at every level and orbit averages "
        "grow geometrically",
        config)


def _unweighted() -> CatalogEntry:
    config = {
        "schema_version": 1,
        "name": "unweighted_lp_N",
        "index_set": "N",
        "space": {"kind": "lp", "p": 2, "nu": None},
        "weights": {"entries": _const(1.0)},
        "checks": [
            {"kind": "dc_search", "m": 1, "k_range": [1, 2],
             "anchor_window": [1, 40], "N_max": 40,
             "expect": "no-witness-found-at-horizon"},
            {"kind": "dc", "m": 1, "schedule": [[2, 10, [[20, 1.0]]]],
             "expect": "condition-failed"},
            {"kind": "acb", "probes": [["e[50]", 50, 1.0, 30]],
             "C_grid": [1.0], "expect": "no-falsifier-found-at-horizon"},
            {"kind": "mop", "alphas": "linear", "j0": "one",
             "j1": "successor", "k_range": [2, 3], "n_max": 40,
             "expect": "inconclusive"},
            {"kind": "mly", "m": 1,
             "schedule": [[2, 10, [[30, 1.0]]], [3, 20, [[30, 1.0]]]],
             "expect": "condition-failed"},
            {"kind": "lp_c0_dc", "S": [1000], "k_range": [1, 2, 3, 4, 5, 6],
             "eps": 1e-2, "expect": "condition-failed"},
        ],
    }
    return CatalogEntry(
        "unweighted_lp_N",
        "plain backward shift on l2 over the naturals: a contraction-free "
        "non-example where every search comes back empty",
        config)


def _halfweights() -> CatalogEntry:
    probes = [["e[0]", 0, 1.0, 50]]
    config = {
        "schema_version": 1,
        "name": "halfweights_bilateral",
        "index_set": "Z",
        "space": {"kind": "lp", "p": 2, "nu": None},
        "weights": {"negative": _const(0.5), "nonnegative": _const(0.5)},
        "checks": [
            {"kind": "lp_c0_dc", "S": [0], "k_range": [1, 2, 3, 4, 5, 6],
             "eps": 1e-2, "expect": "condition-failed"},
            {"kind": "acb", "probes": probes, "C_grid": [1.0],
             "expect": "no-falsifier-found-at-horizon"},
            {"kind": "f3", "horizon": 1000, "probes": probes,
             "C_grid": [1.0], "expect": "not-certified-at-horizon"},
            {"kind": "dc_search", "m": 1, "k_range": [1],
             "anchor_window": [-10, 10], "N_max": 30,
             "expect": "no-witness-found-at-horizon"},
        ],
    }
    return CatalogEntry(
        "halfweights_bilateral",
        "uniform halving bilateral shift on l2 over Z: a contraction whose "
        "averages vanish but which admits no divergence witness of any kind",
        config)


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in (
    _ex1(), _ex2(), _ex3(), _ex4(), _rolewicz(), _unweighted(), _halfweights())}


def names() -> list[str]:
    return list(CATALOG)


def get(name: str) -> CatalogEntry:
    if name not in CATALOG:
        raise ValueError(f"unknown catalog entry {name!r}; "
                         f"known: {', '.join(CATALOG)}")
    return CATALOG[name]


def export_config(name: str) -> dict:
    return copy.deepcopy(get(name).config)


def build_example(name: str, p: float | None = None) -> ShiftOperator:
    config = export_config(name)
    if p is not None:
        config["space"]["p"] = p
        if config["space"]["kind"] == "c0" and p != 0:
            config["space"]["kind"] = "lp"
        if config["space"]["kind"] == "lp" and p == 0:
            config["space"]["kind"] = "c0"
    return operator_from_config(config)


def run_expected_suite(name: str) -> CertificateReport:
    """Run every check of an entry and compare against its expected verdict."""
    entry = get(name)
    op = operator_from_config(entry.config)
    rows = []
    all_agree = True
    for idx, cfg in enumerate(entry.config.get("checks", [])):
        rep = run_check(op, cfg)
        expected = cfg.get("expect", "")
        agrees = rep.verdict == expected
        all_agree = all_agree and agrees
        rows.append({"check": f"{cfg['kind']}#{idx}", "expected": expected,
                     "actual": rep.verdict, "agrees": agrees})
    verdict = "agrees" if all_agree else "mismatch"
    return CertificateReport("expected-suite", verdict, {"name": entry.name},
                             rows)
