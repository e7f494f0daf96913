"""Worked operator catalog and the config-document loaders.

Every catalog entry is a plain JSON-able config document: index set, space,
weight layout, and a list of checks, each carrying the verdict it is
expected to produce.  The same loaders serve the CLI, so an exported entry
re-runs bit-identically from file.  Entry names, template names, check kinds
and the set/sequence form names used below are part of the public surface.

One table drives the checks: READERS turns each config key into its typed
value (a key means the same in every kind and block), and CHECKS names, per
kind, the check function each item runs and the keys it reads.  run_check
dispatches through it, and the CLI validates each item's keys against the
same table (CHECK_KEYS).  Defaults live in the check functions' signatures.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any

from . import dc_cert, density, mly_cert, orbit
from .density import IndexPredicate, evens, naturals
from .reports import CertificateReport
from .sequences import Run, SequenceBase, SplitSequence, side_from_template
from .shift import ShiftOperator
from .spaces import (IndexSet, KotheMatrix, SpaceSpec, c0_space,
                     condition_c_check, lp_space, rapidly_decreasing_space)
from .numerics import SparseVector
from .weights import WeightSpec, bilateral_weights, unilateral_weights

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
    stay >= 1 exactly on the odd blocks.  The counter is closed-form, and the
    blocks are the membership runs (O(√H) of them up to H), so every walk of
    the set reads its runs and stays exact at any horizon.
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

    def runs(lo: int, hi: int) -> list[Run]:
        lo = max(lo, 1)
        return [Run(max(t * (t - 1) + 1, lo), min(t * (t + 1), hi), float(t % 2))
                for t in range(block_of(lo), block_of(hi) + 1)] if hi >= lo else []

    return IndexPredicate(member, count=count, runs=runs, name="expanding-product-blocks")


PREDICATES = {
    "naturals": naturals,
    "evens": evens,
    "expanding-product-blocks": expanding_product_blocks,
}


# ---------------------------------------------------------------------------
# check dispatch: one table of readers and check functions


def _ints(v) -> list[int]:
    return [int(x) for x in v]


def _finite(v) -> float:
    """float, rejecting NaN and infinities (json reads NaN and Infinity, and
    every comparison with NaN is false, which would read as a pass)."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _positive(v) -> float:
    """A finite float > 0: a tolerance, bound or floor.  Some have their log
    taken; nothing lies below a tolerance <= 0, and everything meets such a
    floor."""
    x = _finite(v)
    if x <= 0:
        raise ValueError(f"must be > 0, got {x}")
    return x


def _floats(v) -> list[float]:
    return [_finite(x) for x in v]


def _pair(v) -> tuple[int, int]:
    lo, hi = v
    return int(lo), int(hi)


def _fraction(v) -> float:
    """A finite float in (0, 1): a share of indices or of a set's members."""
    x = _finite(v)
    if not 0 < x < 1:
        raise ValueError(f"must lie in (0, 1), got {x}")
    return x


def _threshold(v) -> tuple[int, int]:
    """num/den as two integers with 0 <= num < den: a density floor."""
    num, den = _pair(v)
    if not 0 <= num < den:
        raise ValueError(f"must be two integers with 0 <= num < den, got {num}/{den}")
    return num, den


def _optional(read):
    return lambda v: None if v is None else read(v)


def _int_from(least: int):
    """int, rejecting values below `least` (a check over no levels, no
    horizon or no settling room would answer from empty input)."""
    def read(v) -> int:
        n = int(v)
        if n < least:
            raise ValueError(f"must be >= {least}, got {n}")
        return n
    return read


# One reader per config key; a key means the same in every kind and block.
# `set` reaches predicate_from_name at call time, so a rebound one is used.
READERS = {
    **dict.fromkeys(("anchor", "auto_A_horizon", "m", "n_max", "N_max", "start"), int),
    **dict.fromkeys(("horizon", "k_max", "settle_by"), _int_from(1)),
    "exhaustive_to": _int_from(0),
    **dict.fromkeys(("bound", "decay_tol", "floor", "lim_tol", "pass_tol"), _positive),
    **dict.fromkeys(("delta", "eps", "tail_fraction_min"), _fraction),
    **dict.fromkeys(("anchors", "k_range", "S"), _ints),
    **dict.fromkeys(("anchor_window", "ell_window", "window"), _pair),
    "threshold": _threshold,
    "C_grid": lambda v: [_positive(x) for x in v],
    "coeffs": _optional(_floats),
    "horizons": _optional(_ints),
    "refute_floor": _optional(_positive),
    "mode": orbit.valid_mode,
    "schedule": lambda raw: [(int(k), int(N), [(int(i), _finite(b)) for i, b in terms])
                             for k, N, terms in raw],
    "probes": lambda raw: [(str(label), int(i), _finite(b), int(N))
                           for label, i, b, N in raw],
    "n_seq": n_seq_from_config,
    "set": lambda name: predicate_from_name(name),
    "alphas": MOP_ALPHAS.__getitem__,
    "j0": MOP_J0.__getitem__,
    "j1": MOP_J1.__getitem__,
}
PARAMS = {"set": "D", "auto_A_horizon": "auto_a_horizon",
          "condition_A": "condition_a"}  # config key -> parameter, where they differ


def _read(key: str, raw):
    """READERS[key](raw); a reader's error keeps its type and names the key."""
    try:
        return READERS[key](raw)
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise type(exc)(f"config key {key!r}: {exc}") from exc


@dataclass(frozen=True)
class Check:
    """A check function, looked up on its module at call time (a tracer that
    rebinds it sees the call), and the config keys it reads.  `defaults` are
    config defaults of parameters the function requires (a callable one is
    called with the operator); under a key in
    `blocks` sits an object whose check's report is the argument; `fixed`
    arguments are not config keys."""

    module: Any
    name: str
    keys: tuple[str, ...]
    defaults: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)

    def __call__(self, op: ShiftOperator, node: dict) -> CertificateReport:
        defaults = {k: v(op) if callable(v) else v for k, v in self.defaults.items()}
        args, given = dict(self.fixed), {**defaults, **node}
        for key in (k for k in self.keys if k in given):
            sub = self.blocks.get(key)
            args[PARAMS.get(key, key)] = sub(op, given[key]) if sub else _read(key, given[key])
        if "schedule" in args:
            args["sched"] = dc_cert.schedule_dc(args.pop("m", 1), args.pop("schedule"))
        return getattr(self.module, self.name)(op, **args)


_DC_A = Check(dc_cert, "check_dc_condition_A",
              ("set", "anchors", "horizon", "decay_tol", "k_max",
               "tail_fraction_min"), defaults={"set": "naturals"})
_MLY_A = Check(mly_cert, "check_mly_condition_A",
               ("anchor", "horizon", "pass_tol", "refute_floor", "start"),
               defaults={"anchor": lambda op: op.space.index_set.first})
_B = ("m", "schedule", "mode", "condition_A")  # the condition-(B) checks

# kind -> {trigger: check}: the first check whose trigger key the item has
# runs (None: always).  A check triggered by one of its own keys reads the
# item; any other reads the block under its trigger.
CHECKS: dict[str, dict[str | None, Check]] = {
    "dc": {"refute_A": Check(dc_cert, "refute_dc_condition_A",
                             ("anchors", "horizon", "bound", "delta", "settle_by")),
           "schedule": Check(dc_cert, "check_dc_condition_B", _B,
                             blocks={"condition_A": _DC_A}),
           "condition_A": _DC_A},
    "dc_search": {None: Check(dc_cert, "check_dc_search",
                              ("m", "k_range", "anchor_window", "N_max"))},
    "kothe_dc": {None: Check(dc_cert, "check_kothe_dc", _B,
                             blocks={"condition_A": _DC_A})},
    "lp_c0_dc": {None: Check(dc_cert, "check_lp_c0_dc",
                             ("S", "k_range", "horizons", "eps", "coeffs"))},
    "mop": {None: Check(dc_cert, "check_mop_sufficient",
                        ("alphas", "j0", "j1", "k_range", "n_max", "mode"),
                        defaults={"alphas": "linear", "j0": "one",
                                  "j1": "successor"})},
    "hypercyclicity": {
        "refute": Check(dc_cert, "refute_hypercyclicity",
                        ("horizon", "k_max", "floor")),
        "witness": Check(dc_cert, "check_hypercyclicity_witness",
                         ("n_seq", "ell_window", "decay_tol", "k_max"),
                         defaults={"ell_window": (-5, 5)})},
    "mly": {"schedule": Check(mly_cert, "check_mly_condition_B",
                              _B + ("auto_A_horizon",),
                              blocks={"condition_A": _MLY_A}),
            "condition_A": _MLY_A},
    "kothe_mly": {None: Check(mly_cert, "check_kothe_mly", _B + ("auto_A_horizon",),
                              blocks={"condition_A": _MLY_A})},
    "acb": {None: Check(mly_cert, "check_acb", ("probes", "C_grid"))},
    "f3": {None: Check(mly_cert, "check_f3",
                       ("horizon", "probes", "C_grid", "lim_tol"))},
    "density": {None: Check(density, "check_density",
                            ("set", "horizon", "threshold", "exhaustive_to"))},
    "orbit": {None: replace(_MLY_A, fixed={"include_series": True})},
    "condition_C": {None: Check(sys.modules[__name__], "check_condition_c",
                                ("window", "k_max"))},
}
CHECK_KINDS = tuple(CHECKS)


def _accepted_keys(routes: dict[str | None, Check]) -> dict[str | None, frozenset]:
    item, blocks = {"kind", "expect"}, {}  # expect: read by the expected suite
    for trigger, check in routes.items():
        if trigger is None or trigger in check.keys:
            item.update(check.keys)
            blocks.update((key, frozenset(sub.keys)) for key, sub in check.blocks.items())
        else:
            item.add(trigger)
            blocks[trigger] = frozenset(check.keys)
    return {None: frozenset(item), **blocks}


# kind -> {None: the item's keys, block key: the block's keys}
CHECK_KEYS = {kind: _accepted_keys(routes) for kind, routes in CHECKS.items()}


def run_check(op: ShiftOperator, cfg: dict) -> CertificateReport:
    kind = cfg.get("kind")
    if kind not in CHECKS:
        raise ValueError(f"unknown check kind {kind!r}")
    for trigger, check in CHECKS[kind].items():
        if trigger is None:
            return check(op, cfg)
        if trigger in cfg:
            return check(op, cfg if trigger in check.keys else cfg[trigger])
    raise ValueError(f"{kind} check needs one of: {', '.join(CHECKS[kind])}")


def check_condition_c(op: ShiftOperator, window: tuple[int, int] = (-8, 8),
                      **kw) -> CertificateReport:
    """condition_c_check on the basis vectors of the domain in the window
    and two mixtures of them."""
    lo, hi = window
    js = [j for j in range(lo, hi + 1) if op.space.index_set.contains(j)]
    samples = [SparseVector.basis(j) for j in js]
    samples.append(SparseVector.from_terms([(j, 1.0) for j in js]))
    samples.append(SparseVector.from_terms(
        [(j, (-0.5) ** (abs(j) % 3 + 1)) for j in js]))
    rep = condition_c_check(op.space, samples, **kw)
    rows = [{"samples": rep.checked, "worst_excess": rep.worst_excess,
             "ok": rep.ok}]
    params = {"window": [lo, hi], "k_max": rep.k_max}
    verdict = "passes-at-horizon" if rep.ok else "condition-failed"
    return CertificateReport("condition-C", verdict, params, rows)

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
