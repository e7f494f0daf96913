"""The check table (catalog.CHECKS) against the check functions it calls,
and a fuzz test of the config boundary: mutated catalog configs run through
cli.main never crash, never mix a verdict with an error, and a misspelt
check key is rejected by validation."""

from __future__ import annotations

import contextlib
import copy
import inspect
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftchaos import catalog, sequences
from shiftchaos.cli import main


def _all_checks():
    for kind, routes in catalog.CHECKS.items():
        for check in routes.values():
            yield kind, check
            yield from ((kind, sub) for sub in check.blocks.values())


class TestCheckTable:
    def test_kinds_come_from_the_table(self):
        assert catalog.CHECK_KINDS == tuple(catalog.CHECKS)

    def test_every_key_has_one_reader(self):
        keys = {key for _, check in _all_checks() for key in check.keys
                if key not in check.blocks}
        assert keys == set(catalog.READERS)

    def test_keys_bind_to_the_check_parameters(self):
        for kind, check in _all_checks():
            names = {catalog.PARAMS.get(k, k) for k in check.keys} | set(check.fixed)
            if "schedule" in names:
                names = (names - {"schedule", "m"}) | {"sched"}
            fn = getattr(check.module, check.name)
            inspect.signature(fn).bind_partial(None, **dict.fromkeys(names))
            assert set(check.defaults) <= set(check.keys), kind

    def test_every_catalog_key_is_accepted(self):
        for name in catalog.names():
            for item in catalog.export_config(name)["checks"]:
                accepted = catalog.CHECK_KEYS[item["kind"]]
                assert set(item) <= accepted[None]
                for block, value in item.items():
                    if isinstance(value, dict):
                        assert set(value) <= accepted[block]


# ---------------------------------------------------------------------------
# fuzz: mutated copies of three quick catalog entries through cli.main

FUZZ_ENTRIES = ("rolewicz_lp_N", "unweighted_lp_N", "halfweights_bilateral")
MAX_HORIZON = 10_000
REPLACEMENTS = ("x", [], [1], None, 0, -3)


def _paths(node, path=()):
    """Every (container path, key or index) in the document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path, key
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _clamp_horizons(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("horizon", "N_max", "n_max") and isinstance(value, int):
                node[key] = min(value, MAX_HORIZON)
            else:
                _clamp_horizons(value)
    elif isinstance(node, list):
        for value in node:
            _clamp_horizons(value)


@st.composite
def mutated_configs(draw):
    doc = catalog.export_config(draw(st.sampled_from(FUZZ_ENTRIES)))
    op = draw(st.sampled_from(("drop", "rename", "replace", "misspell")))
    if op == "misspell":
        i = draw(st.integers(0, len(doc["checks"]) - 1))
        item = doc["checks"][i]
        key = draw(st.sampled_from(sorted(k for k in item if k != "kind")))
        at = draw(st.integers(0, len(key) - 1))
        wrong = key[:at] + key[at] + key[at:]  # one letter doubled
        if wrong in catalog.CHECK_KEYS[item["kind"]][None]:
            wrong += "_"
        item[wrong] = item.pop(key)
        return doc, True
    path, key = draw(st.sampled_from(list(_paths(doc))))
    parent = _at(doc, path)
    if op == "replace":
        parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    elif isinstance(parent, dict) and op == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[key + "x"] = parent.pop(key)
    else:
        del parent[key]
    _clamp_horizons(doc)
    return doc, False


def _cli(path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def _run_item(entry: str, item: dict) -> tuple[int, str, str]:
    doc = catalog.export_config(entry)
    doc["checks"] = [item]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        return _cli(path)


# A check over no levels, no horizon or no settling room would answer from
# empty input: k_max 0 gave refuted-at-horizon (hypercyclicity) and
# condition-A-holds-at-horizon (condition A) with no rows.
OUT_OF_RANGE = [
    ("ex1_s_Z_hc_not_dc", {"kind": "hypercyclicity",
                           "refute": {"horizon": 100, "k_max": 0}}, "k_max", 1),
    ("ex2_kothe_dc_not_hc", {"kind": "dc", "condition_A": {
        "anchors": [1], "horizon": 100, "k_max": 0}}, "k_max", 1),
    ("ex1_s_Z_hc_not_dc", {"kind": "density", "set": "naturals", "horizon": 100,
                           "exhaustive_to": -5}, "exhaustive_to", 0),
    ("ex1_s_Z_hc_not_dc", {"kind": "dc", "refute_A": {
        "anchors": [0], "horizon": 100, "settle_by": 0}}, "settle_by", 1),
    ("ex1_s_Z_hc_not_dc", {"kind": "dc", "refute_A": {
        "anchors": [0], "horizon": 100, "settle_by": -3}}, "settle_by", 1),
    ("ex1_s_Z_hc_not_dc", {"kind": "density", "set": "naturals", "horizon": 0},
     "horizon", 1),
]


@pytest.mark.parametrize("entry, item, key, least", OUT_OF_RANGE)
def test_values_below_a_keys_range_are_rejected(entry, item, key, least):
    code, out, err = _run_item(entry, item)
    assert code == 3 and out == ""
    assert err.startswith(f"error: config key {key!r}: must be >= {least}, got ")
    assert err.count("\n") == 1
    # the least accepted value runs the check
    node = item if key in item else next(v for v in item.values() if isinstance(v, dict))
    node[key] = least
    code, out, err = _run_item(entry, item)
    assert code in (0, 1, 2) and err == ""


# horizons [-50, 100] read passes-at-horizon with a row N_k -50, count 50;
# [0, 100] passed its first level vacuously
@pytest.mark.parametrize("key, value, message", [
    ("horizons", [-50, 100], "horizons must be >= 1, got -50"),
    ("horizons", [0, 100], "horizons must be >= 1, got 0"),
    ("S", [0], "index 0 in S is outside the domain N"),
])
def test_lp_c0_dc_inputs_off_their_range_exit_3(key, value, message):
    item = {"kind": "lp_c0_dc", "S": [1000], "k_range": [1, 2], "horizons": [50, 100]}
    item[key] = value
    assert _run_item("rolewicz_lp_N", item) == (3, "", f"error: {message}\n")


# an anchor names a basis vector e_i: on N, anchor 0 read condition (A)
# holding (dc and mly) and the refutation inconclusive
@pytest.mark.parametrize("item", [
    {"kind": "dc", "condition_A": {"anchors": [5, 0], "horizon": 100}},
    {"kind": "dc", "refute_A": {"anchors": [0], "horizon": 100}},
    {"kind": "mly", "condition_A": {"anchor": 0, "horizon": 100}},
], ids=["dc-condition-A", "dc-refute-A", "mly-condition-A"])
def test_anchors_off_the_domain_exit_3(item):
    assert _run_item("rolewicz_lp_N", item) == (
        3, "", "error: anchor 0 is outside the domain N\n")


@pytest.mark.parametrize("entry, item, anchor, exit_code", [
    ("rolewicz_lp_N", {"kind": "orbit", "horizon": 40}, 1, 0),
    ("rolewicz_lp_N", {"kind": "mly", "condition_A": {"horizon": 100}}, 1, 0),
    ("ex1_s_Z_hc_not_dc", {"kind": "orbit", "horizon": 40}, 0, 2),
], ids=["orbit-on-N", "mly-condition-A-on-N", "orbit-on-Z"])
def test_a_left_out_anchor_is_the_domains_first_index(entry, item, anchor, exit_code):
    # the default was 0 on every domain, so on N both items exited 3
    code, out, err = _run_item(entry, item)
    assert (code, err) == (exit_code, "")
    assert f"param anchor = {anchor}\n" in out


NAN = float("nan")
WITNESS_L2_N = {"kind": "hypercyclicity",
                "witness": {"n_seq": [1, 2, 3, 4, 5], "ell_window": [5, 5]}}

# Every comparison with NaN is false, so a NaN tolerance read as a pass:
# the witness below read "witnessed" (exit 0), the refutation
# "condition-A-refuted-at-horizon" and condition (A) "holds".
NOT_FINITE = [
    ("unweighted_lp_N", WITNESS_L2_N, "witness", "decay_tol"),
    ("ex1_s_Z_hc_not_dc", {"kind": "dc", "refute_A": {
        "anchors": [0], "horizon": 100, "bound": 0.5, "settle_by": 50}},
     "refute_A", "delta"),
    ("ex1_s_Z_hc_not_dc", {"kind": "dc", "condition_A": {
        "anchors": [0], "horizon": 100, "k_max": 2}}, "condition_A", "decay_tol"),
]


@pytest.mark.parametrize("entry, item, block, key", NOT_FINITE)
@pytest.mark.parametrize("value", [NAN, float("inf")])
def test_non_finite_floats_are_rejected(entry, item, block, key, value):
    item = copy.deepcopy(item)
    item[block][key] = value
    code, out, err = _run_item(entry, item)
    assert (code, out) == (3, "")
    assert err == f"error: config key {key!r}: must be finite, got {value}\n"


def test_unit_weights_do_not_witness_decay():
    item = copy.deepcopy(WITNESS_L2_N)
    item["witness"]["decay_tol"] = 1e-6
    code, out, err = _run_item("unweighted_lp_N", item)
    assert code == 2 and err == "" and "not-witnessed-at-depth" in out


# ln of these is taken: 0 exited 3 with a bare "math domain error"
@pytest.mark.parametrize("entry, item, key, path", [
    ("unweighted_lp_N", WITNESS_L2_N, "decay_tol", ("witness", "decay_tol")),
    ("ex1_s_Z_hc_not_dc", NOT_FINITE[1][1], "bound", ("refute_A", "bound")),
    ("ex1_s_Z_hc_not_dc", {"kind": "hypercyclicity", "refute": {"horizon": 100}},
     "floor", ("refute", "floor")),
    ("rolewicz_lp_N", {"kind": "acb", "probes": [["e[5]", 5, 1.0, 100]]},
     "C_grid", ("C_grid",)),
])
@pytest.mark.parametrize("value", [0, -2.0])
def test_logged_floats_must_be_positive(entry, item, key, path, value):
    item = copy.deepcopy(item)
    node = item
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = [1.0, value] if key == "C_grid" else value
    code, out, err = _run_item(entry, item)
    assert (code, out) == (3, "")
    assert err == f"error: config key {key!r}: must be > 0, got {float(value)}\n"


# Each rejected value read a verdict its check's argument does not support:
# threshold [-1, 6] passed the density check, tail_fraction_min -1 held
# condition (A) with 997 of 1,000 n violating, eps 0 passed lp_c0_dc, delta
# -1 refuted condition (A) and refute_floor -1 refuted MLY condition (A).
# (entry, item, key, rejected value, message, a value in range)
MLY_A = {"kind": "mly", "condition_A": {"anchor": 0, "horizon": 100}}
OFF_RANGE = [
    ("ex1_s_Z_hc_not_dc", {"kind": "density", "set": "naturals", "horizon": 100},
     "threshold", [-1, 6], "must be two integers with 0 <= num < den, got -1/6", [1, 6]),
    ("ex2_kothe_dc_not_hc", {"kind": "dc", "condition_A": {
        "anchors": [1], "horizon": 1000, "decay_tol": 1e-300}},
     "tail_fraction_min", -1, "must lie in (0, 1), got -1.0", 0.5),
    ("rolewicz_lp_N", {"kind": "lp_c0_dc", "S": [1000], "k_range": [1, 2]},
     "eps", 0, "must lie in (0, 1), got 0.0", 1e-2),
    ("ex1_s_Z_hc_not_dc", {"kind": "dc", "refute_A": {"anchors": [0], "horizon": 100}},
     "delta", -1, "must lie in (0, 1), got -1.0", 1 / 6),
    ("ex3_s_Z_hc_not_mly", MLY_A, "refute_floor", -1, "must be > 0, got -1.0", 0.9),
    ("ex3_s_Z_hc_not_mly", MLY_A, "pass_tol", 0, "must be > 0, got 0.0", 1e-3),
    ("halfweights_bilateral", {"kind": "f3", "horizon": 100, "probes": [["e[0]", 0, 1.0, 50]],
                               "C_grid": [1.0]}, "lim_tol", -1e-3, "must be > 0, got -0.001",
     1e-3),
]


@pytest.mark.parametrize("entry, item, key, value, message, in_range", OFF_RANGE,
                         ids=[case[2] for case in OFF_RANGE])
def test_fractions_and_tolerances_off_their_range_exit_3(entry, item, key, value,
                                                         message, in_range):
    item = copy.deepcopy(item)
    node = next((v for v in item.values() if isinstance(v, dict)), item)
    node[key] = value
    assert _run_item(entry, item) == (3, "", f"error: config key {key!r}: {message}\n")
    node[key] = in_range
    code, out, err = _run_item(entry, item)
    assert code in (0, 1, 2) and err == ""


def test_exhaustive_prefix_past_the_member_walk_bound_exits_3():
    # the prefix is held whole: 10**9 indices would take about 55 GB
    item = {"kind": "density", "set": "expanding-product-blocks", "horizon": 10**9,
            "exhaustive_to": 10**9}
    code, out, err = _run_item("ex1_s_Z_hc_not_dc", item)
    assert code >= 3 and out == ""
    assert err == ("error: exhaustive_to counts members one by one, so at most 200000; "
                   "got 1000000000\n")


def test_block_cache_cap_exits_3(monkeypatch):
    monkeypatch.setattr(sequences, "MAX_CACHED_BLOCKS", 50)
    item = {"kind": "hypercyclicity", "witness": {"n_seq": [10**4], "ell_window": [0, 0]}}
    code, out, err = _run_item("ex1_s_Z_hc_not_dc", item)
    assert (code, out) == (3, "")
    assert err.startswith("error: offset ") and err.endswith(" past the 50 blocks a layout side caches\n")


@settings(max_examples=150, database=None)
@given(mutated_configs())
def test_mutated_configs_exit_cleanly(case):
    doc, misspelt = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, err = _cli(path)
    assert code in (0, 1, 2) or code >= 3
    assert "Traceback" not in out + err
    if code >= 3:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if misspelt:
        assert code == 3 and err.startswith("error: config rejected at checks/")


def test_fuzz_entries_run_within_the_horizon_clamp():
    for name in FUZZ_ENTRIES:
        doc = catalog.export_config(name)
        for item in doc["checks"]:
            assert all(item.get(k, 0) <= MAX_HORIZON for k in ("horizon", "N_max", "n_max"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            assert _cli(path)[0] in (0, 1, 2)
