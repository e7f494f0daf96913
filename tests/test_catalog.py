"""Catalog entries: frozen closed forms, expected suites, config export."""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from shiftchaos import catalog
from shiftchaos.sequences import run_arrays
from shiftchaos.spaces import IndexSet

ALL_NAMES = [
    "ex1_s_Z_hc_not_dc",
    "ex2_kothe_dc_not_hc",
    "ex3_s_Z_hc_not_mly",
    "ex4_lp_mly_not_hc",
    "rolewicz_lp_N",
    "unweighted_lp_N",
    "halfweights_bilateral",
]


def _dense(seq, js):
    """Values over the range js from one run read, repeated over the run
    counts (one values_array on a sequence without runs)."""
    values, counts = run_arrays(seq, int(js[0]), int(js[-1]))
    return values if counts is None else np.repeat(values, counts)


class TestFrozenForms:
    def test_segment_end_values(self):
        assert [catalog.segment_end(t) for t in range(1, 7)] == [
            12, 116, 1122, 11130, 111140, 1111152]

    def test_segment_end_recurrence(self):
        # each segment adds a ramp pair (2t entries) plus a 10^t plateau
        for t in range(2, 12):
            step = 2 * t + 10 ** t
            assert catalog.segment_end(t) == catalog.segment_end(t - 1) + step

    def test_probe_dip_forms(self):
        alt = catalog.N_SEQ_FORMS["alternating-powers-dip"]
        tho = catalog.N_SEQ_FORMS["twos-halves-ones-dip"]
        assert [alt(k) for k in (1, 2, 3)] == [3, 14, 33]
        assert [tho(k) for k in (1, 2, 3)] == [2, 9, 23]

    def test_n_seq_from_config(self):
        assert catalog.n_seq_from_config([5, 9, 12]) == [5, 9, 12]
        got = catalog.n_seq_from_config(
            {"form": "alternating-powers-dip", "count": 3})
        assert got == [3, 14, 33]
        with pytest.raises(ValueError):
            catalog.n_seq_from_config({"form": "no-such-form"})

    def test_mop_registries(self):
        assert catalog.MOP_ALPHAS["linear"](7) == 7.0
        assert catalog.MOP_J0["one"](7) == 1
        assert catalog.MOP_J1["successor"](7) == 8
        assert (catalog.MOP_J1["ramp-plateau-segment-end"](3)
                == catalog.segment_end(3) == 1122)

    def test_predicates(self):
        assert catalog.predicate_from_name("naturals").member(5)
        assert not catalog.predicate_from_name("evens").member(5)
        with pytest.raises(ValueError):
            catalog.predicate_from_name("odds")


class TestEntries:
    def test_names_frozen(self):
        assert catalog.names() == ALL_NAMES

    def test_get(self):
        entry = catalog.get("rolewicz_lp_N")
        assert entry.name == "rolewicz_lp_N"
        assert entry.description
        with pytest.raises(ValueError):
            catalog.get("no_such_entry")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_weight_blocks_match_pointwise(self, name):
        # vectorized runs arithmetic against one-index-at-a-time reads
        op = catalog.build_example(name)
        seq = op.weights.seq
        if op.space.index_set is IndexSet.Z:
            js = np.arange(-10_000, 10_001)
        else:
            js = np.arange(1, 10_001)
        dense = _dense(seq, js)
        for j, v in zip(js[::97], dense[::97]):
            assert seq.value_at(int(j)) == v

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matrix_base_blocks_match_pointwise(self, name):
        op = catalog.build_example(name)
        base = op.space.matrix.base
        if base is None:  # custom log rows have no base sequence
            assert op.space.matrix.rule == "custom"
            return
        if op.space.index_set is IndexSet.Z:
            js = np.arange(-10_000, 10_001)
        else:
            js = np.arange(1, 10_001)
        dense = _dense(base, js)
        for j, v in zip(js[::89], dense[::89]):
            assert base.value_at(int(j)) == v


class TestExpectedSuites:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_suite_agrees(self, name):
        rep = catalog.run_expected_suite(name)
        assert rep.verdict == "agrees"
        assert rep.rows, "every entry carries at least one check"
        for row in rep.rows:
            assert row["agrees"], f"{row['check']}: {row['actual']}"


class TestExportConfig:
    def test_deepcopy_isolation(self):
        a = catalog.export_config("ex4_lp_mly_not_hc")
        a["space"]["p"] = 99.0
        a["checks"].clear()
        b = catalog.export_config("ex4_lp_mly_not_hc")
        assert b["space"]["p"] != 99.0
        assert b["checks"]

    def test_deterministic_serialization(self):
        for name in ALL_NAMES:
            one = json.dumps(catalog.export_config(name), sort_keys=True)
            two = json.dumps(catalog.export_config(name), sort_keys=True)
            assert one == two

    def test_exported_config_rebuilds(self):
        cfg = catalog.export_config("ex2_kothe_dc_not_hc")
        op = catalog.operator_from_config(copy.deepcopy(cfg))
        assert op.space.index_set is IndexSet.Z
        assert op.space.p == 1.0

    def test_p_override(self):
        op = catalog.build_example("rolewicz_lp_N", p=0)
        assert op.space.p == 0.0
        op = catalog.build_example("rolewicz_lp_N", p=1)
        assert op.space.p == 1.0
        base = catalog.build_example("rolewicz_lp_N")
        assert base.space.p == 2.0


class TestRunCheck:
    def test_unknown_kind(self, rolewicz_op):
        with pytest.raises(ValueError):
            catalog.run_check(rolewicz_op, {"kind": "no-such-check"})

    def test_density_dispatch(self, ex1_op):
        cfg = next(c for c in catalog.export_config("ex1_s_Z_hc_not_dc")
                   ["checks"] if c["kind"] == "density")
        rep = catalog.run_check(ex1_op, cfg)
        assert rep.verdict == cfg["expect"]


# SHA-256 of the scripts/run_catalog.py document; it holds only verdicts and
# fixed-precision numbers, so it is the same on every platform
CATALOG_SHA256 = "9b06c0d03be4fa4de31f1a463dd791295da0fb6099bc1a219c74b5ed63fa9035"


def test_run_catalog_document_is_pinned(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog.py"
    spec = importlib.util.spec_from_file_location("run_catalog", script)
    run_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_catalog)
    out = tmp_path / "catalog.json"
    assert run_catalog.main(["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CATALOG_SHA256
