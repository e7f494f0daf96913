"""CLI driver: exit-code classes, formats, determinism, validation errors."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from shiftchaos import catalog
from shiftchaos.cli import main, validate_config, CLIError
from shiftchaos.dc_cert import WitnessTerm, single_term_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSuiteMode:
    def test_bare_example_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "ex2_kothe_dc_not_hc")
        assert code == 0
        assert "agrees" in out

    @pytest.mark.parametrize("name", ["ex1_s_Z_hc_not_dc", "rolewicz_lp_N",
                                      "unweighted_lp_N"])
    def test_all_suites_exit_zero(self, capsys, name):
        code, out, _ = run_cli(capsys, "run", "--example", name)
        assert code == 0


class TestVerdictClassMode:
    def test_negative_check_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "unweighted_lp_N",
                               "--check", "dc_search")
        assert code == 1
        assert "no-witness-found-at-horizon" in out

    def test_positive_check_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "ex2_kothe_dc_not_hc",
                               "--check", "dc")
        assert code == 0
        assert "condition-B-holds-at-horizon" in out or "certified" in out

    def test_inconclusive_exits_two(self, capsys, tmp_path):
        cfg = catalog.export_config("rolewicz_lp_N")
        # a deep anchor neither dips nor clears a refutation floor
        cfg["checks"] = [{"kind": "mly",
                          "condition_A": {"anchor": 1000, "horizon": 200}}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "inconclusive" in out

    def test_exported_refutation_entry_exits_one(self, capsys, tmp_path):
        # entries whose checks include deliberate refutations report class 1
        path = tmp_path / "ex4.json"
        path.write_text(json.dumps(catalog.export_config("ex4_lp_mly_not_hc")))
        code, out, _ = run_cli(capsys, "run", "--config", str(path))
        assert code == 1


class TestHorizonOverride:
    def test_override_applies_everywhere(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "ex3_s_Z_hc_not_mly",
                               "--check", "mly", "--horizon", "5000",
                               "--format", "json")
        assert code == 1  # the refutation still holds at the shorter horizon
        doc = json.loads(out)
        assert [c["params"]["horizon"] for c in doc["checks"]] == [5000]


class TestErrors:
    def test_requires_exactly_one_source(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        code, _, err = run_cli(capsys, "run")
        assert code == 3 and "exactly one" in err
        code, _, err = run_cli(capsys, "run", "--config", str(path),
                               "--example", "rolewicz_lp_N")
        assert code == 3 and "exactly one" in err

    def test_unknown_example(self, capsys):
        code, _, err = run_cli(capsys, "run", "--example", "nope")
        assert code == 3

    def test_unknown_check_kind(self, capsys):
        code, _, err = run_cli(capsys, "run", "--example", "rolewicz_lp_N",
                               "--check", "nope")
        assert code == 3

    def test_check_kind_absent_from_entry(self, capsys):
        code, _, err = run_cli(capsys, "run", "--example", "rolewicz_lp_N",
                               "--check", "f3")
        assert code == 3 and "no check of kind" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config",
                               str(tmp_path / "absent.json"))
        assert code == 3 and "cannot read config" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3 and "cannot read config" in err

    def test_schema_rejection_message(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert "config rejected at (top level):" in err
        assert "required property" in err

    def test_schema_rejects_bad_subtree(self, tmp_path):
        cfg = catalog.export_config("rolewicz_lp_N")
        cfg["space"]["kind"] = "hilbert"
        with pytest.raises(CLIError, match="config rejected at space"):
            validate_config(cfg)

    def test_exported_configs_validate(self):
        for name in catalog.names():
            validate_config(catalog.export_config(name))


_LP2_DOUBLING = ('"index_set": "N", "space": {"kind": "lp", "p": 2}, '
                 '"weights": {"entries": {"kind": "constant", "value": 2.0}}')

# schema-valid configs that fail inside the checks; written as text because
# json.dumps cannot produce the 1e400 literal
MALFORMED_CONFIGS = {
    "probes-not-a-list": (
        '{"schema_version": 1, ' + _LP2_DOUBLING +
        ', "checks": [{"kind": "acb", "probes": 5}]}', "TypeError"),
    "infinite-horizon": (
        '{"schema_version": 1, ' + _LP2_DOUBLING +
        ', "checks": [{"kind": "hypercyclicity", "refute": {"horizon": 1e400}}]}',
        "OverflowError"),
    "string-template-param": (
        '{"schema_version": 1, "index_set": "Z", "space": {"kind": "s", "p": 1}, '
        '"weights": {"negative": {"kind": "blocks", "template": '
        '"alternating_powers", "params": {"base": "3"}, "origin": -1, '
        '"direction": -1}, "nonnegative": {"kind": "constant", "value": 2.0}}, '
        '"checks": [{"kind": "hypercyclicity", "refute": {"horizon": 100}}]}',
        "TypeError"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("label", sorted(MALFORMED_CONFIGS))
    def test_exits_three_with_one_line(self, capsys, tmp_path, label):
        text, exc_type = MALFORMED_CONFIGS[label]
        path = tmp_path / f"{label}.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith(f"error: {exc_type}: ")
        assert err.count("\n") == 1


class TestFormats:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "rolewicz_lp_N",
                               "--check", "lp_c0_dc", "--format", "json")
        doc = json.loads(out)
        assert doc["name"] == "rolewicz_lp_N"
        for check in doc["checks"]:
            assert {"kind", "verdict", "params", "rows"} <= set(check)

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "rolewicz_lp_N",
                               "--check", "lp_c0_dc", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "# rolewicz_lp_N"
        assert any(line.startswith("# check=") for line in lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert "," in header

    def test_report_format_mentions_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--example", "rolewicz_lp_N",
                               "--check", "lp_c0_dc")
        assert "run: rolewicz_lp_N" in out
        assert "verdict" in out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "run", "--example", "rolewicz_lp_N",
                               "--check", "lp_c0_dc", "--format", "json",
                               "--out", str(path))
        assert code == 0 and out == ""
        json.loads(path.read_text())

    def test_byte_identical_reruns(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "run", "--example",
                                "ex3_s_Z_hc_not_mly", "--format", "json")
            outs.append(out)
        assert outs[0] == outs[1]


class TestExportAndList:
    def test_export_round_trips(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "export", "--example",
                               "halfweights_bilateral")
        assert code == 0
        assert json.loads(out) == catalog.export_config("halfweights_bilateral")

    def test_export_then_run(self, capsys, tmp_path):
        path = tmp_path / "hw.json"
        run_cli(capsys, "export", "--example", "halfweights_bilateral",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "run", "--config", str(path))
        # refutation checks inside the entry put the rerun in class 1
        assert code in (0, 1)
        assert "verdict" in out

    def test_list_names(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in catalog.names():
            assert name in out


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from shiftchaos.cli import main; "
             "sys.exit(main(['list']))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "rolewicz_lp_N" in proc.stdout


class TestWitnessDomain:
    # a witness index off the one-sided domain is an input error in every
    # condition-(B) check, not a verdict
    @pytest.mark.parametrize("kind", ["dc", "kothe_dc", "mly", "kothe_mly"])
    def test_off_domain_witness_exits_three(self, capsys, tmp_path, kind):
        cfg = catalog.export_config("rolewicz_lp_N")
        cfg["checks"] = [{"kind": kind, "m": 1, "schedule": [[2, 50, [[0, 1.0]]]]}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: vector has support at 0 outside IndexSet.N\n"


class TestRouteErrors:
    def _run(self, capsys, tmp_path, name, check):
        cfg = catalog.export_config(name)
        cfg["checks"] = [check]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_cli(capsys, "run", "--config", str(path))

    # mop's window scan can run out before any level reads its mode, so the
    # mode is read as a config value in every kind
    @pytest.mark.parametrize("kind", ["dc", "kothe_dc", "mly", "kothe_mly", "mop"])
    def test_unknown_mode_exits_three(self, capsys, tmp_path, kind):
        check = {"kind": kind, "m": 1, "schedule": [[2, 50, [[60, 1.0]]]]}
        if kind == "mop":
            check = next(c for c in catalog.export_config("unweighted_lp_N")["checks"]
                         if c["kind"] == "mop")
        check["mode"] = "bogus"
        code, out, err = self._run(capsys, tmp_path, "unweighted_lp_N", check)
        assert (code, out) == (3, "")
        assert err == "error: config key 'mode': unknown mode 'bogus'\n"

    @pytest.mark.parametrize("kind, mode, terms, horizon, message", [
        ("dc", "pieces", [[60, 1.0], [61, 1.0]], 50,
         "piecewise route handles single-term witnesses only"),
        ("dc", "dense", [[60, 1.0]], 30_000_000,
         "dense route too large (1 terms, horizon 30000000); "
         "single-term schedules can use mode='pieces'"),
        ("mly", "auto", [[60, 1.0], [61, 1.0]], 30_000_000,
         "no feasible route: multi-term witness at a horizon beyond the dense cap"),
    ])
    def test_infeasible_route_exits_three(self, capsys, tmp_path, kind, mode, terms,
                                          horizon, message):
        check = {"kind": kind, "m": 1, "mode": mode, "schedule": [[2, horizon, terms]]}
        code, out, err = self._run(capsys, tmp_path, "rolewicz_lp_N", check)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"


class TestVanishingOrbit:
    # e_1 on N is annihilated at every n >= 1: the average is 0, so the MLY
    # level fails (exit 1) on every route; the count route reads no terms
    @pytest.mark.parametrize("mode", ["auto", "dense", "pieces"])
    @pytest.mark.parametrize("name", ["rolewicz_lp_N", "unweighted_lp_N"])
    def test_mly_level_fails(self, capsys, tmp_path, name, mode):
        cfg = catalog.export_config(name)
        cfg["checks"] = [{"kind": "mly", "m": 1, "mode": mode,
                          "schedule": [[1, 10, [[1, 1.0]]]]}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path),
                                 "--format", "json")
        assert (code, err) == (1, "")
        [row] = json.loads(out)["checks"][0]["rows"]
        assert row["pass"] is False
        assert row["average"] == {"decimal": "0", "logmag": "-inf", "sign": 0}

    def test_count_route_reads_no_terms(self):
        op = catalog.build_example("unweighted_lp_N")
        assert single_term_counts(op, WitnessTerm.of(1, 1.0), 1, 10) == {}


class TestCheckKeys:
    def _run(self, capsys, tmp_path, check):
        cfg = catalog.export_config("rolewicz_lp_N")
        cfg["checks"] = [catalog.export_config("rolewicz_lp_N")["checks"][0], check]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_cli(capsys, "run", "--config", str(path))

    def test_misspelt_item_key_rejected(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, {
            "kind": "acb", "probes": [["e[1000]", 1000, 1.0, 20]], "C_gird": [1.0]})
        assert code == 3 and out == ""
        assert err.startswith("error: config rejected at checks/1: unknown key 'C_gird'")

    def test_misspelt_block_key_rejected(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, {
            "kind": "hypercyclicity", "refute": {"horizion": 100}})
        assert code == 3 and out == ""
        assert err.startswith("error: config rejected at checks/1/refute: "
                              "unknown key 'horizion'")

    def test_condition_a_block_of_a_schedule_check(self, capsys, tmp_path):
        code, _, err = self._run(capsys, tmp_path, {
            "kind": "mly", "schedule": [[1, 5, [[1000, 1.0]]]],
            "condition_A": {"anchor": 0, "horizon": 10, "decay_tol": 1e-6}})
        assert code == 3
        assert "config rejected at checks/1/condition_A: unknown key 'decay_tol'" in err

    @pytest.mark.parametrize("key", ["horizon_a", "decay_tol", "k_max_a", "pass_tol"])
    def test_removed_condition_a_options_rejected(self, capsys, tmp_path, key):
        kind = "mly" if key == "pass_tol" else "dc"
        code, _, err = self._run(capsys, tmp_path, {
            "kind": kind, "schedule": [[1, 5, [[1000, 1.0]]]], key: 1})
        assert code == 3
        assert f"config rejected at checks/1: unknown key '{key}'" in err

    def test_removed_search_option_rejected(self, capsys, tmp_path):
        # the witness search is single-term; it takes no r_max
        code, out, err = self._run(capsys, tmp_path, {
            "kind": "dc_search", "k_range": [1], "r_max": 2})
        assert code == 3 and out == ""
        assert "config rejected at checks/1: unknown key 'r_max'" in err


class TestReaderErrors:
    # schema-valid values a key's reader cannot take: the one error line
    # names the key
    @pytest.mark.parametrize("key,check", [
        ("ell_window", {"kind": "hypercyclicity",
                        "witness": {"n_seq": [1, 2, 3], "ell_window": [1]}}),
        ("alphas", {"kind": "mop", "alphas": "bogus"}),
        ("probes", {"kind": "acb", "probes": [["e[1000]", 1000, 1.0]]}),
        ("schedule", {"kind": "dc", "schedule": [[2, 50]]}),
    ])
    def test_error_names_the_key(self, capsys, tmp_path, key, check):
        cfg = catalog.export_config("rolewicz_lp_N")
        cfg["checks"] = [check]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"config key '{key}'" in err
