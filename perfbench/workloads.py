"""Seeded inputs, expected outputs and pinned hashes of the four workloads.

Every workload is closed loop with one caller in one process.  The seed
only picks values from ranges on which the expected verdict is fixed (each
range was run value by value with `verify_ranges.py`; see README.md) and
shuffles the order of work within a pass, so the amount of work per pass is
nearly the same for every seed.

Batch workloads (catalog, deep-horizon, dense-sweep) hand shiftchaos only
config documents, through `catalog.operator_from_config`,
`catalog.run_check` and `catalog.run_expected_suite`.  The cli-cold
workload starts a fresh `shiftchaos` process per invocation.
"""

from __future__ import annotations

import hashlib
import json
import random

# SHA-256 of the scripts/run_catalog.py document (Python 3.11, numpy 2.4).
CATALOG_SHA256 = "9b06c0d03be4fa4de31f1a463dd791295da0fb6099bc1a219c74b5ed63fa9035"
# SHA-256 of each entry's expected-suite dict, serialized the same way; they
# attribute a document mismatch to the checks of one entry.
SUITE_SHA256 = {
    "ex1_s_Z_hc_not_dc": "f1b37db834b13120c3758294c768f634f5e64ec456c75828a0db810c0bb34fb2",
    "ex2_kothe_dc_not_hc": "d6315a4b11faa310fa347068c50dd254dfa2cf870a6d412ca1924e4f269c6e35",
    "ex3_s_Z_hc_not_mly": "3f4128ea9bbd66f82113007932be8638bbfb9e4794b14b7661392f8b8ba0543b",
    "ex4_lp_mly_not_hc": "4d7af1aa9a286af4b268b79e0add42831bc23bcaa5cf47c247103035f851786e",
    "rolewicz_lp_N": "c8a4d0f1e904d14fb30a8d038bc020ac49ff093b66941771c19d53a0b07e61ed",
    "unweighted_lp_N": "fa434cf7205deea26b84df9f6de6065bc7719d2cc12a9d38ef80c4592a6cd054",
    "halfweights_bilateral": "446cff4ed9dda82f4c6bbb23c0bd5b9d7d6d9ceede60dddf09ca2b5d9bb7c1c2",
}

# Seeded ranges.  Each range keeps the expected verdict fixed and keeps the
# cost of a pass within a few percent of its centre.
HYPER_COUNT = (129, 131)        # probes in the ex1/ex3 witness sequences
HYPER_WINDOW_LO = (-7, -3)      # ell window is [lo, lo + 10]
SEGMENT_STEP = 20               # deep levels sit at segment c*k ...
SEGMENT_JITTER = (-2, 2)        # ... plus this per-level offset
ACB_FIXED = (8, 9, 10)          # shallowest ACB probes: segment_end(8) > MAX_DENSE,
                                # so no ACB probe takes the dense route
ACB_MID = (15, 30)              # segment of the middle ACB probe
ACB_TOP = (196, 204)            # segment of the deepest ACB probe
CROSS_LEVEL = (2, 6)            # deep level rerun on the dense route
CROSS_SEGMENT = 6               # at N = segment_end(6) <= MAX_DENSE
DENSE_ANCHOR = (-3, 3)          # refute_A and MLY condition A anchors
DENSE_A_ANCHORS = (-4, 4)       # DC condition A draws 5 anchors from here
DENSE_SECOND_TERM = (-2, -1, 1, 2)  # offsets of a dense witness's second term

# Dense sizes: one table at 1e7 (working set about 0.6 GB, twice a 300 MiB
# LLC); the rest sized so a pass stays near 5 s.
DENSE_REFUTE_A_HORIZON = 10_000_000
DENSE_DENSITY_HORIZON = 3_000_000
DENSE_HC_REFUTE_HORIZON = 4_000_000
DENSE_A_HORIZON = 500_000


def segment_end(t: int) -> int:
    """Last index of segment t of the ramp/plateau layout (catalog.segment_end)."""
    return t * (t + 1) + (10 ** (t + 1) - 10) // 9


class Op:
    """One check: the entry whose config builds the operator, the check
    config handed to catalog.run_check, and the verdict it must produce."""

    def __init__(self, label: str, entry: str, check: dict, expect: str):
        self.label = label
        self.entry = entry
        self.check = check
        self.expect = expect


def _hyper_witness(rng, form: str) -> dict:
    lo = rng.randint(*HYPER_WINDOW_LO)
    return {"kind": "hypercyclicity",
            "witness": {"n_seq": {"form": form, "count": rng.randint(*HYPER_COUNT)},
                        "ell_window": [lo, lo + 10], "decay_tol": 1e-6,
                        "k_max": 4}}


def _deep_schedule(rng, levels) -> list:
    out = []
    for k in levels:
        s = SEGMENT_STEP * k + rng.randint(*SEGMENT_JITTER)
        out.append([k, segment_end(s), [[segment_end(s), 1.0]]])
    return out


def acb_probes(segments) -> list:
    return [[f"e[{segment_end(t)}]", segment_end(t), 1.0, segment_end(t)]
            for t in segments]


def deep_horizon_ops(seed: int) -> list[Op]:
    """Run-structured routes only: run walks and piecewise envelopes at
    indices and horizons far beyond any dense table."""
    rng = random.Random(seed)
    acb = acb_probes([*ACB_FIXED, rng.randint(*ACB_MID), rng.randint(*ACB_TOP)])
    return [
        Op("ex1-hypercyclicity", "ex1_s_Z_hc_not_dc",
           _hyper_witness(rng, "alternating-powers-dip"), "witnessed"),
        Op("ex3-hypercyclicity", "ex3_s_Z_hc_not_mly",
           _hyper_witness(rng, "twos-halves-ones-dip"), "witnessed"),
        Op("ex2-dc-pieces", "ex2_kothe_dc_not_hc",
           {"kind": "dc", "m": 1, "mode": "pieces",
            "schedule": _deep_schedule(rng, range(2, 7))},
           "condition-B-holds-at-horizon"),
        Op("ex4-mly-pieces", "ex4_lp_mly_not_hc",
           {"kind": "mly", "m": 1, "mode": "pieces", "auto_A_horizon": 0,
            "schedule": _deep_schedule(rng, range(1, 7))},
           "condition-B-holds-at-horizon"),
        Op("ex4-acb", "ex4_lp_mly_not_hc",
           {"kind": "acb", "probes": acb, "C_grid": [1.0, 10.0, 100.0]},
           "falsified-at-horizon"),
    ]


def deep_cross_check(seed: int) -> tuple[str, dict, dict]:
    """One DC level at a horizon the dense route can reach, as a dense and a
    pieces check; their exceedance counts must be equal."""
    rng = random.Random(seed ^ 0x5EED)
    k = rng.randint(*CROSS_LEVEL)
    N = segment_end(CROSS_SEGMENT)
    sched = [[k, N, [[N, 1.0]]]]
    return ("ex2_kothe_dc_not_hc",
            {"kind": "dc", "m": 1, "mode": "dense", "schedule": sched},
            {"kind": "dc", "m": 1, "mode": "pieces", "schedule": sched})


def dense_sweep_ops(seed: int) -> list[Op]:
    """The numpy dense route: product tables, matrix rows, orbit rows and
    counters over millions of cells, where no piecewise route runs."""
    rng = random.Random(seed)
    a_anchors = sorted(rng.sample(range(DENSE_A_ANCHORS[0], DENSE_A_ANCHORS[1] + 1), 5))
    multi = []
    for k in (1, 2, 3):
        i = segment_end(2 * k)
        multi.append([k, i, [[i, 1.0], [i - rng.choice(DENSE_SECOND_TERM), 1.0]]])
    return [
        Op("ex1-refute-A", "ex1_s_Z_hc_not_dc",
           {"kind": "dc", "refute_A": {"anchors": [rng.randint(*DENSE_ANCHOR)],
                                       "horizon": DENSE_REFUTE_A_HORIZON,
                                       "bound": 0.5, "delta": 1 / 6,
                                       "settle_by": 50}},
           "condition-A-refuted-at-horizon"),
        Op("ex1-density", "ex1_s_Z_hc_not_dc",
           {"kind": "density", "set": "expanding-product-blocks",
            "horizon": DENSE_DENSITY_HORIZON, "threshold": [1, 6],
            "exhaustive_to": 50},
           "passes-at-horizon"),
        Op("ex2-hypercyclicity-refute", "ex2_kothe_dc_not_hc",
           {"kind": "hypercyclicity",
            "refute": {"horizon": DENSE_HC_REFUTE_HORIZON, "k_max": 4, "floor": 1.0}},
           "refuted-at-horizon"),
        Op("ex2-condition-A", "ex2_kothe_dc_not_hc",
           {"kind": "dc", "condition_A": {"set": "naturals", "anchors": a_anchors,
                                          "horizon": DENSE_A_HORIZON,
                                          "decay_tol": 1e-6, "k_max": 4}},
           "condition-A-holds-at-horizon"),
        Op("ex3-mly-condition-A", "ex3_s_Z_hc_not_mly",
           {"kind": "mly", "condition_A": {"anchor": rng.randint(*DENSE_ANCHOR),
                                           "horizon": DENSE_A_HORIZON,
                                           "pass_tol": 1e-3, "refute_floor": 0.9,
                                           "start": 3}},
           "refuted-at-horizon"),
        Op("ex4-mly-condition-A", "ex4_lp_mly_not_hc",
           {"kind": "mly", "condition_A": {"anchor": rng.randint(*DENSE_ANCHOR),
                                           "horizon": DENSE_A_HORIZON,
                                           "pass_tol": 1e-3}},
           "condition-A-holds-at-horizon"),
        Op("ex4-mly-dense-two-term", "ex4_lp_mly_not_hc",
           {"kind": "mly", "m": 1, "mode": "dense", "auto_A_horizon": 0,
            "schedule": multi},
           "condition-B-holds-at-horizon"),
    ]


# ---------------------------------------------------------------------------
# cli-cold: one round of invocations, each with its expected exit code and
# the SHA-256 of its standard output.

EXPORT_SHA256 = {
    "ex1_s_Z_hc_not_dc": "65b2ac6c6f7c8d886532a37aa1b630de5d4cacc28430a9f475773f21887dd93e",
    "ex2_kothe_dc_not_hc": "64fa41ad48a977806e606fc6f6c67f6a1373ed140ed4f34173c923a70eb175a6",
    "ex3_s_Z_hc_not_mly": "2dd8f641cc4ac4dd2d99fd0ded0228a8960ccd09f65f0ecf75ba53e817246d2b",
    "ex4_lp_mly_not_hc": "709cfff320c0a82cf5929a99348787ba457b46bc3809d232fcc53147f66c4a89",
    "rolewicz_lp_N": "acc93967f0311b0edef4b729c6103760412dfd34b18ec3a0a2719af2341b4fde",
    "unweighted_lp_N": "1555d422d9c9ccb9958f65689cc05bce08dca24acbc4a4f3b02f39c6b8e659a5",
    "halfweights_bilateral": "daff0be7a0a8eb4e987d04557fbf281e0b3d80ee1a9e80f4e9a4fdd1a6139e61",
}
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
MIN_EXIT_MALFORMED = 3  # the CLI's documented exit codes for bad input


class Invocation:
    """argv after `shiftchaos`, expected exit code (None: any code >= 3)
    and expected stdout hash.  `known_defect` names the open defect an
    invocation hits at the time the benchmark was written; it still counts
    as a failed operation."""

    def __init__(self, label, argv, exit_code, stdout_sha256, known_defect=None):
        self.label = label
        self.argv = argv
        self.exit_code = exit_code
        self.stdout_sha256 = stdout_sha256
        self.known_defect = known_defect

    def failed(self, code: int, stdout: bytes) -> bool:
        if self.exit_code is None:
            ok = code >= MIN_EXIT_MALFORMED
        else:
            ok = code == self.exit_code
        return not (ok and hashlib.sha256(stdout).hexdigest() == self.stdout_sha256)


def _const(v: float) -> dict:
    return {"kind": "constant", "value": v}


def cli_config_files(seed: int) -> dict[str, dict]:
    """Config documents the round reads: one valid, three malformed.

    The malformed ones are the inputs of the input-boundary defect: a
    non-list `probes`, a horizon that parses as infinity (BAD_HORIZON_TEXT)
    and a string where a block template expects a number."""
    rng = random.Random(seed)
    lp2 = {"kind": "lp", "p": 2}
    valid = {"schema_version": 1, "name": "halfweights-acb", "index_set": "Z",
             "space": lp2,
             "weights": {"negative": _const(0.5), "nonnegative": _const(0.5)},
             "checks": [{"kind": "acb", "probes": [["e[0]", 0, 1.0, 50]],
                         "C_grid": [1.0]}]}
    bad_probes = {"schema_version": 1, "name": "bad-probes", "index_set": "N",
                  "space": lp2, "weights": {"entries": _const(2.0)},
                  "checks": [{"kind": "acb", "probes": rng.randint(2, 9)}]}
    bad_param = {"schema_version": 1, "name": "bad-param", "index_set": "Z",
                 "space": {"kind": "s", "p": 1},
                 "weights": {"negative": {"kind": "blocks",
                                          "template": "alternating_powers",
                                          "params": {"base": str(rng.randint(2, 4))},
                                          "origin": -1, "direction": -1},
                             "nonnegative": _const(2.0)},
                 "checks": [{"kind": "hypercyclicity",
                             "refute": {"horizon": 100}}]}
    return {"valid": valid, "bad-probes": bad_probes, "bad-param": bad_param}


# json.dumps cannot write 1e400, so this one is kept as text.
BAD_HORIZON_TEXT = (
    '{"schema_version": 1, "name": "bad-horizon", "index_set": "N", '
    '"space": {"kind": "lp", "p": 2}, '
    '"weights": {"entries": {"kind": "constant", "value": 2.0}}, '
    '"checks": [{"kind": "hypercyclicity", "refute": {"horizon": 1e400}}]}\n')

VALID_CONFIG_SHA256 = "5962b69e88bbe628d9f294cf4e350445b390c5fbd232c0eee3316d0f6440eb9a"


def cli_round(seed: int, paths: dict[str, str]) -> list[Invocation]:
    rng = random.Random(seed)
    export = rng.choice(sorted(EXPORT_SHA256))
    defect = "malformed config exits 1 with a traceback instead of >= 3"
    return [
        Invocation("list", ["list"], 0,
                   "25feb8f6e60c40dd6b8ce6a1b7134ed00f619c1878ff9a70d618c33017e6ebb3"),
        Invocation("export", ["export", "--example", export], 0, EXPORT_SHA256[export]),
        Invocation("rolewicz-acb-json",
                   ["run", "--example", "rolewicz_lp_N", "--check", "acb", "--format", "json"], 0,
                   "daaf240f202c8fdcdbfec6b7b79cb62f12f951d8f20c598af760e1a0d871c385"),
        Invocation("unweighted-dc-csv",
                   ["run", "--example", "unweighted_lp_N", "--check", "dc", "--format", "csv"], 1,
                   "f2b15385c2b3f2480f4d223f1da5b10db93a106da329125d14c00c07146319c2"),
        Invocation("halfweights-suite-report",
                   ["run", "--example", "halfweights_bilateral"], 0,
                   "4dd9353a0b02ab092369f6408c7fc0c6b61261ea3c523c861be1a7ab008086fe"),
        Invocation("unweighted-mop-report",
                   ["run", "--example", "unweighted_lp_N", "--check", "mop",
                    "--format", "report"], 2,
                   "ba2a83e80ec574c8c5551997a18be9c071b3c859b7f5c9ff52056bff3a3a2602"),
        Invocation("rolewicz-mly-csv",
                   ["run", "--example", "rolewicz_lp_N", "--check", "mly", "--format", "csv"], 0,
                   "2e52af8131f9a0f14d24598934d0bae38cca6ecc56c0fdfc1d70c03ea8e7705f"),
        Invocation("rolewicz-dc-search-json",
                   ["run", "--example", "rolewicz_lp_N", "--check", "dc_search",
                    "--format", "json"], 0,
                   "0e0ad24d2ab08a70952580e2e5758f4f3027f29f173d8c9e92ca773758f79d79"),
        Invocation("config-acb-csv",
                   ["run", "--config", paths["valid"], "--format", "csv"], 1,
                   VALID_CONFIG_SHA256),
        Invocation("bad-probes", ["run", "--config", paths["bad-probes"]], None,
                   EMPTY_SHA256, defect),
        Invocation("bad-horizon", ["run", "--config", paths["bad-horizon"]], None,
                   EMPTY_SHA256, defect),
        Invocation("bad-param", ["run", "--config", paths["bad-param"]], None,
                   EMPTY_SHA256, defect),
    ]


def write_cli_configs(seed: int, directory) -> dict[str, str]:
    """Write the round's config files under `directory`; return their paths."""
    paths = {}
    for name, doc in cli_config_files(seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        paths[name] = str(path)
    path = directory / "bad-horizon.json"
    path.write_text(BAD_HORIZON_TEXT)
    paths["bad-horizon"] = str(path)
    return paths
