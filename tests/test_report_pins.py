"""Report bytes, pinned per check: the SHA-256 of to_json() for every
catalog check, plus one orbit and one condition-C check (kinds no catalog
entry runs).  The catalog SHA in test_catalog pins verdicts only; these pin
params, rows and notes too."""

from __future__ import annotations

import hashlib
import math

import pytest

import oracles
from shiftchaos import catalog
from shiftchaos.numerics import LogScalar, SparseVector
from shiftchaos.shift import orbit_seminorm_log_array
from shiftchaos.spaces import seminorm

REPORT_SHA256 = {
    ("ex1_s_Z_hc_not_dc", 0): "262aa186deca5ae7d1a566adf3d8cf225ccd4dab1792645284b2a11271b36f45",
    ("ex1_s_Z_hc_not_dc", 1): "c16d0285664cd6ca1a1636da6e9b159c6872c3d2e91fe1c7376cadeddac06980",
    ("ex1_s_Z_hc_not_dc", 2): "fa851459e1a8881ea92eb4739dfe836108e6160fb070bf93ad760093d30d87ae",
    ("ex2_kothe_dc_not_hc", 0): "1192290c5c8780204391b31d89b6aea58cec490b5e1073e2e3b6ab72e8f20e15",
    ("ex2_kothe_dc_not_hc", 1): "4f12df4a86c645517e4d7ddd75bcc87889f57410cd39ce4d835263230ba31807",
    ("ex2_kothe_dc_not_hc", 2): "477aaedd08222b02fca7b947e35ae81f48be410d684693dcb9d3dbffe4d95a23",
    ("ex2_kothe_dc_not_hc", 3): "3f6b0b7ef3cf52167e3600a7a510625900f59c6e0e43f8eec366203b21c01f74",
    ("ex3_s_Z_hc_not_mly", 0): "71f0b75f4bdf18b17dadfa311155fa61771812612dc49496a10253c848f5f8bc",
    ("ex3_s_Z_hc_not_mly", 1): "27c02ec9281cc55dd414ab27ce0558ec34c5be2464995627c8024e59268e3d1a",
    ("ex4_lp_mly_not_hc", 0): "ef7e3572598e8535b5c9a0fe015dbfa4d41366a7ec6d1c2a938ea172963eb1bd",
    ("ex4_lp_mly_not_hc", 1): "c7b2472355408d90568d4a6b56d3a8853d0d7066a7655378a7fb4c8fc71672e6",
    ("ex4_lp_mly_not_hc", 2): "c9c3839d52eb2b65526ec812c3f036c76cb5c65234516790b3970217d60f2a26",
    ("ex4_lp_mly_not_hc", 3): "e8a076c1f18dbee26d3ec9b432bae7df892013d810a681c9482a24e117a40622",
    ("ex4_lp_mly_not_hc", 4): "477aaedd08222b02fca7b947e35ae81f48be410d684693dcb9d3dbffe4d95a23",
    ("rolewicz_lp_N", 0): "5f546d74b3393a4c35cf52289d4eabcd594f996593f93f5018fdf76b6d2561ee",
    ("rolewicz_lp_N", 1): "fdb9aed03a7dbeb63c8dd30f619605ada5bdbcea4c6afdef360f9ff9c3ba8bd8",
    ("rolewicz_lp_N", 2): "25ae2babe7e9177fd8216fdf00b18538b653c99357fc833c35d765aedff81b01",
    ("rolewicz_lp_N", 3): "70417b0942f95cf5aaffb58891398c67db255ed8bd70480e731cf521ba096afa",
    ("unweighted_lp_N", 0): "4548f879fadad3ea5717ea592b74b42b45a1b1fddaed5660c49f5c9eec108f54",
    ("unweighted_lp_N", 1): "5036c385f1bd07d0aa73c0a344bf5d6fdc1bcfb41929f157a009e58d1395ba13",
    ("unweighted_lp_N", 2): "fbb30590b461282214854862586e640ae8e8aad5f50275f76fa2c18d98bdcdc9",
    ("unweighted_lp_N", 3): "1bfc98eca38610846c4b5def6ca8a81ceab02e418952bb42e7bac1e4eec89a3f",
    ("unweighted_lp_N", 4): "6c2fbdcfd167651f9980e9e8abba761bd194ef5e9191c1d8a3052dfedb194d67",
    ("unweighted_lp_N", 5): "a4b1a0e2066a5e1550d845c00042c52125dd8edff7f168ab055984f8c9bdfac6",
    ("halfweights_bilateral", 0): "4d3207671f5d37e37eb37076ee5b12c7ea6d42ac7d60b943905f5c3c7bc9ab00",
    ("halfweights_bilateral", 1): "d4526e96cb19101fc249af96b462865e7d82543738cfb2453dd048fe4cf8152e",
    ("halfweights_bilateral", 2): "1b56ab1ba4ccc86c812faa31af922e0983e06c9f2c713e8fdfb75eb6a0a0b834",
    ("halfweights_bilateral", 3): "d344e8eba7eb6cd7b7dfd100feddc3f1a67fff7cb94b1a35f1e90f6bd13d5334",
}

EXTRA_CHECKS = {
    "orbit": ({"kind": "orbit", "anchor": 0, "horizon": 40, "start": 2},
              "255bee73942a4a6d32d02859ff1dfb28eef00569e821356a3b864ace757df466"),
    "condition_C": ({"kind": "condition_C", "window": [-4, 4], "k_max": 3},
                    "b3358eb6272471ee26986fd1b9b4d1dca2f6792767a883c507083ece63f577d2"),
}

# The dense-sweep refutations at their benchmark horizons: ex1's condition-(A)
# refutation at 10**7 for every anchor -3..3 (anchors -2 and 0 each meet an
# exact tie, at n = 61 and n = 63), and ex2's hypercyclicity refutation at
# 4 * 10**6
REFUTE_A_SHA256 = {
    -3: "2a0752ecc97567a2857bba8c1178a850c0509363a625a47e732815f4772abd8e",
    -2: "e962e3a54b9dfbf166cf69ed5b062f987439d7de680a2ab8c891569b97c1acd3",
    -1: "48089c0f975aec4a3fcc40d6fe0b0345fe4819bb36374a8fb54ba32947fd4194",
    0: "9d0110e31065b9c3553e2828c46322e3fa8eea4a6132f7cacc8cbefc0e11e6bf",
    1: "77782dd169bd21cda17ab2df3b2918a9c7c2ffad9b1e05c695b2166bcb1a9fd6",
    2: "e272f15685cb1ca642a1e1926d5d583cba3fc62ea03a9b12d48b36748f85b7ed",
    3: "facc62ff33239a242f5d91be8af17a0944bd2ad078497a28a716ef4e5779af9e",
}
HC_REFUTE_SHA256 = "747c9aeb8890b0bf222160e20ec0e76e63776146e36d7210fe409c3182227c87"


def _sha(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_check_reports_are_pinned(name):
    op = catalog.build_example(name)
    checks = catalog.get(name).config["checks"]
    assert len(checks) == sum(1 for n, _ in REPORT_SHA256 if n == name)
    for i, cfg in enumerate(checks):
        assert _sha(catalog.run_check(op, cfg)) == REPORT_SHA256[(name, i)], f"{name}#{i}"


@pytest.mark.parametrize("kind", sorted(EXTRA_CHECKS))
def test_uncatalogued_kind_reports_are_pinned(kind, halfweights_op):
    cfg, sha = EXTRA_CHECKS[kind]
    assert _sha(catalog.run_check(halfweights_op, cfg)) == sha


@pytest.mark.parametrize("anchor", sorted(REFUTE_A_SHA256))
def test_dense_sweep_refute_a_reports_are_pinned(anchor, ex1_op):
    cfg = {"kind": "dc", "refute_A": {"anchors": [anchor], "horizon": 10_000_000,
                                      "bound": 0.5, "delta": 1 / 6, "settle_by": 50}}
    assert _sha(catalog.run_check(ex1_op, cfg)) == REFUTE_A_SHA256[anchor]


# ex2's condition (A) at the dense-sweep horizon 5 * 10**5, levels 1..4, for
# every anchor the benchmark draws from
CONDITION_A_SHA256 = {
    -4: "6411c4bfcd4b4de4c0f56e578f87f2ba876ee1f330f819ff8fda907b723d849c",
    -3: "223e1208c2b3b906176f7e5221a443e38fd66a3cc0e581280b7962bb7c1d39f1",
    -2: "a430a113964f52a32e660cc9ab04251145abfda35268f5d56f40ef6cfc17ad75",
    -1: "7dd84325e5a4caf8324c34df2cb4c48ebfdbc6f83348e2f95018b5376b37f3bb",
    0: "01c225299222e1660e8fae85487af63a3abf49e088897fca574bff0a4e10d9e3",
    1: "535384aadfde4e5d63d062ab8f6857cf450c0250bf2f14ba59b6977c3bc5c173",
    2: "e1a9265d18af9140ebbe8d6c2f60869fb10aa1d563732fe44927e2237fe1f8c9",
    3: "12bf80772c93fa97819c796940ba46d11ad491d2bf133a37a290183c3f3ae800",
    4: "7e037fac9fc77990a97bcd7ec46e14d434ad26f8bc0bbdbdbe245c06cb540382",
}


def test_dense_sweep_condition_a_reports_are_pinned(ex2_op):
    for anchor, sha in CONDITION_A_SHA256.items():
        cfg = {"kind": "dc", "condition_A": {"set": "naturals", "anchors": [anchor],
                                             "horizon": 500_000, "decay_tol": 1e-6,
                                             "k_max": 4}}
        assert _sha(catalog.run_check(ex2_op, cfg)) == sha, anchor


def test_dense_sweep_hypercyclicity_refutation_is_pinned():
    op = catalog.build_example("ex2_kothe_dc_not_hc")
    cfg = {"kind": "hypercyclicity",
           "refute": {"horizon": 4_000_000, "k_max": 4, "floor": 1.0}}
    assert _sha(catalog.run_check(op, cfg)) == HC_REFUTE_SHA256


# The dense-sweep two-term MLY levels: ex4 at N_k = segment_end(2k), k = 1..3,
# with witness e_N + e_(N - offset) for every offset the benchmark draws
TWO_TERM_DENSE = {
    -2: ([[1, 116, [[116, 1.0], [118, 1.0]]],
          [2, 11130, [[11130, 1.0], [11132, 1.0]]],
          [3, 1111152, [[1111152, 1.0], [1111154, 1.0]]]],
         "5ff23790c4a584f5169237e055df0c08d8ce4844494bbcf348cfd651274699ec"),
    -1: ([[1, 116, [[116, 1.0], [117, 1.0]]],
          [2, 11130, [[11130, 1.0], [11131, 1.0]]],
          [3, 1111152, [[1111152, 1.0], [1111153, 1.0]]]],
         "6880ecc41682551fc832a93645bfce3f31f6d3db5e8583b935209692a2017f49"),
    # k = 3 prints 4.35681946164e+0, the exact sum's digits
    # (test_two_term_dense_level_prints_the_exact_digits)
    1: ([[1, 116, [[116, 1.0], [115, 1.0]]],
         [2, 11130, [[11130, 1.0], [11129, 1.0]]],
         [3, 1111152, [[1111152, 1.0], [1111151, 1.0]]]],
        "531106326ac2f68fa6860120693b9617a8e596a435c4c0533692c97e243d7f46"),
    2: ([[1, 116, [[116, 1.0], [114, 1.0]]],
         [2, 11130, [[11130, 1.0], [11128, 1.0]]],
         [3, 1111152, [[1111152, 1.0], [1111150, 1.0]]]],
        "fd4f1149da868cc7fbb237dcc7f97e6aa35c3ac6ecc45eb8f421bfce62145ad3"),
}


def _two_term_dense(schedule) -> dict:
    return {"kind": "mly", "m": 1, "mode": "dense", "auto_A_horizon": 0,
            "schedule": schedule}


@pytest.mark.parametrize("offset", sorted(TWO_TERM_DENSE))
def test_dense_sweep_two_term_levels_are_pinned(offset, ex4_op):
    schedule, sha = TWO_TERM_DENSE[offset]
    assert _sha(catalog.run_check(ex4_op, _two_term_dense(schedule))) == sha


def test_two_term_dense_level_prints_the_exact_digits(ex4_op):
    # offset 1 at k = 3 averages 4.3568194616443...: a sum that rounds once
    # per cell drifted 2,400 ulps high there and printed 4.35681946165e+0
    schedule = TWO_TERM_DENSE[1][0][2:]  # the k = 3 level
    k, N, terms = schedule[0]
    x = SparseVector.from_terms(terms)
    cells = orbit_seminorm_log_array(ex4_op, x, 1, N)[1:]
    want = (oracles.log_sum_reference(cells) - math.log(N)
            - seminorm(ex4_op.space, x, k).logmag)
    row = catalog.run_check(ex4_op, _two_term_dense(schedule)).rows[0]
    assert row["average"].decimal_str() == LogScalar(1, want).decimal_str() \
        == "4.35681946164e+0"


# Deep-horizon checks on the ramp/plateau layouts, at the benchmark's depths:
# ex4's ACB probes out to segment 204 (indices near 10**205) and the pieces
# levels at segments 20k +- 2, where sizes and counts come from closed forms
SEG = catalog.segment_end


def _deep_schedule(levels):
    return [[k, SEG(s), [[SEG(s), 1.0]]] for k, s in levels]


DEEP_HORIZON_CHECKS = {
    "ex4-acb": ("ex4_lp_mly_not_hc",
                {"kind": "acb", "C_grid": [1.0, 10.0, 100.0],
                 "probes": [[f"e[{SEG(t)}]", SEG(t), 1.0, SEG(t)]
                            for t in (8, 9, 10, 30, 204)]},
                "92c93a42e25aa45cb5bdd4a252ab86ec0ad4bde5204d60e00fbf862fbeaab0d6"),
    "ex2-dc-pieces": ("ex2_kothe_dc_not_hc",
                      {"kind": "dc", "m": 1, "mode": "pieces",
                       "schedule": _deep_schedule([(2, 38), (3, 61), (4, 82),
                                                   (5, 99), (6, 122)])},
                      "b78cbe1e3dd5b423b24e5c9d4f8fdeb529ed0ebe8ca50f06131867361dffdeee"),
    "ex4-mly-pieces": ("ex4_lp_mly_not_hc",
                       {"kind": "mly", "m": 1, "mode": "pieces", "auto_A_horizon": 0,
                        "schedule": _deep_schedule([(1, 18), (2, 41), (3, 62), (4, 79),
                                                    (5, 100), (6, 120)])},
                       "a63c8aca56695bf01901a06241178b2802fba040a6a95129d675510723b39106"),
}


@pytest.mark.parametrize("label", sorted(DEEP_HORIZON_CHECKS))
def test_deep_horizon_reports_are_pinned(label):
    entry, cfg, sha = DEEP_HORIZON_CHECKS[label]
    assert _sha(catalog.run_check(catalog.build_example(entry), cfg)) == sha
