"""Check that every value a seed can draw keeps the expected verdict.

    PYTHONPATH=src python3 perfbench/verify_ranges.py

Runs each seeded parameter of workloads.py over its whole range, one value
at a time (about a minute), and prints one line per range.  A verdict that
is an AND over anchors or levels is checked per anchor or level, which
covers every combination a seed can draw.  Exits 1 if any value breaks its
expected verdict.
"""

from __future__ import annotations

import sys

import workloads as W
from shiftchaos import catalog


def _run(entry: str, check: dict):
    return catalog.run_check(catalog.operator_from_config(catalog.export_config(entry)), check)


def _span(r: tuple[int, int]) -> range:
    return range(r[0], r[1] + 1)


def verify() -> list[tuple[str, list, bool]]:
    se = W.segment_end
    out = []
    lo_min, lo_max = W.HYPER_WINDOW_LO
    for entry, form in (("ex1_s_Z_hc_not_dc", "alternating-powers-dip"),
                        ("ex3_s_Z_hc_not_mly", "twos-halves-ones-dip")):
        # one window covering every drawable window: the verdict is an AND over ells
        bad = [c for c in _span(W.HYPER_COUNT)
               if _run(entry, {"kind": "hypercyclicity",
                               "witness": {"n_seq": {"form": form, "count": c},
                                           "ell_window": [lo_min, lo_max + 10],
                                           "decay_tol": 1e-6, "k_max": 4}}).verdict
               != "witnessed"]
        out.append((f"{entry} hypercyclicity count x window", bad, not bad))
    for entry, kind, levels in (("ex2_kothe_dc_not_hc", "dc", range(2, 7)),
                                ("ex4_lp_mly_not_hc", "mly", range(1, 7))):
        bad = []
        for k in levels:
            for j in _span(W.SEGMENT_JITTER):
                s = W.SEGMENT_STEP * k + j
                rep = _run(entry, {"kind": kind, "m": 1, "mode": "pieces",
                                   "auto_A_horizon": 0,
                                   "schedule": [[k, se(s), [[se(s), 1.0]]]]}
                           if kind == "mly" else
                           {"kind": kind, "m": 1, "mode": "pieces",
                            "schedule": [[k, se(s), [[se(s), 1.0]]]]})
                if not rep.rows[0]["pass"]:
                    bad.append((k, s))
        out.append((f"{entry} {kind} pieces levels x segment jitter", bad, not bad))
    # the deepest probe alone must falsify every C; more probes only add hits
    bad = [t for t in _span(W.ACB_TOP)
           if _run("ex4_lp_mly_not_hc",
                   {"kind": "acb", "probes": W.acb_probes([*W.ACB_FIXED, t]),
                    "C_grid": [1.0, 10.0, 100.0]}).verdict != "falsified-at-horizon"]
    out.append(("ex4_lp_mly_not_hc acb deepest probe", bad, not bad))
    bad = []
    for k in _span(W.CROSS_LEVEL):
        _, dense, pieces = W.deep_cross_check(0)
        counts = []
        for c in (dense, pieces):
            c["schedule"][0][0] = k
            counts.append(_run("ex2_kothe_dc_not_hc", c).rows[0]["count"])
        if counts[0] != counts[1]:
            bad.append((k, counts))
    out.append(("ex2_kothe_dc_not_hc dense/pieces counts per cross-check level", bad, not bad))
    bad = [a for a in _span(W.DENSE_ANCHOR)
           if _run("ex1_s_Z_hc_not_dc",
                   {"kind": "dc", "refute_A": {"anchors": [a],
                                               "horizon": W.DENSE_REFUTE_A_HORIZON,
                                               "bound": 0.5, "delta": 1 / 6,
                                               "settle_by": 50}}).verdict
           != "condition-A-refuted-at-horizon"]
    out.append(("ex1_s_Z_hc_not_dc refute_A anchor", bad, not bad))
    bad = [a for a in _span(W.DENSE_A_ANCHORS)
           if _run("ex2_kothe_dc_not_hc",
                   {"kind": "dc", "condition_A": {"set": "naturals", "anchors": [a],
                                                  "horizon": W.DENSE_A_HORIZON,
                                                  "decay_tol": 1e-6, "k_max": 4}}).verdict
           != "condition-A-holds-at-horizon"]
    out.append(("ex2_kothe_dc_not_hc condition A anchor", bad, not bad))
    for entry, extra, expect in (
            ("ex3_s_Z_hc_not_mly", {"refute_floor": 0.9, "start": 3}, "refuted-at-horizon"),
            ("ex4_lp_mly_not_hc", {}, "condition-A-holds-at-horizon")):
        bad = [a for a in _span(W.DENSE_ANCHOR)
               if _run(entry, {"kind": "mly",
                               "condition_A": {"anchor": a, "horizon": W.DENSE_A_HORIZON,
                                               "pass_tol": 1e-3, **extra}}).verdict != expect]
        out.append((f"{entry} MLY condition A anchor", bad, not bad))
    bad = []
    for k in (1, 2, 3):
        i = se(2 * k)
        for d in W.DENSE_SECOND_TERM:
            rep = _run("ex4_lp_mly_not_hc",
                       {"kind": "mly", "m": 1, "mode": "dense", "auto_A_horizon": 0,
                        "schedule": [[k, i, [[i, 1.0], [i - d, 1.0]]]]})
            if not rep.rows[0]["pass"]:
                bad.append((k, d))
    out.append(("ex4_lp_mly_not_hc two-term dense levels x offset", bad, not bad))
    return out


def main() -> int:
    ok = True
    for what, bad, good in verify():
        print(f"{'ok  ' if good else 'FAIL'} {what}" + ("" if good else f": {bad}"), flush=True)
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
