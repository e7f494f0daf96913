#!/usr/bin/env python
"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 scripts/bench_pairs.py --base PARENT_DIR --change CHANGE_DIR \\
        --workload dense-sweep --pairs 10 --seconds 18 --label my_change

Each pair runs `perfbench/run.py --trace 0` once in each checkout (a git
working tree of the parent commit and one of the change) with the same
seed; pair i uses seed first_seed + i, and the side that runs first
alternates from pair to pair.  The summary goes to BENCH_<label>.json in
--out-dir: per end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the wins of the change (ties count for neither side), and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the distance
between the parent's quartiles.  It also holds the seeds, the order and
raw metrics of every pair, each side's git commit and a SHA-256 of its
src/ files, and the machine stamp of the change's first run.  No path is
written.  Exits 1 when a run fails or reads correct=false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
CLAIM_SHARE = 0.9


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    """The checkout's commit, whether src/ differs from it, and a SHA-256
    over the paths and bytes of its src/*.py files."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return {"git_commit": _git(checkout, "rev-parse", "HEAD"),
            "src_dirty": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "src_sha256": h.hexdigest()}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result, machine stamp) of one run.py run in the checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    stamp = next((json.loads(line[len("machine "):]) for line in lines
                  if line.startswith("machine ")), {})
    return json.loads(lines[-1]), stamp


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(metric: dict, runs: list[dict]) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(r["base"]["metrics"][name], r["change"]["metrics"][name]) for r in runs]
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    losses = sum((c > b) if lower else (c < b) for b, c in pairs)
    base, change = (spread([p[t] for p in pairs]) for t in (0, 1))
    gain = (base["median"] - change["median"]) * (1 if lower else -1)
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": base, "change": change, "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses, "median_gain": gain,
            "base_quartile_spread": base["q3"] - base["q1"],
            "gain_claimable": (wins >= CLAIM_SHARE * len(pairs)
                               and gain > base["q3"] - base["q1"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need at least two pairs for quartiles")
    checkouts = {"base": args.base, "change": args.change}
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs, machine, ok = [], {}, True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i + 1, "seed": seed, "order": list(order)}
        for side in order:
            result, stamp = run_once(checkouts[side], args.workload, seed, args.seconds)
            if side == "change" and not machine:
                machine = {k: v for k, v in stamp.items() if k != "git_commit"}
            ok = ok and result["correct"]
            pair[side] = {"correct": result["correct"], "failed": result["failed"],
                          "metrics": {n: m["value"] for n, m in result["metrics"].items()}}
        runs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
              + ", ".join(f"{s} pass_s {pair[s]['metrics'].get('pass_s', float('nan')):.4f}"
                          for s in SIDES), flush=True)
    doc = {"label": args.label, "workload": args.workload, "seconds": args.seconds,
           "pairs": args.pairs, "seeds": [r["seed"] for r in runs],
           "sides": {side: describe(path) for side, path in checkouts.items()},
           "machine": machine, "correct": ok,
           "metrics": {m["name"]: summarise(m, runs) for m in metrics},
           "runs": runs}
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in doc["metrics"].items():
        print(f"{name}: base {m['base']['median']:.4g} change {m['change']['median']:.4g} "
              f"{m['unit']}, wins {m['wins']}/{args.pairs}, claimable {m['gain_claimable']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
