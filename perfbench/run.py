"""shiftchaos benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; shiftchaos is imported from ./src
(nothing is installed).  Workloads: catalog, deep-horizon, dense-sweep,
cli-cold (see perfbench/README.md for why each exists).

The run first times SETUP_SAMPLES fresh interpreters from start to ready
(after one unmeasured warm-up), then starts one worker process that runs
the workload's passes for S seconds and checks every output.  With
--trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  Lines before it are
a readable summary and the machine stamp; the full result goes to
perfbench/out/.  Every child process runs single-threaded and one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator
from tracer import counters

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name; Python does not export it


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def time_to_ready(cmd: list[str], env: dict) -> float:
    """Wall seconds from starting `cmd` to its `ready` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def import_probe(env: dict) -> dict:
    """Cold `import shiftchaos.cli`: wall time, and numpy's and jsonschema's
    cumulative share from -X importtime."""
    code = ("import time; t = time.perf_counter(); import shiftchaos.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    out = {"cli.import_s": float(proc.stdout.strip())}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("numpy", "jsonschema"):
            out[f"cli.{parts[2].strip()}_import_s"] = int(parts[1]) / 1e6
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_stamp(numpy_version: str) -> dict:
    try:
        llc = os.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        llc = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "llc_bytes": llc,
            "git_commit": git_commit(),
            # the largest dense table: 1e7 float64 cells per column
            "dense_sweep_largest_column_bytes": 8 * 10_000_000}


def quantile_90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1]


def end_to_end(setup: list[float], r: dict) -> tuple[dict, list[str]]:
    lat = r["op_latencies_s"]
    beyond = sum(x > quantile_90(lat) for x in lat)
    values = {
        "setup_s": statistics.median(setup),
        "first_pass_s": r["first_pass_s"],
        "pass_s": statistics.median(r["pass_s"]),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": quantile_90(lat),
        "peak_rss_mb": r["peak_rss_kb"] / 1024,
        "ok_ratio": (r["attempted"] - r["failed"]) / r["attempted"],
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"pass_s: median of {len(r['pass_s'])} passes after the first",
        f"op_p50_s / op_p90_s: {len(lat)} operations after the first pass, "
        f"{beyond} beyond p90",
        f"fail_ratio = {r['failed']}/{r['attempted']} = "
        f"{r['failed'] / r['attempted']:.4f} (ok_ratio is 1 - fail_ratio)",
    ]
    return values, notes


def per_layer(r: dict, imports: list[dict]) -> tuple[dict, list[str]]:
    values = dict(r["layers"])
    for key in imports[0]:
        values[key] = statistics.median(p[key] for p in imports)
    untraced = statistics.median(r["pass_s"])
    traced = statistics.median(r["traced_pass_s"])
    values["bench.untraced_pass_s"] = untraced
    values["bench.traced_pass_s"] = traced
    values["bench.trace_overhead_s"] = traced - untraced
    notes = [f"{len(r['traced_pass_s'])} traced passes; counters repeat: {r['counters_repeat']}",
             f"tracing overhead {traced - untraced:+.4f} s per pass "
             f"({traced:.4f} traced vs {untraced:.4f} untraced)"]
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog", "deep-horizon", "dense-sweep", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shiftchaos" / "cli.py").is_file():
        print(f"error: no shiftchaos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = child_env()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out-dir", str(OUT)]
    try:
        setup_cmd = worker + ["--setup-only"]
        time_to_ready(setup_cmd, env)  # warm-up: bytecode and page cache
        cal = Calibrator()
        raw_setup, setup = [], []
        for _ in range(SETUP_SAMPLES):
            raw_setup.append(time_to_ready(setup_cmd, env))
            setup.append(raw_setup[-1] * cal.factor())
        imports = []
        if args.trace:
            import_probe(env)
            for _ in range(IMPORT_SAMPLES):
                probe = import_probe(env)
                f = cal.factor()
                imports.append({k: v * f for k, v in probe.items()})
        proc = subprocess.run(worker + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker failed (exit {proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        values, notes = (per_layer(r, imports) if args.trace else end_to_end(setup, r))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace and result_file.is_file():
        # a second traced run of one seed must count exactly the same work
        before = json.loads(result_file.read_text())["worker"]["layers"]
        same = counters(before) == counters(r["layers"])
        notes.append(f"counters equal to the previous traced run of this seed: {same}")
        if not same:
            r["unexpected"].append("work counters differ from the previous traced run")
    stamp = machine_stamp(r["numpy"])
    if args.workload == "dense-sweep":
        stamp["dense_sweep_working_set_mb"] = (r["peak_rss_kb"] - r["ready_rss_kb"]) / 1024
    correct = not r["unexpected"]
    result = {"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
              "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": stamp, "notes": notes,
              "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
              "unexpected_failures": r["unexpected"],
              "known_defects": r["known_defects"], "worker": r, "result": result}
    result_file.write_text(json.dumps(detail, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: correct={correct}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for note in notes:
        print(f"  # {note}")
    for u in r["unexpected"]:
        print(f"  ! unexpected failure: {u}")
    for d in r["known_defects"]:
        print(f"  ! known defect counted as failed: {d}")
    print("machine " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
