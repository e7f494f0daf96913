"""One benchmark worker: a fresh single-threaded interpreter per run.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                --out-dir DIR [--setup-only]

Sets the workload up (imports, config generation and validation, operator
construction), prints `ready`, and with --setup-only stops there.  Otherwise
it runs passes until T seconds have gone (at least two; cli-cold also at
least MIN_CLI_INVOCATIONS invocations) and prints, as its last line, one
JSON object of raw measurements for run.py.  With --trace 1, passes after the
first alternate between untraced and traced (at least two of each), and the
spans of the traced ones are written to DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from tracer import Tracer, combine_passes, layer_metrics, merge, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what the `shiftchaos` console script runs
CLI_MAIN = "import sys; from shiftchaos.cli import main; sys.exit(main())"
MIN_CLI_INVOCATIONS = 100  # after the first pass, so ten lie beyond the p90
clock = time.perf_counter


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """What one pass did: per-operation latencies (scaled by the calibrator,
    and raw) and the outcome of every output check.  The pass's time is the
    sum of its operations' latencies."""

    def __init__(self, cal):
        self.cal = cal
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []  # failures no known defect explains
        self.bytes_out = 0
        self.spans: list[list] = []  # traced cli-cold: one span list per process
        self.summary: dict | None = None

    def timed(self, seconds: float) -> None:
        self.raw_latencies.append(seconds)
        self.latencies.append(self.cal.scale(seconds))

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def scale(self) -> float:
        return self.seconds / sum(self.raw_latencies)

    def fail(self, what: str, known: bool = False) -> None:
        self.failed += 1
        if not known:
            self.unexpected.append(what)


class CatalogWorkload:
    """The seven-entry expected suite, as scripts/run_catalog.py runs it."""

    def __init__(self):
        from shiftchaos import catalog, cli
        self.catalog = catalog
        self.names = catalog.names()
        for name in self.names:
            config = catalog.export_config(name)
            cli.validate_config(config)
            catalog.operator_from_config(config)

    def run_pass(self, rng: random.Random) -> Pass:
        p = Pass(self.cal)
        order = list(self.names)
        rng.shuffle(order)
        suites = {}
        for name in order:
            t0 = clock()
            try:
                suites[name] = self.catalog.run_expected_suite(name).to_dict()
            except Exception as exc:  # counted, and the run goes on
                suites[name] = exc
            p.timed(clock() - t0)
        doc = None
        if not any(isinstance(s, Exception) for s in suites.values()):
            doc = json.dumps({"suites": [suites[n] for n in self.names]},
                             sort_keys=True, indent=2) + "\n"
        for name in self.names:
            checks = len(self.catalog.get(name).config["checks"])
            p.attempted += checks
            s = suites[name]
            if isinstance(s, Exception):
                for _ in range(checks):
                    p.fail(f"{name}: {type(s).__name__}: {s}")
                continue
            same = _sha(json.dumps(s, sort_keys=True, indent=2)) == W.SUITE_SHA256[name]
            for row in s["rows"]:
                if not (row["agrees"] and same):
                    p.fail(f"{name} {row['check']}: {row['actual']} "
                           f"(expected {row['expected']}, document "
                           f"{'same' if same else 'differs'})")
        if doc is not None:
            p.bytes_out = len(doc.encode())
            if _sha(doc) != W.CATALOG_SHA256:
                p.unexpected.append("catalog document SHA-256 differs")
        return p


class ChecksWorkload:
    """A list of checks, each run on an operator built from its config."""

    def __init__(self, workload: str, seed: int):
        from shiftchaos import catalog, cli
        self.catalog = catalog
        self.seed = seed
        ops = W.deep_horizon_ops(seed) if workload == "deep-horizon" else W.dense_sweep_ops(seed)
        self.ops = []
        for op in ops:
            config = catalog.export_config(op.entry)
            config["checks"] = [op.check]
            cli.validate_config(config)
            catalog.operator_from_config(config)
            self.ops.append((op, config))

    def run_pass(self, rng: random.Random) -> Pass:
        p = Pass(self.cal)
        order = list(self.ops)
        rng.shuffle(order)
        outcomes = []
        for op, config in order:
            t0 = clock()
            try:
                rep = self.catalog.run_check(self.catalog.operator_from_config(config), op.check)
                outcomes.append((op, rep.verdict, len(rep.to_json().encode())))
            except Exception as exc:  # counted, and the run goes on
                outcomes.append((op, f"{type(exc).__name__}: {exc}", 0))
            p.timed(clock() - t0)
        for op, verdict, nbytes in outcomes:
            p.attempted += 1
            p.bytes_out += nbytes
            if verdict != op.expect:
                p.fail(f"{op.label}: {verdict} (expected {op.expect})")
        return p

    def cross_check(self) -> Pass:
        """Outside the timed passes: one deep level on both routes."""
        p = Pass(self.cal)
        p.attempted = 1
        entry, dense, pieces = W.deep_cross_check(self.seed)
        config = self.catalog.export_config(entry)
        try:
            op = self.catalog.operator_from_config(config)
            counts = [self.catalog.run_check(op, c).rows[0]["count"] for c in (dense, pieces)]
        except Exception as exc:
            p.fail(f"dense/pieces cross-check: {type(exc).__name__}: {exc}")
            return p
        if counts[0] != counts[1]:
            p.fail(f"dense/pieces cross-check: counts {counts[0]} != {counts[1]}")
        return p


class CliWorkload:
    """Fresh `shiftchaos` processes; the worker itself only starts them."""

    def __init__(self, seed: int, out_dir: Path):
        self.dir = out_dir / f"cli-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.round = W.cli_round(seed, W.write_cli_configs(seed, self.dir))

    def run_pass(self, rng: random.Random, traced: bool = False) -> Pass:
        p = Pass(self.cal)
        order = list(self.round)
        rng.shuffle(order)
        spans_path = self.dir / "spans.json"
        for inv in order:
            if traced:
                argv = [sys.executable, str(HERE / "cli_trace.py"), str(spans_path), *inv.argv]
            else:
                argv = [sys.executable, "-c", CLI_MAIN, *inv.argv]
            t0 = clock()
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
            p.timed(clock() - t0)
            p.attempted += 1
            p.bytes_out += len(proc.stdout)
            if inv.failed(proc.returncode, proc.stdout):
                p.fail(f"{inv.label}: exit {proc.returncode}, stdout sha256 "
                       f"{hashlib.sha256(proc.stdout).hexdigest()[:12]}",
                       known=inv.known_defect is not None)
            if traced:
                p.spans.append(json.loads(spans_path.read_text()))
        if traced:
            p.summary = merge([summarize(spans) for spans in p.spans])
        return p

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _run_passes(run_pass, until: float, enough) -> list[Pass]:
    """Passes until `until`, at least two, and until `enough` holds."""
    passes = []
    while len(passes) < 2 or clock() < until or not enough(passes):
        passes.append(run_pass())
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog", "deep-horizon", "dense-sweep", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli-cold":
        if args.setup_only:  # set-up of this workload is a cold CLI import
            import shiftchaos.cli  # noqa: F401
            print("ready", flush=True)
            return 0
        workload = CliWorkload(args.seed, args.out_dir)
    elif args.workload == "catalog":
        workload = CatalogWorkload()
    else:
        workload = ChecksWorkload(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    ready_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from calibrate import Calibrator  # imports numpy: keep it out of set-up
    workload.cal = Calibrator("numpy" if args.workload == "dense-sweep" else "python")

    rng = random.Random(args.seed)
    is_cli = args.workload == "cli-cold"
    until = clock() + args.seconds
    if not args.trace:
        enough = (lambda ps: sum(p.attempted for p in ps[1:]) >= MIN_CLI_INVOCATIONS) \
            if is_cli else (lambda ps: True)
        passes = _run_passes(lambda: workload.run_pass(rng), until, enough)
        traced: list[Pass] = []
    else:
        # after the first pass, untraced and traced passes alternate, so
        # drift in machine speed falls on both sides of the overhead
        passes, traced = [workload.run_pass(rng)], []
        tracer = Tracer()
        spans_file = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w") as spans_out:
            while len(traced) < 2 or clock() < until:
                passes.append(workload.run_pass(rng))
                if is_cli:
                    p = workload.run_pass(rng, traced=True)
                    children = p.spans
                else:
                    tracer.reset()
                    tracer.install()
                    try:
                        p = workload.run_pass(rng)
                    finally:
                        tracer.uninstall()
                    children = [tracer.spans]
                    p.summary = summarize(tracer.spans)
                for spans in children:
                    json.dump(spans, spans_out)
                    spans_out.write("\n")
                traced.append(p)
    extra = [workload.cross_check()] if args.workload == "deep-horizon" else []
    if is_cli:
        workload.close()
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    done = passes + traced + extra
    later = passes[1:]
    result = {
        "first_pass_s": passes[0].seconds,
        "pass_s": [p.seconds for p in later],
        "op_latencies_s": [x for p in later for x in p.latencies],
        "raw_first_pass_s": sum(passes[0].raw_latencies),
        "raw_pass_s": [sum(p.raw_latencies) for p in later],
        "raw_op_latencies_s": [x for p in later for x in p.raw_latencies],
        "attempted": sum(p.attempted for p in done),
        "failed": sum(p.failed for p in done),
        "unexpected": sorted({u for p in done for u in p.unexpected}),
        "known_defects": sorted({i.known_defect for i in workload.round
                                 if i.known_defect}) if is_cli else [],
        "peak_rss_kb": peak_kb,
        "ready_rss_kb": ready_rss_kb,
        "numpy": __import__("numpy").__version__,
    }
    if args.trace:
        per_pass = [{**{k: v * p.scale if k.endswith("self_s") else v
                        for k, v in layer_metrics(p.summary).items()},
                     "reports.bytes_out": p.bytes_out} for p in traced]
        layers, repeat = combine_passes(per_pass)
        result["layers"] = layers
        result["counters_repeat"] = repeat
        result["traced_pass_s"] = [p.seconds for p in traced]
        if not repeat:
            result["unexpected"].append("traced passes disagree on work counters")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
