#!/usr/bin/env python
"""List every function defined in src/shiftchaos that the product runs never call.

    python3 scripts/reach_census.py

In one process, under a sys.setprofile hook set before shiftchaos is
imported, it runs every catalog entry's expected suite, the deep-horizon and
dense-sweep ops of seeds 1-3 with their dense/pieces cross-checks, and the
cli-cold round of seed 1 through cli.main (output captured), all taken from
perfbench/workloads.py.  It then prints each `def` of src/shiftchaos/*.py
whose code never ran, as `file:line name`, and a closing count.  A def is
called when a call event names its code object (file and first line; a
decorated def starts at its first decorator).  Base-class stubs and check
kinds no workload runs are listed too, so the list bounds dead code from
above.  Exits 1 when an op misses its expected verdict or an invocation its
exit code, since a census of a failing run says little.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shiftchaos"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def defs(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def in the file."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((first, child.end_lineno, prefix + child.name))
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def run_workloads() -> int:
    """Run everything the census covers; the number of misses."""
    import workloads as W
    from shiftchaos import catalog, cli

    misses = 0
    for name in catalog.names():
        misses += catalog.run_expected_suite(name).verdict != "agrees"
    for seed in (1, 2, 3):
        for op in W.deep_horizon_ops(seed) + W.dense_sweep_ops(seed):
            built = catalog.operator_from_config(catalog.export_config(op.entry))
            misses += catalog.run_check(built, op.check).verdict != op.expect
        entry, dense, pieces = W.deep_cross_check(seed)
        built = catalog.operator_from_config(catalog.export_config(entry))
        counts = [catalog.run_check(built, check).rows[0]["count"] for check in (dense, pieces)]
        misses += counts[0] != counts[1]
    with tempfile.TemporaryDirectory() as tmp:
        for inv in W.cli_round(1, W.write_cli_configs(1, Path(tmp))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(inv.argv)
            misses += inv.failed(code, out.getvalue().encode())
    return misses


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        misses = run_workloads()
    finally:
        sys.setprofile(None)
    total = never = lines = 0
    for path in sorted(SRC.glob("*.py")):
        for first, last, name in defs(path):
            total += 1
            if (str(path), first) not in called:
                never += 1
                lines += last - first + 1
                print(f"{path.relative_to(ROOT)}:{first} {name}")
    print(f"{never} of {total} defs ({lines} lines) never called")
    if misses:
        print(f"{misses} ops or invocations missed their expected outcome")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
