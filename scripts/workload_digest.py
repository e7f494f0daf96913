#!/usr/bin/env python
"""Print one SHA-256 over the report bytes of the deep-horizon and
dense-sweep workloads of seeds 1-3.

    python3 scripts/workload_digest.py

For each seed it runs the deep-horizon ops, the dense-sweep ops and the
dense/pieces cross-check, all taken from perfbench/workloads.py (imported,
never edited), and hashes their to_json() strings concatenated in that
order: 42 reports.  perfbench checks only their verdicts; the digest pins
their bytes, as the catalog SHA pins the expected suites.  Exits 1 when an
op misses its expected verdict.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def main() -> int:
    import workloads as W
    from shiftchaos import catalog

    digest, misses = hashlib.sha256(), 0
    for seed in (1, 2, 3):
        entry, dense, pieces = W.deep_cross_check(seed)
        runs = [(op.entry, op.check, op.expect)
                for op in W.deep_horizon_ops(seed) + W.dense_sweep_ops(seed)]
        runs += [(entry, check, None) for check in (dense, pieces)]
        for name, check, expect in runs:
            report = catalog.run_check(
                catalog.operator_from_config(catalog.export_config(name)), check)
            if expect is not None and report.verdict != expect:
                print(f"seed {seed} {name} {check['kind']}: {report.verdict}, "
                      f"expected {expect}", file=sys.stderr)
                misses += 1
            digest.update(report.to_json().encode())
    print(digest.hexdigest())
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
