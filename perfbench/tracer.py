"""Span tracer that wraps shiftchaos' layers from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
shiftchaos module that holds it by name (the certificate modules import
`product`, `count_above`, `seminorm`, ... directly, so patching one module
is not enough), and wraps a few methods on their classes.  Each call
appends one span `[name, start, end, parent, counts]` to an in-memory list;
`counts` holds the work the call did, derived only from its arguments and
return value, so counts repeat exactly across runs of the same inputs.
Nothing under src/ is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from collections import defaultdict


def _n(seq) -> int:
    return 0 if seq is None else len(seq)


# (module, attribute path, span name, counts(args, kwargs, result) or None)
LAYERS = [
    ("sequences", "BlockSideSequence.runs_over", "sequences.runs_over",
     lambda a, k, out: {"runs": _n(out)}),
    ("weights", "WeightSpec.runs_over", "weights.WeightSpec.runs_over",
     lambda a, k, out: {"runs": _n(out)}),
    ("weights", "product", "weights.product", None),
    ("weights", "product_log_table", "weights.product_log_table",
     lambda a, k, out: {"cells": int(out.logs.size),
                        "bytes_computed": int(out.logs.nbytes + out.signs.nbytes)}),
    ("weights", "product_pieces", "weights.product_pieces",
     lambda a, k, out: {"pieces": len(out)}),
    ("weights", "overlay_row_runs", "weights.overlay_row_runs",
     lambda a, k, out: {"pieces_out": len(out)}),
    ("spaces", "KotheMatrix.log_row_runs", "spaces.log_row_runs",
     lambda a, k, out: {"runs": _n(out)}),
    ("spaces", "KotheMatrix.log_row_array", "spaces.log_row_array",
     lambda a, k, out: {"cells": int(out.size)}),
    ("spaces", "seminorm", "spaces.seminorm", None),
    ("shift", "orbit_seminorm_log_array", "shift.orbit_seminorm_log_array",
     lambda a, k, out: {"cells": len(a[1]) * int(out.size)}),
    ("numerics", "logsumexp_p_rows", "numerics.logsumexp_p_rows",
     lambda a, k, out: {"cells": int(a[0].size)}),
    ("piecewise", "count_above", "piecewise.count_above",
     lambda a, k, out: {"pieces": len(a[0])}),
    ("piecewise", "log_sum", "piecewise.log_sum",
     lambda a, k, out: {"pieces": len(a[0])}),
    ("density", "density_envelope", "density.density_envelope", None),
    ("density", "check_counter_agreement", "density.check_counter_agreement", None),
    ("dc_cert", "single_term_pieces", "dc_cert.single_term_pieces",
     lambda a, k, out: {"key": f"{id(a[0])}:{a[1].index}:{a[2]}:{a[3]}"}),
    ("mly_cert", "cesaro_distance_series", "mly_cert.cesaro_distance_series",
     lambda a, k, out: {"cells": int(out.terms.size)}),
    ("catalog", "operator_from_config", "catalog.operator_from_config", None),
    ("catalog", "run_check", "catalog.run_check", None),
    ("catalog", "run_expected_suite", "catalog.run_expected_suite", None),
    ("reports", "CertificateReport.to_dict", "reports.serialize", None),
    ("reports", "CertificateReport.to_json", "reports.serialize", None),
    ("reports", "CertificateReport.to_csv", "reports.serialize", None),
    ("reports", "CertificateReport.to_text", "reports.serialize", None),
    ("cli", "validate_config", "cli.validate_config", None),
    ("cli", "main", "cli.main", None),
]

# The public check functions of the certificate modules; their self time
# (time minus traced children) is reported per module.
CHECKS = {
    "dc_cert": ["check_dc_condition_A", "refute_dc_condition_A",
                "check_dc_condition_B", "check_kothe_dc", "check_lp_c0_dc",
                "check_mop_sufficient", "check_hypercyclicity_witness",
                "refute_hypercyclicity", "search_witness_dc"],
    "mly_cert": ["check_mly_condition_A", "anchor_equivalence_probe",
                 "check_mly_condition_B", "check_kothe_mly", "check_acb",
                 "check_f3"],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._keep: list = []  # operators seen this pass, so ids stay unique
        self._replaced: list = []  # (owner, attribute, original) to undo install

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._keep = []

    def wrap(self, name: str, fn, counts=None):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, out)
                if "key" in span[4]:
                    tracer._keep.append(args[0])
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer of the shiftchaos modules imported so far."""
        if self._replaced:
            return
        mods = {name: sys.modules[f"shiftchaos.{name}"]
                for name in {layer[0] for layer in LAYERS} | set(CHECKS)
                if f"shiftchaos.{name}" in sys.modules}
        targets = list(LAYERS)
        for mod, fns in CHECKS.items():
            targets += [(mod, fn, f"{mod}.{fn}", None) for fn in fns]
        for mod, path, name, counts in targets:
            if mod not in mods:
                continue
            owner = mods[mod]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._replaced.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig, counts))
            else:
                self._rebind(getattr(owner, path), self.wrap(name, getattr(owner, path), counts))
        if "catalog" in mods:
            self._wrap_predicates(mods["catalog"])

    def uninstall(self) -> None:
        """Put every original back, so untraced passes run the plain code."""
        while self._replaced:
            owner, attr, orig = self._replaced.pop()
            setattr(owner, attr, orig)

    def _rebind(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "shiftchaos" or modname.startswith("shiftchaos."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._replaced.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def _wrap_predicates(self, catalog) -> None:
        """Index predicates carry their vectorized counter as a field; wrap
        the counter of every predicate the catalog hands out."""
        orig = catalog.predicate_from_name
        count_cells = lambda a, k, out: {"cells": int(a[0].size)}

        def predicate_from_name(name):
            pred = orig(name)
            if pred.count_array is None:
                return pred
            return dataclasses.replace(
                pred, count_array=self.wrap("density.count_array",
                                            pred.count_array, count_cells))

        self._rebind(orig, predicate_from_name)


# ---------------------------------------------------------------------------
# summaries


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, self seconds and summed counts, plus the
    parent-relative counts the layer metrics need."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    keys = set()
    product_runs = 0
    table_scans: dict = defaultdict(int)  # product_log_table span -> runs_over calls
    for i, (name, start, end, parent, c) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        if c:
            for q, v in c.items():
                if q == "key":
                    keys.add(v)
                else:
                    counts[f"{name}.{q}"] += v
        if name == "weights.WeightSpec.runs_over" and parent >= 0 \
                and spans[parent][0] == "weights.product":
            product_runs += c["runs"]
        if name == "sequences.runs_over":
            p = parent
            while p >= 0 and spans[p][0] != "weights.product_log_table":
                p = spans[p][3]
            if p >= 0:
                table_scans[p] += 1
    return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(counts),
            "distinct_keys": len(keys), "product_runs": product_runs,
            "table_scans": sum(table_scans.values()),
            "tables_scanning": len(table_scans)}


def merge(summaries: list[dict]) -> dict:
    """Sum summaries of separate processes (one cli-cold round)."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(int)}
    scalars: dict = defaultdict(int)
    for s in summaries:
        for field in ("calls", "self_s", "counts"):
            for k, v in s[field].items():
                out[field][k] += v
        for k in ("distinct_keys", "product_runs", "table_scans", "tables_scanning"):
            scalars[k] += s[k]
    return {**{k: dict(v) for k, v in out.items()}, **scalars}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


COUNT_METRICS = [
    "sequences.runs_over.calls", "sequences.runs_over.runs",
    "weights.product.calls", "weights.product.runs_per_call",
    "weights.product_log_table.calls", "weights.product_log_table.cells",
    "weights.product_log_table.bytes_computed",
    "weights.product_log_table.runs_over_per_call",
    "weights.product_pieces.pieces", "weights.overlay_row_runs.pieces_out",
    "spaces.log_row_runs.runs", "spaces.log_row_array.cells",
    "spaces.seminorm.calls",
    "shift.orbit_seminorm_log_array.calls", "shift.orbit_seminorm_log_array.cells",
    "numerics.logsumexp_p_rows.cells",
    "piecewise.count_above.pieces", "piecewise.log_sum.pieces",
    "density.count_array.cells",
    "dc_cert.single_term_pieces.calls", "dc_cert.single_term_pieces.distinct_ratio",
    "mly_cert.cesaro_distance_series.cells", "catalog.run_check.calls",
]
SELF_METRICS = [
    "sequences.runs_over", "weights.product", "weights.product_log_table",
    "weights.product_pieces", "weights.overlay_row_runs", "spaces.log_row_runs",
    "spaces.log_row_array", "spaces.seminorm", "shift.orbit_seminorm_log_array",
    "numerics.logsumexp_p_rows", "piecewise.count_above", "piecewise.log_sum",
    "density.density_envelope", "density.check_counter_agreement",
    "mly_cert.cesaro_distance_series", "catalog.operator_from_config",
    "reports.serialize", "cli.validate_config", "cli.main",
]


def layer_metrics(s: dict) -> dict:
    """Layer metrics of one pass from its summary (counts, then self times)."""
    calls, counts = s["calls"], s["counts"]
    m = {}
    for name in COUNT_METRICS:
        layer, q = name.rsplit(".", 1)
        if q == "calls":
            m[name] = calls.get(layer, 0)
        elif name == "weights.product.runs_per_call":
            m[name] = _ratio(s["product_runs"], calls.get("weights.product", 0))
        elif name == "weights.product_log_table.runs_over_per_call":
            m[name] = _ratio(s["table_scans"], s["tables_scanning"])
        elif name == "dc_cert.single_term_pieces.distinct_ratio":
            m[name] = _ratio(s["distinct_keys"], calls.get("dc_cert.single_term_pieces", 0))
        else:
            m[name] = counts.get(name, 0)
    for layer in SELF_METRICS:
        m[f"{layer}.self_s"] = s["self_s"].get(layer, 0.0)
    for mod in CHECKS:
        m[f"{mod}.self_s"] = sum(v for k, v in s["self_s"].items()
                                 if k.startswith(mod + "."))
    return m


def counters(layers: dict) -> dict:
    """The metrics that count work (everything but the times)."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def combine_passes(per_pass: list[dict]) -> tuple[dict, bool]:
    """Counts from the first traced pass, times as the median over passes;
    the flag says whether every pass repeated the first pass's counts."""
    first = per_pass[0]
    repeat = all(counters(p) == counters(first) for p in per_pass)
    out = {}
    for k, v in first.items():
        out[k] = statistics.median(p[k] for p in per_pass) if k.endswith("_s") else v
    return out, repeat
