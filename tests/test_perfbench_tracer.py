"""The benchmark's span tracer (perfbench/tracer.py) wraps library layers by
name and reads their return shapes, so a renamed layer or a changed return
shape breaks it.  One traced catalog pass here catches that in the unit
suite, not only in the traced benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import shiftchaos.cli  # noqa: F401  (the tracer wraps the modules imported so far)
from shiftchaos import catalog

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_catalog_pass_agrees_and_summarizes():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        suites = [catalog.run_expected_suite(name) for name in catalog.names()]
    finally:
        tracer.uninstall()
    assert len(suites) == 7
    assert [s.verdict for s in suites] == ["agrees"] * 7
    metrics = tracer_mod.layer_metrics(tracer_mod.summarize(tracer.spans))
    assert metrics["catalog.run_check.calls"] == sum(len(s.rows) for s in suites)
    # uninstall put the plain functions back
    assert not hasattr(catalog.run_expected_suite, "__wrapped__")
