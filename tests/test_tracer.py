"""Guard for the benchmark's tracer (``perfbench/tracer.py``): it wraps
program functions by name and reads a few result attributes, so a refactor
that renames or drops one of them silently turns a per-layer metric into
null. One traced pass of the demo must find every function and report every
metric, and count every row the demo's files hold as parsed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from logaudit.cli import main
from logaudit.synthetic import generate_demo

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_demo_run_reports_every_layer_metric(tmp_path):
    tracing = _load_tracer()
    demo = generate_demo(tmp_path)
    config = str(tmp_path / "config.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for phase in ("ingest", "forge", "detect", "evaluate"):
            tracer.phase = phase
            assert main([phase, "--config", config]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    metrics = tracing.layer_metrics(tracer.spans, 0, tracer.missing)
    assert metrics and [name for name, value in metrics.items() if value is None] == []
    # A parse that bypasses parse_cert_file would read 0 here.
    assert metrics["logstore.rows_parsed"] == sum(demo.entry_counts.values()) == 4359
