"""The traced benchmark wraps library callables by name; a rename must
fail here, not in the middle of a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import sliceregular.cli  # noqa: F401  (loads every module the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [site for sites in tracer.SPANS.values() for site in sites]
    sites += [site for sites, _ in tracer.COUNTS.values() for site in sites]
    assert sites
    for modname, qual in sites:
        owner, attr = tracer._resolve(modname, qual)
        assert callable(getattr(owner, attr, None)), (modname, qual)
