"""The package's public names, and those the benchmark's tracer rebinds."""

import importlib.util
import sys
from pathlib import Path

import cdrhomes


def test_every_exported_name_resolves():
    missing = [name for name in cdrhomes.__all__ if not hasattr(cdrhomes, name)]
    assert missing == []
    assert len(set(cdrhomes.__all__)) == len(cdrhomes.__all__)


def test_every_name_the_benchmark_tracer_rebinds_exists(monkeypatch):
    # perfbench/traced_sweep.py rebinds these names for --trace runs; a name
    # deleted here would break the trace without failing any other test
    path = Path(__file__).resolve().parent.parent / "perfbench" / "traced_sweep.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the module prepends to it
    spec = importlib.util.spec_from_file_location("traced_sweep", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = traced.layer_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
