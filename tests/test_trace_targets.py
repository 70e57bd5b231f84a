"""The benchmark tracer wraps derinv functions by name; each name must exist."""

import importlib
from pathlib import Path


def test_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    targets = tracer._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, _, _ in targets if not hasattr(owner, name)]
    assert not missing
