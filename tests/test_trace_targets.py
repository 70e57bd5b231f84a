"""The benchmark tracer wraps derinv functions by name; each name must exist."""

import importlib
import sys
from pathlib import Path


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracer")


def test_tracer_targets_exist(monkeypatch):
    tracer = _tracer(monkeypatch)
    targets = tracer._targets()
    assert targets
    # install() reads owner.__dict__, so a name found only through an
    # alias or a base class does not count
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, _, _ in targets if name not in vars(owner)]
    assert not missing


def test_install_wraps_and_uninstall_restores(monkeypatch):
    tracer = _tracer(monkeypatch)
    targets = tracer._targets()
    holders = {id(owner): owner for owner, _, _, _ in targets}
    holders.update((id(m), m) for k, m in sys.modules.items()
                   if k == "derinv" or k.startswith("derinv."))
    before = {key: dict(vars(h)) for key, h in holders.items()}
    uninstall = tracer.Tracer().install()
    try:
        unwrapped = [f"{getattr(owner, '__name__', owner)}.{name}"
                     for owner, name, _, _ in targets
                     if vars(owner)[name] is before[id(owner)][name]]
    finally:
        uninstall()
    assert not unwrapped
    changed = [f"{getattr(h, '__name__', h)}.{attr}"
               for key, h in holders.items()
               for attr, val in before[key].items() if vars(h).get(attr) is not val]
    assert not changed
