"""Each script in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demo_set():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
