"""Every demo script runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidkit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(braidkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
