"""Smoke test: the demos that drive build_ball, verify_isometric and fftp_search run."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.mark.parametrize("demo", [
    "02_cayley_balls.py", "03_isometric_verification.py", "05_fftp_search.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
