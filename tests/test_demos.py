"""Smoke test: every demo runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["discrete_operators.py", "verification_tour.py",
                                  "samplers_tour.py", "intrinsic_calculus.py",
                                  "tail_bounds_tour.py", "cli_examples.py",
                                  "tensor_norms.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
