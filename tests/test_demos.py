"""The quick demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvclean

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["weather_model_demo", "soiling_physics_demo",
                                  "decision_trace_demo", "simopt_curves"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pvclean.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
