"""The demo scripts run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_identification_diagnostics.py",
                                    "02_regularized_projection.py",
                                    "03_alpha_selection.py",
                                    # three replications per cell, from argv
                                    "04_monte_carlo_tables.py 3"])
def test_demo_exits_zero(script, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    name, *args = script.split()
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
