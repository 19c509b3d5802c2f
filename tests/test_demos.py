"""Smoke test: the short demos run to completion.

Demos 04 and 05 train models for about 17 s each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SHORT_DEMOS = ["01_autodiff_and_gradients.py", "02_synthetic_arches.py",
               "03_knn_graphs_and_layers.py"]


@pytest.mark.parametrize("demo", SHORT_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
