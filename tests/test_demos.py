"""The demos run to completion against the library in src/ and leave nothing
in the temp directory.  Demo 03 trains models for tens of seconds and is left
out; demo 04 takes about 15 s."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_synthetic_ecg.py", "02_representations.py",
                                  "04_full_pipeline.py"])
def test_demo_runs(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmpdir),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert not list(tmpdir.iterdir())
