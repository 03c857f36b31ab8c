"""The demos' printed output, pinned against files captured from them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvnlab

REPO = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("number", ["01", "02", "05"])
def test_demo_output_is_pinned(tmp_path, number):
    # Demo 03 is pinned in test_opalg.py. Demo 04 prints roundoff-level
    # Schmidt ratios, so test_qgrid.py checks it by pattern instead.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(kvnlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    (demo,) = (REPO / "demos").glob(f"{number}_*.py")
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (DATA / f"demo{number}.txt").read_text()
