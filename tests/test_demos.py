"""The demos' printed output, pinned against files captured from them."""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("number", ["01", "02", "03", "05"])
def test_demo_output_is_pinned(tmp_path, run_python, number):
    # Demo 03's pin also fixes OperatorPoly.__str__ and the finite adjoint's
    # printed form. Demo 04 prints roundoff-level Schmidt ratios, so
    # test_qgrid.py checks it by pattern instead.
    (demo,) = (REPO / "demos").glob(f"{number}_*.py")
    out = run_python(str(demo), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (DATA / f"demo{number}.txt").read_text()
