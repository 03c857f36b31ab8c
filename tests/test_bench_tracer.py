"""The benchmark tracer still finds every kvnlab name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

import kvnlab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_install_tracer_finds_every_wrapped_name():
    # install_tracer patches kvnlab modules in place, so it runs in a child
    # interpreter; a renamed function it wraps makes it raise there.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kvnlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(BENCH), src, env.get("PYTHONPATH")]))
    code = "import child, spans; child.install_tracer(spans.Tracer())"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=BENCH, env=env,
    )
    assert out.returncode == 0, out.stderr
