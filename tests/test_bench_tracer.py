"""The benchmark tracer still finds every kvnlab name it wraps."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_install_tracer_finds_every_wrapped_name(run_python):
    # install_tracer patches kvnlab modules in place, so it runs in a child
    # interpreter; a renamed function it wraps makes it raise there.
    code = "import child, spans; child.install_tracer(spans.Tracer())"
    out = run_python("-c", code, path=[BENCH], env={"PYTHONDONTWRITEBYTECODE": "1"}, cwd=BENCH)
    assert out.returncode == 0, out.stderr
