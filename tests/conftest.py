"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest

import kvnlab

#: Absolute, so a child finds the imported package whatever its cwd.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(kvnlab.__file__)))


@pytest.fixture
def run_python():
    """Run this interpreter on ``args`` in a child process that imports the
    kvnlab under test: the ``path`` entries, then ``SRC``, go first on
    PYTHONPATH, ``env`` is applied to a copy of the environment (a value of
    None removes that variable), and the finished process comes back with
    its output as text."""

    def run(*args, path=(), env=None, cwd=None, timeout=None):
        child_env = {key: value for key, value in {**os.environ, **(env or {})}.items()
                     if value is not None}
        child_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [*map(str, path), SRC, child_env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, cwd=cwd, env=child_env, timeout=timeout,
        )

    return run
