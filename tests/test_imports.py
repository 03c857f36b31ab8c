"""What importing kvnlab and running a suite load, each in a fresh interpreter.

``import kvnlab`` is lazy: the package imports a submodule when one of its
public names is first used. The command line loads the modules of the
selected suite before it starts the run, so no import lands inside the
timed ``run_checks`` call.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import kvnlab
from kvnlab.scenario import SUITES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kvnlab.__file__)))

#: Runs kvnlab with ``cli.run_checks`` wrapped and prints, as JSON, the exit
#: code, the modules first imported inside the run and whether scipy and
#: sympy were loaded.
GUARD = """
import io, json, sys
from contextlib import redirect_stdout
from kvnlab import cli

suite, scenario, out = sys.argv[1:]
run, inside = cli.run_checks, []

def guarded(*args, **kwargs):
    before = set(sys.modules)
    try:
        return run(*args, **kwargs)
    finally:
        inside.extend(sorted(set(sys.modules) - before))

cli.run_checks = guarded
with redirect_stdout(io.StringIO()):
    code = cli.main(["run", scenario, "--suite", suite, "--out", out])
print(json.dumps({"exit": code, "inside": inside,
                  "scipy": "scipy" in sys.modules, "sympy": "sympy" in sys.modules}))
"""

#: Reports which libraries a bare ``import kvnlab`` loads, then which ones
#: ``kvnlab schema`` loads.
SCHEMA = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return sorted({"numpy", "scipy", "sympy", "jsonschema"} & set(sys.modules))

import kvnlab
bare = loaded()
from kvnlab import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(["schema"])
print(json.dumps({"bare": bare, "exit": code, "schema": loaded()}))
"""


def run_child(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyPackage:
    def test_public_names_are_the_submodule_objects(self):
        for name in kvnlab.__all__:
            source = importlib.import_module(f"kvnlab.{kvnlab._SOURCE[name]}")
            obj = getattr(kvnlab, name)
            if name == kvnlab._SOURCE[name]:
                assert obj is source
                continue
            assert obj is getattr(source, name)
            # the table names the defining module, not one that re-exports
            assert getattr(obj, "__module__", source.__name__) == source.__name__

    def test_dir_lists_every_public_name(self):
        assert set(kvnlab.__all__) <= set(dir(kvnlab))
        assert "__version__" in dir(kvnlab)

    def test_star_import(self):
        namespace = {}
        exec("from kvnlab import *", namespace)
        for name in kvnlab.__all__:
            assert namespace[name] is getattr(kvnlab, name)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            kvnlab.no_such_name  # noqa: B018


def test_import_and_schema_load_no_science_library(tmp_path):
    got = run_child(SCHEMA, cwd=tmp_path)
    assert got["bare"] == []
    assert got["exit"] == 0
    assert got["schema"] == []


@pytest.mark.parametrize("suite", SUITES)
def test_run_imports_nothing_inside_the_run(tmp_path, suite):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"suite": "all", "potential": {"g": 1.0, "n": 4.0}}))
    got = run_child(GUARD, suite, str(scenario), str(tmp_path / "out"), cwd=tmp_path)
    assert got["exit"] == 0
    assert got["inside"] == []
    # the classical integrator is numpy alone; scipy comes with quadrature,
    # eigensolvers and the grid
    assert got["scipy"] == (suite not in ("dynamics", "charges", "lms-virasoro", "opalg"))
    assert got["sympy"] == (suite in ("opalg", "all"))


#: Runs the opalg suite with a profile hook on ``cli.run_checks`` and prints
#: the names of the functions in sympy's files that the run called.
SYMPY_CALLS = """
import io, json, os, sys
from contextlib import redirect_stdout
import sympy
from kvnlab import cli

scenario, out = sys.argv[1:]
root = os.path.dirname(sympy.__file__) + os.sep
run, called = cli.run_checks, []

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(root):
        called.append(frame.f_code.co_name)

def profiled(*args, **kwargs):
    sys.setprofile(profile)
    try:
        return run(*args, **kwargs)
    finally:
        sys.setprofile(None)

cli.run_checks = profiled
with redirect_stdout(io.StringIO()):
    code = cli.main(["run", scenario, "--suite", "opalg", "--out", out])
print(json.dumps({"exit": code, "called": sorted(set(called))}))
"""


def test_opalg_run_calls_no_sympy(tmp_path):
    # every opalg check computes in the exact ring; sympy only reads and
    # prints values at the boundary, which no check crosses
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"suite": "opalg", "potential": {"g": 1.0, "n": 4.0}}))
    got = run_child(SYMPY_CALLS, str(scenario), str(tmp_path / "out"), cwd=tmp_path)
    assert got == {"exit": 0, "called": []}


def test_importing_opalg_builds_no_image(tmp_path):
    # the memoised images fill on first use, so no workload's set-up pays
    # for them; a cold opalg run loading no scipy is checked above
    code = (
        "import json, kvnlab.opalg as o\n"
        "print(json.dumps({name: getattr(o, name).cache_info().currsize\n"
        "                  for name in ('_generator_images', '_monomial_image',\n"
        "                               '_weyl_image', '_qp_terms')}))"
    )
    got = run_child(code, cwd=tmp_path)
    assert got == {"_generator_images": 0, "_monomial_image": 0, "_weyl_image": 0, "_qp_terms": 0}
