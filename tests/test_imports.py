"""What importing kvnlab and running a suite load, each in a fresh interpreter.

``import kvnlab`` is lazy: the package imports a submodule when one of its
public names is first used. The command line loads the modules of the
selected suite before it starts the run, so no import lands inside the
timed ``run_checks`` call.
"""

import importlib
import json
from pathlib import Path

import pytest

import kvnlab
from kvnlab.scenario import SUITES

#: The benchmark's workload definitions, which seed its observables.
BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Runs kvnlab with ``cli.run_checks`` wrapped and prints, as JSON, the exit
#: code, the modules first imported inside the run and whether scipy, sympy
#: and jsonschema were loaded.
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
                  **{name: name in sys.modules for name in ("scipy", "sympy", "jsonschema")}}))
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


@pytest.fixture
def run_child(run_python):
    """Run ``code`` on ``args`` in a child interpreter; its last line of
    output, read as JSON."""

    def run(code, *args, cwd, env=None):
        proc = run_python("-c", code, *args, cwd=cwd, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run


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


def test_import_and_schema_load_no_science_library(tmp_path, run_child):
    got = run_child(SCHEMA, cwd=tmp_path)
    assert got["bare"] == []
    assert got["exit"] == 0
    assert got["schema"] == []


#: Imports the command line and prints whether numpy was loaded and the
#: OpenBLAS thread count it leaves in the environment.
THREADS = """
import json, os, sys
import kvnlab.cli
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.parametrize("preset,threads", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_cli_defaults_to_one_blas_thread_before_numpy_loads(tmp_path, run_child, preset, threads):
    # OpenBLAS reads the variable once, when numpy loads it
    got = run_child(THREADS, cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": preset})
    assert got == {"numpy": False, "threads": threads}


@pytest.mark.parametrize("suite", SUITES)
def test_run_imports_nothing_inside_the_run(tmp_path, run_child, suite):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"suite": "all", "potential": {"g": 1.0, "n": 4.0}}))
    got = run_child(GUARD, suite, str(scenario), str(tmp_path / "out"), cwd=tmp_path)
    assert got["exit"] == 0
    assert got["inside"] == []
    # every check computes with numpy or in opalg's exact ring, and the
    # scenario is read by kvnlab's own schema walker
    assert got["scipy"] is False
    assert got["sympy"] is False
    assert got["jsonschema"] is False


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


def test_opalg_run_calls_no_sympy(tmp_path, run_child):
    # every opalg check computes in the exact ring; sympy only reads and
    # prints values at the boundary, which no check crosses
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"suite": "opalg", "potential": {"g": 1.0, "n": 4.0}}))
    got = run_child(SYMPY_CALLS, str(scenario), str(tmp_path / "out"), cwd=tmp_path)
    assert got == {"exit": 0, "called": []}


def test_importing_opalg_builds_no_image(tmp_path, run_child):
    # the memoised images fill on first use, so no workload's set-up pays
    # for them; a cold opalg run loading no scipy is checked above
    code = (
        "import json, kvnlab.opalg as o\n"
        "print(json.dumps({name: getattr(o, name).cache_info().currsize\n"
        "                  for name in ('_generator_images', '_monomial_image', '_qp_terms')}))"
    )
    got = run_child(code, cwd=tmp_path)
    assert got == {"_generator_images": 0, "_monomial_image": 0, "_qp_terms": 0}


#: Imports opalg, then its boundary symbols, and prints whether sympy was
#: loaded after each, with what the printers and an observable give.
BOUNDARY = """
import json, sys
import kvnlab.opalg as o
bare = "sympy" in sys.modules
from kvnlab.opalg import q_c, p_c, hbar
x = o.build_C_hbar(q_c**3 * p_c**2 / 3 - 2 * q_c * p_c)
a2 = o.lms_quantum_generator(o.MonomialPotential(1.0, 2.0))
fin = o.adjoint_finite_quadratic(a2, o.bopp_operators()[0])
scaled = o.q_op().scale(3 * o.t_sym / hbar) + o.lq_op().scale(o.alpha_sym / 2)
print(json.dumps({"bare": bare, "symbols": "sympy" in sys.modules, "same": o.hbar is hbar,
                  "str": str(x), "coefficient": str(x.coefficient((0, 2, 0, 3))),
                  "fin": str(fin), "fin_lp": str(fin.coefficient((0, 0, 0, 1))),
                  "scaled": str(scaled)}))
"""


def test_opalg_loads_sympy_at_its_boundary_only(tmp_path, run_child):
    got = run_child(BOUNDARY, cwd=tmp_path)
    assert got["bare"] is False
    assert got["symbols"] is True
    assert got["same"] is True
    # the strings the eager module printed
    assert got["str"] == (
        "2*p*lp - 2*q*lq - hbar**4/48*lq**2*lp**3 - hbar**2/12*p**2*lp**3"
        " + hbar**2/2*q*p*lq*lp**2 - hbar**2/4*q**2*lq**2*lp - q**2*p**2*lp + 2/3*q**3*p*lq")
    assert got["coefficient"] == "-hbar**2/12"
    assert got["fin"] == "(-hbar*exp(-alpha)/2)*lp + exp(alpha)*q"
    assert got["fin_lp"] == "-hbar*exp(-alpha)/2"
    assert got["scaled"] == "alpha/2*lq + 3*t/hbar*q"


#: Writes the benchmark's 40 seeded observables in q_c and p_c, checks each
#: as its operator batch does, and prints whether sympy was loaded before and
#: after a result is printed.
OBSERVABLES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from kvnlab import opalg
from kvnlab.opalg import p_c, q_c

checked = []
for terms in workloads.observables(7):
    expr = sum(c * q_c**a * p_c**b for c, a, b in terms)
    built = opalg.build_C_hbar(expr)
    series = opalg.c_hbar_series(expr, workloads.series_order(terms))
    checked.append(built.equals(series) and opalg.leak_detect(built).leaks)
built_sympy = "sympy" in sys.modules
text = str(built)
print(json.dumps({"count": len(checked), "checked": all(checked),
                  "built": built_sympy, "printed": "sympy" in sys.modules}))
"""


def test_writing_and_building_observables_loads_no_sympy(tmp_path, run_child):
    # q_c and p_c are the ring's q and p, so only printing crosses the boundary
    got = run_child(OBSERVABLES, str(BENCH), cwd=tmp_path)
    assert got == {"count": 40, "checked": True, "built": False, "printed": True}
