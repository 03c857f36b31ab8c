"""One run of a benchmark workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED SCENARIO OUT_DIR RESULT [--trace]
    python3 bench/child.py --facts

The repository's ``src`` directory must be on PYTHONPATH as an absolute
path. The run calls the real CLI entry point ``kvnlab.cli.main`` on the
scenario, then the workload's seed-generated batch of library calls, and
writes a JSON result: the CLI exit code, the monotonic-clock time of the
first workload call and of the last return, one verdict per batch
operation and, with ``--trace``, the recorded spans and counters.
``--facts`` imports the package and prints library versions and the BLAS
build instead.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from spans import CountingWarnings, Tracer, replace_everywhere


def _count_samples(tr, args, kwargs, result):
    tr.add("dynamics.integrate.samples", len(result.times))


def _count_points(tr, args, kwargs, result):
    tr.add("dynamics.flow_map_batch.points", len(result[0]))


def _count_term_pairs(tr, args, kwargs, result):
    a, b = args
    if hasattr(b, "terms"):
        tr.add("opalg.mul.term_pairs", len(a.terms) * len(b.terms))


def _count_grid_steps(tr, args, kwargs, result):
    steps = kwargs["steps"] if "steps" in kwargs else args[3]
    tr.add("qgrid.evolve_G.steps", steps)
    tr.add("qgrid.evolve_G.cell_steps", steps * result.amps.size)


def install_tracer(tracer: Tracer):
    """Wrap every layer boundary of kvnlab the runner and workloads cross."""
    from kvnlab import charges, core, dynamics, opalg, qgrid, report, scenario
    from kvnlab import semiclassics, suites, symmetry

    def span_fn(module, attr, count=None):
        fn = getattr(module, attr)
        layer = module.__name__.split(".")[-1]
        replace_everywhere(fn, tracer.span(f"{layer}.{attr}", fn, count))

    def counter_fn(module, attr, name):
        fn = getattr(module, attr)
        replace_everywhere(fn, tracer.counter(name, fn))

    def method(cls, attr, name, kind="span", count=None):
        fn = getattr(cls, attr)
        setattr(cls, attr, getattr(tracer, kind)(name, fn, count))

    method(core.MonomialPotential, "value", "core.value", "counter")
    method(core.MonomialPotential, "derivs", "core.derivs", "counter")

    span_fn(dynamics, "integrate", count=_count_samples)
    span_fn(dynamics, "characteristic_time")
    span_fn(dynamics, "flow_map_batch", count=_count_points)

    for attr in ("liouvillian_value", "lms_charge", "lms_charge_harmonic", "virasoro_charge"):
        counter_fn(charges, attr, f"charges.point.{attr}")
    counter_fn(charges, "epb", "charges.epb")

    for attr in ("lms_map_point", "lms_map_trajectory", "lms_jacobian", "infinitesimal_lms",
                 "action_standard", "action_kvn", "check_action_scaling", "bracket_change"):
        span_fn(symmetry, attr)

    for suite, fn in list(suites.SUITE_FUNCS.items()):
        replace_everywhere(fn, tracer.span(f"suites.{suite}", fn))
    span_fn(suites, "run_checks")
    trajectory = suites.SuiteContext.trajectory

    def trajectory_lookup(ctx, *args, **kwargs):
        before = len(ctx._traj_cache)
        out = trajectory(ctx, *args, **kwargs)
        tracer.add("suites.trajectory.hits", len(ctx._traj_cache) == before)
        return out

    suites.SuiteContext.trajectory = tracer.span("suites.trajectory", trajectory_lookup)

    method(opalg.OperatorPoly, "__mul__", "opalg.mul", count=_count_term_pairs)
    method(opalg.OperatorPoly, "equals", "opalg.equals")
    for attr in ("commutator", "kvn_to_bopp", "build_G", "build_C_hbar", "c_hbar_series",
                 "leak_detect", "adjoint_finite_quadratic", "no_go_standard_qm"):
        span_fn(opalg, attr)

    span_fn(qgrid, "evolve_G", count=_count_grid_steps)
    for attr in ("apply_lms_unitary_harmonic", "schmidt", "evolve_liouville"):
        span_fn(qgrid, attr)
    qgrid.warnings = CountingWarnings(tracer, "qgrid.warn")

    for attr in ("action_integral", "bohr_levels", "lms_bohr_violation",
                 "eigensolve_newton_equiv", "newton_equiv_trajectory_check"):
        span_fn(semiclassics, attr)

    span_fn(scenario, "load_scenario")
    span_fn(report, "write_report")
    span_fn(report, "write_csv")


def _operator_ops(seed):
    from kvnlab import opalg
    from kvnlab.opalg import p_c, q_c

    def verify(expr, jmax):
        built = opalg.build_C_hbar(expr)
        return built.equals(opalg.c_hbar_series(expr, jmax)) and opalg.leak_detect(built).leaks

    ops = []
    for terms in workloads.observables(seed):
        expr = sum(c * q_c**a * p_c**b for c, a, b in terms)
        jmax = workloads.series_order(terms)
        ops.append(lambda expr=expr, jmax=jmax: verify(expr, jmax))
    return ops


def _grid_ops(seed):
    from kvnlab import qgrid
    from kvnlab.core import MonomialPotential

    q0, p0 = workloads.transport_center(seed)
    axis = qgrid.GridAxis(0.0, workloads.TRANSPORT_EXTENT, workloads.TRANSPORT_COUNT)
    width = workloads.TRANSPORT_WIDTH
    state = qgrid.make_separable(
        qgrid.gaussian_profile(q0, width), qgrid.gaussian_profile(p0, width),
        axis, axis, rep=qgrid.REP_QP, hbar=1.0,
    )

    def transport():
        pot = MonomialPotential(1.0, 4.0)
        out = qgrid.evolve_liouville(state, pot, workloads.TRANSPORT_TIME)
        return abs(out.norm() - state.norm()) < workloads.NORM_TOL

    return [transport]


#: Workload -> the seed-generated library operations run after the CLI
#: suite, each a call returning its verdict. Inputs are built before the
#: first workload call, so they count as set-up.
BATCHES = {
    "all-cold": lambda seed: [],
    "operator": _operator_ops,
    "grid": _grid_ops,
}


def run(workload, seed, scenario_path, out_dir, trace):
    import kvnlab.cli as cli

    ops = BATCHES[workload](seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracer(tracer)

    stamps = []
    run_checks = cli.run_checks

    def stamp():
        stamps.append(time.monotonic())

    def stamped_run_checks(*args, **kwargs):
        stamp()
        try:
            return run_checks(*args, **kwargs)
        finally:
            stamp()

    cli.run_checks = stamped_run_checks
    code = cli.main(["run", scenario_path, "--out", out_dir, "--seed", str(seed)])

    verdicts, errors = [], []
    for op in ops:
        try:
            verdicts.append(bool(op()))
        except Exception as exc:  # noqa: BLE001  an exception is a failed operation
            verdicts.append(False)
            errors.append(f"{type(exc).__name__}: {exc}")
    if verdicts:
        stamp()
    return {
        "exit": code,
        "first": stamps[0] if stamps else None,
        "last": stamps[-1] if stamps else None,
        "batch": verdicts,
        "errors": errors,
        "trace": tracer.dump() if tracer is not None else None,
    }


def facts() -> dict:
    import kvnlab.cli  # noqa: F401  warms the import and byte-code caches
    import numpy
    import scipy
    import sympy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv):
    if argv == ["--facts"]:
        print(json.dumps(facts()))
        return 0
    workload, seed, scenario_path, out_dir, result_path = argv[:5]
    result = run(workload, int(seed), scenario_path, out_dir, "--trace" in argv[5:])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
