"""Command line runner.

``kvnlab run scenario.json [--suite NAME] [--out DIR] [--seed N]`` executes
a check suite and writes report.json plus CSV series into the output
directory. ``kvnlab schema`` prints the scenario schema. Each check gets
the verdict pass, fail or error; error means the check raised, and the
report still holds every check. Exit codes: 0 all checks passed, 1 at
least one check failed, 2 the scenario is invalid, 3 at least one check
ended in error, or the run failed before a report could be written.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# before numpy loads OpenBLAS: at kvnlab's matrix sizes a second BLAS thread
# saves no wall time and spins after every call; a caller's value still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import KvnLabError, ScenarioError
from .report import digest, write_report
from .scenario import (
    SUITES,
    load_scenario,
    scenario_with_defaults,
    schema_text,
    validate_scenario,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_SCENARIO = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvnlab",
        description="checked simulations of mechanical similarity in doubled phase space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the checks named by a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--suite", choices=SUITES, default=None,
                     help="override the suite named in the scenario")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's sampling seed, an integer >= 0")

    sub.add_parser("schema", help="print the scenario JSON schema")
    return parser


def run_checks(ctx, suite: str):
    """Run ``suite`` through :func:`kvnlab.suites.run_checks`.

    ``cmd_run`` calls the run through this module-level name, so a caller
    can time or wrap it; the suites module is imported only by a run."""
    from .suites import run_checks as run

    return run(ctx, suite)


def cmd_run(args) -> int:
    try:
        raw = load_scenario(args.scenario)
        if args.seed is not None:
            # the override meets the same bound as the file's seed
            validate_scenario({**raw, "seed": args.seed})
        scenario = scenario_with_defaults(raw)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO

    suite = args.suite or scenario["suite"]
    seed = args.seed if args.seed is not None else scenario["seed"]
    out_dir = args.out or scenario.get("out_dir") or "kvnlab-report"

    try:
        os.makedirs(out_dir, exist_ok=True)
        from .suites import SuiteContext, import_suite_modules

        # the suite's libraries load here, so none is imported inside the run
        import_suite_modules(suite)
        ctx = SuiteContext(scenario=scenario, out_dir=out_dir, seed=seed)
        start = time.perf_counter()
        checks = run_checks(ctx, suite)
        wall_time_s = round(time.perf_counter() - start, 6)
        write_report(os.path.join(out_dir, "report.json"), suite, seed, scenario["potential"],
                     digest(raw), checks, wall_time_s)
    except KvnLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001  surfaced as a runner failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    errors = [c for c in checks if c["verdict"] == "error"]
    for check in checks:
        verdict = check["verdict"]
        print(f"{verdict if verdict == 'pass' else verdict.upper()}  {check['id']}")
    for check in errors:
        print(f"error: {check['id']}: {check['measured']['error']}", file=sys.stderr)
    passed = sum(c["verdict"] == "pass" for c in checks)
    print(f"{passed}/{len(checks)} checks passed")
    print(f"report: {os.path.join(out_dir, 'report.json')}")
    if errors:
        return EXIT_RUNTIME
    return EXIT_OK if passed == len(checks) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "schema":
        print(schema_text())
        return EXIT_OK
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
