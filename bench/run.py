"""kvnlab benchmark: cold runs of the real program, one fresh interpreter each.

    python3 bench/run.py --workload all-cold --seed 1 --seconds 40 --trace 0

Run from any directory; the repository root is the parent of this file's
directory. Each timed run starts ``bench/child.py`` in a new interpreter
with the absolute path of ``src`` on PYTHONPATH, so every run pays imports
and the program's own caches cold, as every ``kvnlab run`` does. Runs
follow one another until ``--seconds`` is used up (at least two per
invocation, so that two reports of one seed can be compared).

``--trace 0`` reports the end-to-end metrics over the runs: wall, set-up,
compute and CPU time and peak memory, each as the median of the averages
of all pairs of runs (the Hodges-Lehmann estimate), with the plain median
and the sample count printed beside it. ``--trace 1`` alternates untraced
runs with traced ones, which wrap every layer boundary from outside and
run under ``-X importtime``, and reports the per-layer metrics, the
tracing overhead and the known-crash probe. Every run is
checked for correctness; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import analysis
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
#: Every child is killed once the invocation has run this long, so that the
#: benchmark always ends within its 180-second limit.
DEADLINE_S = 170
MIN_RUNS = 2

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("compute_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)
SUITES = ("dynamics", "charges", "lms-classical", "lms-virasoro", "opalg",
          "quantum-leak", "bohr", "newton-equiv")
LAYERS = ("core", "dynamics", "charges", "symmetry", "suites", "opalg", "qgrid",
          "semiclassics", "scenario", "report")
IMPORT_PACKAGES = ("kvnlab", "scipy", "sympy", "numpy", "jsonschema")
#: Per-layer metrics read as self time of the span of the same name.
SELF_SPANS = (
    "dynamics.integrate", "dynamics.characteristic_time", "dynamics.flow_map_batch",
    "opalg.mul", "opalg.kvn_to_bopp", "opalg.build_G", "opalg.build_C_hbar",
    "opalg.c_hbar_series", "opalg.equals", "opalg.adjoint_finite_quadratic",
    "opalg.no_go_standard_qm", "qgrid.evolve_G", "qgrid.apply_lms_unitary_harmonic",
    "qgrid.schmidt", "qgrid.evolve_liouville", "semiclassics.bohr_levels",
    "semiclassics.lms_bohr_violation", "semiclassics.eigensolve_newton_equiv",
    "semiclassics.newton_equiv_trajectory_check", "scenario.load_scenario",
    "report.write_report",
) + tuple(f"suites.{s}" for s in SUITES)
#: Per-layer metrics read as the call count of the span of the same name.
CALL_SPANS = (
    "dynamics.integrate", "dynamics.characteristic_time", "suites.trajectory",
    "opalg.mul", "opalg.commutator", "semiclassics.action_integral", "report.write_csv",
)
_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]*')


class Run:
    """One child run: its timings, its result file and its verdicts."""

    def __init__(self, launch, exit_time, status, usage, result, stderr, out_dir):
        self.wall_s = exit_time - launch
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.result = result
        self.stderr = stderr
        self.out_dir = out_dir
        ok = result is not None and result["first"] is not None
        self.setup_s = result["first"] - launch if ok else None
        self.compute_s = result["last"] - result["first"] if ok else None
        self.expected = 0
        self.failed = None  # None: crashed, every expected operation failed
        self.notes = []


def launch(args, env, cwd, stdout_path, stderr_path, deadline):
    """Start one child, wait for it, return (launch, exit, status, rusage).

    The child is killed at ``deadline`` (a monotonic-clock time)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, status, usage


class Bench:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.reference = workloads.load_reference()
        self.expected_checks = workloads.expected_checks(workload, self.reference)
        self.scenario_path = self._write_scenario("scenario", workloads.SCENARIOS[workload])
        self.count = 0
        self.first_report = None
        self.deadline = time.monotonic() + DEADLINE_S

    def _write_scenario(self, name, scenario):
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(scenario))
        return str(path)

    def child(self, traced: bool) -> Run:
        self.count += 1
        tag = f"run{self.count}"
        out_dir = self.workdir / tag
        result_path = self.workdir / f"{tag}.json"
        stderr_path = self.workdir / f"{tag}.err"
        args = [sys.executable]
        if traced:
            args += ["-X", "importtime"]
        args += [str(CHILD), self.workload, str(self.seed), self.scenario_path,
                 str(out_dir), str(result_path)]
        if traced:
            args.append("--trace")
        t0, t1, status, usage = launch(args, self.env, self.workdir,
                                       os.devnull, stderr_path, self.deadline)
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        run = Run(t0, t1, status, usage, result,
                  stderr_path.read_text(errors="replace"), out_dir)
        self.score(run)
        return run

    def score(self, run: Run):
        """Count the run's operations and the failed ones."""
        batch = workloads.batch_size(self.workload)
        run.expected = len(self.expected_checks) + batch
        report_path = run.out_dir / "report.json"
        if run.result is None or run.result["first"] is None or not report_path.exists():
            run.notes.append(f"crashed (exit {run.exit_code}): {_last_line(run.stderr)}")
            return
        failed = 0
        report_bytes = report_path.read_bytes()
        checks = {c["id"]: c for c in json.loads(report_bytes)["checks"]}
        for cid, ref in self.expected_checks.items():
            got = checks.get(cid)
            if got is None or got["verdict"] != ref["verdict"]:
                failed += 1
                run.notes.append(f"{cid}: {got['verdict'] if got else 'missing'}, "
                                 f"reference {ref['verdict']}")
                continue
            if self.workload != "all-cold":
                continue
            grown = [k for k, v in workloads.gap_values(got).items()
                     if k in ref["gaps"] and workloads.gap_grew(v, ref["gaps"][k])]
            if grown:
                failed += 1
                run.notes.append(f"{cid}: {', '.join(grown)} grew beyond the reference")
        for cid in sorted(set(checks) - set(self.expected_checks)):
            run.expected += 1
            failed += 1
            run.notes.append(f"{cid}: not in the reference")
        verdicts = run.result["batch"]
        failed += batch - sum(verdicts[:batch])
        run.notes += run.result["errors"]
        if self.workload == "all-cold":
            normalized = _WALL_TIME.sub(b"", report_bytes)
            if self.first_report is None:
                self.first_report = normalized
            else:
                run.expected += 1
                if normalized != self.first_report:
                    failed += 1
                    run.notes.append("report.json differs from the first run of this seed")
        run.failed = failed

    def timed(self, seconds: float, trace: bool):
        """Child runs back to back until ``seconds`` are used up."""
        plan = (False, True) if trace else (False,)
        runs = []
        start = time.monotonic()
        while True:
            runs.append(self.child(plan[len(runs) % len(plan)]))
            elapsed = time.monotonic() - start
            per_run = statistics.median(r.wall_s for r in runs)
            if len(runs) >= MIN_RUNS and elapsed + per_run > seconds:
                return runs

    def probe(self):
        """Run the known-crashing ``all`` scenarios once each."""
        outcomes = []
        for i, pot in enumerate(workloads.CRASH_POTENTIALS):
            path = self._write_scenario(f"crash{i}", {**workloads.README_SCENARIO,
                                                      "potential": pot})
            out_dir = self.workdir / f"crash{i}"
            stderr_path = self.workdir / f"crash{i}.err"
            args = [sys.executable, "-m", "kvnlab.cli", "run", path, "--out", str(out_dir),
                    "--seed", str(self.seed)]
            _, _, status, _ = launch(args, self.env, self.workdir, os.devnull, stderr_path,
                                     self.deadline)
            outcomes.append({
                "potential": pot,
                "exit": os.waitstatus_to_exitcode(status),
                "report": (out_dir / "report.json").exists(),
                "stderr": _last_line(stderr_path.read_text(errors="replace")),
            })
        return outcomes


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1].strip() if lines else ""


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) if path.exists() else 0


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics of one traced run."""
    trace = run.result["trace"]
    spans = trace["spans"]
    calls, self_s = defaultdict(int), defaultdict(float)
    in_window = 0.0
    first, last = run.result["first"], run.result["last"]
    for span, own in zip(spans, analysis.span_self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        if span[1] >= first and span[2] <= last:
            in_window += own
    # Counted calls all happen inside workload calls, so their self time
    # belongs to the window too.
    for name, (n, _total, own) in trace["counted"].items():
        calls[name] += n
        self_s[name] += own
        in_window += own
    counts = trace["counts"]

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {f"{name}.self_s": self_s[name] for name in SELF_SPANS}
    m.update({f"{name}.calls": calls[name] for name in CALL_SPANS})
    m.update({f"{layer}.self_s": total(layer + ".", self_s) for layer in LAYERS})
    lookups = calls["suites.trajectory"]
    m.update({
        "core.potential_calls": calls["core.value"] + calls["core.derivs"],
        "dynamics.integrate.samples": counts.get("dynamics.integrate.samples", 0),
        "dynamics.flow_map_batch.points": counts.get("dynamics.flow_map_batch.points", 0),
        "charges.point_calls": total("charges.point.", calls),
        "charges.point_self_s": total("charges.point.", self_s),
        "charges.epb.calls": calls["charges.epb"],
        "symmetry.calls": total("symmetry.", calls),
        "suites.trajectory.hit_ratio":
            counts.get("suites.trajectory.hits", 0) / lookups if lookups else 0.0,
        "opalg.mul.term_pairs": counts.get("opalg.mul.term_pairs", 0),
        "qgrid.evolve_G.steps": counts.get("qgrid.evolve_G.steps", 0),
        # computed, not measured: two transforms of 16-byte cells per step
        "qgrid.evolve_G.fft_bytes_computed":
            counts.get("qgrid.evolve_G.cell_steps", 0) * 2 * 16,
        "qgrid.aliasing_warnings": counts.get("qgrid.warn.AliasingWarning", 0),
        "qgrid.domain_exit_warnings": counts.get("qgrid.warn.DomainExitWarning", 0),
        "report.bytes_written": _dir_bytes(run.out_dir),
        "trace.compute_s": run.compute_s,
        "trace.uncovered_s": run.compute_s - in_window,
    })
    imports = analysis.import_breakdown(run.stderr, IMPORT_PACKAGES)
    m.update({f"import.{pkg}_s": v for pkg, v in imports.items()})
    return m


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "B" if "bytes" in name else "count"


def machine_facts(bench: Bench) -> dict:
    facts_path = bench.workdir / "facts.json"
    launch([sys.executable, str(CHILD), "--facts"], bench.env, bench.workdir,
           facts_path, bench.workdir / "facts.err", bench.deadline)
    try:
        facts = json.loads(facts_path.read_text())
    except json.JSONDecodeError:
        facts = {"error": _last_line((bench.workdir / "facts.err").read_text())}
    facts["nproc"] = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KVNLAB_THREADS"):
        facts[var] = os.environ.get(var, "unset")
    facts["git_sha"] = _git_sha()
    facts["seed"] = bench.seed
    facts.update(_lscpu_caches())
    return facts


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    out = {}
    for level in ("L2", "L3"):
        m = re.search(rf"^{level} cache:\s*(.+)$", text, re.M)
        out[f"{level}_cache"] = m.group(1).strip() if m else "unavailable"
    return out


def input_sizes(workload: str) -> dict:
    """Sizes of the workload's inputs, computed from its definition."""
    count = workloads.SCENARIOS[workload].get("grid", {}).get("count", 128)
    sizes = {"suite_grid_cells": count * count,
             "suite_bytes_per_complex_array": count * count * 16}
    if workload == "operator":
        sizes["observables"] = workloads.OBSERVABLES
    if workload == "grid":
        cells = workloads.TRANSPORT_COUNT ** 2
        sizes["transport_grid_cells"] = cells
        sizes["transport_bytes_per_complex_array"] = cells * 16
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kvnlab" / "__init__.py").is_file():
        print(f"error: no kvnlab sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running child is killed and waited for
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        return measure(args, Bench(args.workload, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, bench: Bench) -> int:
    facts = machine_facts(bench)
    print("machine (computed sizes marked):")
    for key, value in {**facts, **{f"{k} (computed)": v for k, v in
                                   input_sizes(args.workload).items()}}.items():
        print(f"  {key}: {value}")

    runs = bench.timed(args.seconds, bool(args.trace))
    plain = [r for r in runs if r.result is None or r.result["trace"] is None]
    traced = [r for r in runs if r not in plain]
    attempted, failed = analysis.fail_ratio((r.expected, r.failed) for r in runs)
    for i, r in enumerate(runs, 1):
        print(f"  run {i}{' traced' if r in traced else ''}: " + "  ".join(
            f"{name} {getattr(r, name):.4f}" for name, _ in END_TO_END
            if getattr(r, name) is not None))
        for note in r.notes:
            print(f"  FAIL run {i}: {note}")
    timed_ok = [r for r in plain if r.setup_s is not None]

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced runs; fail_ratio {failed}/{attempted}")
    metrics = {}
    if timed_ok:
        for name, unit in END_TO_END:
            s = analysis.summarize([getattr(r, name) for r in timed_ok])
            tail = {k: round(v, 4) for k, v in s.items() if k.startswith("p")}
            print(f"  {name:12s} {s['center']:.4f} {unit} (median {s['median']:.4f}, "
                  f"n={s['n']}) {tail or '(no tail percentile: fewer than 100 runs)'}")
            metrics[name] = {"value": s["center"], "unit": unit}

    if args.trace:
        metrics = trace_metrics(bench, plain, traced)

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(bench: Bench, plain, traced) -> dict:
    per_run = [layer_metrics(r) for r in traced if r.failed is not None]
    if not per_run or not any(r.compute_s for r in plain):
        return {}
    merged = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    untraced = statistics.median(r.compute_s for r in plain if r.compute_s is not None)
    merged["trace.overhead_ratio"] = merged["trace.compute_s"] / untraced - 1.0

    outcomes = bench.probe()
    merged["probe.crashed_scenarios"] = sum(not o["report"] for o in outcomes)
    print("known-crash probe:")
    for o in outcomes:
        print(f"  g={o['potential']['g']:g} n={o['potential']['n']:g}: exit {o['exit']}, "
              f"{'report' if o['report'] else 'no report'}; {o['stderr']}")

    covered = merged["trace.compute_s"] - merged["trace.uncovered_s"]
    print(f"traced compute {merged['trace.compute_s']:.4f} s = self times {covered:.4f} s"
          f" + uncovered {merged['trace.uncovered_s']:.4f} s")
    metrics = {}
    for name in sorted(merged):
        unit = metric_unit(name)
        metrics[name] = {"value": merged[name], "unit": unit}
        print(f"  {name:48s} {merged[name]:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
