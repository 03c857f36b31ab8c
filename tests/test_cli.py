"""End-to-end checks for the scenario runner: exit codes, reports, determinism."""

import json
import re
import subprocess
import sys

import pytest

import kvnlab
from kvnlab import cli
from kvnlab.report import CLAIMS, digest
from kvnlab.scenario import SCHEMA, SUITES, validate_scenario
from kvnlab.errors import ScenarioError
from kvnlab.suites import SuiteContext


def run_cli(args, tmp_path, env_extra=None):
    import os

    env = dict(os.environ)
    # The child runs in tmp_path, where a relative PYTHONPATH finds nothing:
    # put the absolute directory of the imported package first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(kvnlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kvnlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


def run_main(args, capsys):
    """Run ``kvnlab`` in this process; the result reads like a finished child."""
    code = cli.main(args)
    out = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out.out, out.err)


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


BASIC = {"suite": "dynamics", "potential": {"g": 1.0, "n": 2.0}}


class TestSchemaCommand:
    def test_prints_the_schema(self, tmp_path):
        proc = run_cli(["schema"], tmp_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == SCHEMA


class TestScenarioValidation:
    def test_minimal_scenario_accepted(self):
        validate_scenario(dict(BASIC))

    def test_missing_potential_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"suite": "dynamics"})

    def test_unknown_suite_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"suite": "nope", "potential": {"g": 1.0, "n": 2.0}})

    def test_unknown_key_rejected(self):
        bad = dict(BASIC)
        bad["extra"] = 1
        with pytest.raises(ScenarioError):
            validate_scenario(bad)

    def test_initial_conditions_rejected(self):
        # No suite reads initial conditions; accepting them would ignore them.
        bad = dict(BASIC, initial_conditions=[[1.0, 0.0, 0.3, -0.2]])
        with pytest.raises(ScenarioError, match="initial_conditions"):
            validate_scenario(bad)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"suite": "dynamics", "potential": {"g": 0.0, "n": 2.0}})

    def test_negative_alpha_rejected(self):
        bad = dict(BASIC)
        bad["lms"] = {"alpha": -1.0}
        with pytest.raises(ScenarioError):
            validate_scenario(bad)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        sc = write_scenario(tmp_path, BASIC)
        proc = run_cli(["run", str(sc), "--out", "rep"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout

    def test_invalid_scenario_is_two(self, tmp_path):
        sc = write_scenario(tmp_path, {"suite": "dynamics"})
        proc = run_cli(["run", str(sc)], tmp_path)
        assert proc.returncode == 2

    def test_unreadable_file_is_two(self, tmp_path):
        proc = run_cli(["run", str(tmp_path / "missing.json")], tmp_path)
        assert proc.returncode == 2

    def test_malformed_json_is_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli(["run", str(path)], tmp_path)
        assert proc.returncode == 2

    def test_initial_conditions_is_two(self, tmp_path):
        sc = write_scenario(tmp_path, dict(BASIC, initial_conditions=[[1.0, 0.0, 0.3, -0.2]]))
        proc = run_cli(["run", str(sc)], tmp_path)
        assert proc.returncode == 2
        assert "initial_conditions" in proc.stderr

    @pytest.mark.parametrize("body, extra", [
        (dict(BASIC, suite="quantum-leak", grid={"count": 100}), []),
        (dict(BASIC, lms={"alpha": 1.3, "beta": 5.0}), []),
        (BASIC, ["--seed", "-3"]),
        (dict(BASIC, potential={"g": float("nan"), "n": 2.0}), []),
        (dict(BASIC, grid={"hbar": float("nan")}), []),
        (dict(BASIC, lms={"alpha": float("inf")}), []),
        (dict(BASIC, tolerances={"charge_drift": float("nan")}), []),
    ], ids=["grid-count-not-power-of-two", "alpha-with-beta", "negative-seed-override",
            "nan-coupling", "nan-hbar", "infinite-alpha", "nan-tolerance"])
    def test_rejected_before_any_check_is_two(self, tmp_path, capsys, body, extra):
        sc = write_scenario(tmp_path, body)
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep"), *extra], capsys)
        assert proc.returncode == 2, proc.stderr
        assert "scenario invalid" in proc.stderr
        assert not (tmp_path / "rep").exists()

    def test_failing_check_is_one(self, tmp_path):
        body = dict(BASIC)
        body["tolerances"] = {"trajectory_match": 1e-30}
        body["suite"] = "newton-equiv"
        sc = write_scenario(tmp_path, body)
        proc = run_cli(["run", str(sc), "--out", "rep"], tmp_path)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


class TestReportContents:
    def run_suite(self, tmp_path, capsys, body, out="rep"):
        sc = write_scenario(tmp_path, body)
        proc = run_main(["run", str(sc), "--out", str(tmp_path / out)], capsys)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        return json.loads((tmp_path / out / "report.json").read_text())

    def test_report_shape(self, tmp_path, capsys):
        rep = self.run_suite(tmp_path, capsys, BASIC)
        assert rep["suite"] == "dynamics"
        assert rep["summary"]["failed"] == 0
        assert rep["summary"]["total"] == len(rep["checks"])
        ids = [r["id"] for r in rep["checks"]]
        assert ids == sorted(ids)

    def test_every_anchor_is_registered(self, tmp_path, capsys):
        body = {"suite": "all", "potential": {"g": 1.0, "n": 4.0}}
        rep = self.run_suite(tmp_path, capsys, body)
        for rec in rep["checks"]:
            assert rec["anchor"] in CLAIMS
        assert rep["summary"]["total"] >= 60

    def test_seed_recorded_and_overridable(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, dict(BASIC, seed=7))
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "a")], capsys)
        assert proc.returncode == 0
        rep = json.loads((tmp_path / "a" / "report.json").read_text())
        assert rep["seed"] == 7
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "b"), "--seed", "11"], capsys)
        assert proc.returncode == 0
        rep = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep["seed"] == 11

    def test_suite_override(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, BASIC)
        proc = run_main(["run", str(sc), "--suite", "bohr", "--out", str(tmp_path / "rep")],
                        capsys)
        assert proc.returncode == 0
        rep = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert rep["suite"] == "bohr"


def strip_wall_time(text):
    return re.sub(r'"wall_time_s": [0-9.eE+-]+', '"wall_time_s": X', text)


class TestDeterminism:
    def test_reports_identical_modulo_wall_time(self, tmp_path):
        body = {"suite": "charges", "potential": {"g": 1.0, "n": 4.0}, "seed": 3}
        sc = write_scenario(tmp_path, body)
        for out in ("one", "two"):
            proc = run_cli(["run", str(sc), "--out", out], tmp_path)
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "one" / "report.json").read_text()
        b = (tmp_path / "two" / "report.json").read_text()
        assert a != b or True  # wall time may coincide; only content matters
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_csv_sidecars_identical(self, tmp_path):
        body = {"suite": "charges", "potential": {"g": 1.0, "n": 4.0}}
        sc = write_scenario(tmp_path, body)
        for out in ("one", "two"):
            proc = run_cli(["run", str(sc), "--out", out], tmp_path)
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
        assert names, "expected at least one csv sidecar"
        for name in names:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b


class TestCsvFormat:
    def test_charge_csv_layout(self, tmp_path, capsys):
        body = {"suite": "charges", "potential": {"g": 1.0, "n": 4.0}}
        sc = write_scenario(tmp_path, body)
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep")], capsys)
        assert proc.returncode == 0, proc.stderr
        path = next((tmp_path / "rep").glob("charges_*.csv"))
        raw = path.read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode("ascii").split("\r\n")
        header = lines[0].split(",")
        assert header[0] == "t"
        # every data cell parses back to a float exactly (%.17g round trips)
        row = lines[1].split(",")
        assert len(row) == len(header)
        for cell in row[1:]:
            float(cell)


class TestSuiteList:
    def test_every_suite_runs_green(self, tmp_path, capsys):
        # the all suite covers everything else; spot-run the rest cheaply
        for suite in SUITES:
            if suite == "all":
                continue
            body = {"suite": suite, "potential": {"g": 1.0, "n": 4.0}}
            sc = write_scenario(tmp_path, body, name=f"{suite}.json")
            proc = run_main(["run", str(sc), "--out", str(tmp_path / f"out-{suite}")], capsys)
            assert proc.returncode == 0, f"{suite}: {proc.stderr}\n{proc.stdout}"


class TestCheckExecutor:
    def test_raising_body_gives_error_record_and_next_check_runs(self, tmp_path):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        inputs = {"potential": {"g": 1.0, "n": 4.0}, "steps": 3}
        with ctx.check("x-raises", "plumbing", inputs, 1e-3) as out:
            out.measured = {"partial": 1.0}
            out.passed = 1 / 0 < 1.0
        with ctx.check("x-next", "plumbing", {"steps": 4}, 0.5) as out:
            out.measured, out.passed = {"gap": 0.1}, True
        first, second = ctx.records
        assert first.to_dict() == {
            "id": "x-raises",
            "anchor": "plumbing",
            "inputs_digest": digest(inputs),
            "measured": {"error": "ZeroDivisionError: division by zero"},
            "tolerance": 1e-3,
            "verdict": "error",
        }
        assert not first.passed
        assert (second.check_id, second.verdict, second.measured) == (
            "x-next", "pass", {"gap": 0.1})

    def test_non_finite_measurement_is_an_error_naming_its_key(self, tmp_path):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        with ctx.check("x-nan", "plumbing", {}, 1e-3) as out:
            out.measured, out.passed = {"gap": 0.0, "drift": float("nan")}, False
        with ctx.check("x-inf", "plumbing", {}, 1e-3) as out:
            out.measured, out.passed = {"levels": [1.0, float("inf")]}, True
        assert [(r.verdict, r.measured) for r in ctx.records] == [
            ("error", {"error": "ValueError: measured value 'drift' is not finite"}),
            ("error", {"error": "ValueError: measured value 'levels' is not finite"}),
        ]

    def run_errored(self, tmp_path, capsys, suite, g, n, **extra):
        sc = write_scenario(tmp_path, {"suite": suite, "potential": {"g": g, "n": n}, **extra})
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep")], capsys)
        assert proc.returncode == 3, proc.stderr
        rep = json.loads((tmp_path / "rep" / "report.json").read_text())
        errors = {c["id"]: c["measured"]["error"] for c in rep["checks"]
                  if c["verdict"] == "error"}
        others = {c["id"]: c["verdict"] for c in rep["checks"] if c["id"] not in errors}
        assert rep["summary"]["failed"] == len(errors)
        for check_id, message in errors.items():
            assert f"ERROR  {check_id}" in proc.stdout
            assert f"error: {check_id}: {message}" in proc.stderr
        return errors, others

    @pytest.mark.parametrize("n", [-2.0, 2.5])
    def test_singular_orbits_are_errors_in_a_written_report(self, tmp_path, capsys, n):
        errors, others = self.run_errored(tmp_path, capsys, "newton-equiv", 1.0, n)
        assert sorted(errors) == ["ne-orbit-gamma0.5", "ne-orbit-gamma10", "ne-orbit-gamma2"]
        assert all(m.startswith("SingularityAbort: ") for m in errors.values())
        assert others and set(others.values()) == {"pass"}

    def test_step_failure_spares_the_other_dynamics_checks(self, tmp_path, capsys):
        errors, others = self.run_errored(tmp_path, capsys, "dynamics", -1.0, 4.0)
        assert sorted(errors) == ["dyn-energy-drift", "dyn-tangent-pairing"]
        assert all(m.startswith("StepFailure: ") for m in errors.values())
        assert others == {"dyn-flow-composition": "pass", "dyn-harmonic-return": "pass"}

    def test_overflowing_levels_are_an_error_in_a_written_report(self, tmp_path, capsys):
        # at hbar = 1e308 every quantized energy overflows; the report must
        # still be written, so no level may reach it as a non-finite float
        errors, others = self.run_errored(tmp_path, capsys, "bohr", 1.0, 4.0,
                                          grid={"hbar": 1e308})
        assert list(errors) == ["bohr-harmonic-levels"]
        assert errors["bohr-harmonic-levels"].startswith("RangeExhausted: ")
        assert others and set(others.values()) == {"pass"}


def strict_report(path):
    """report.json, read with NaN and Infinity refused as strict JSON does."""
    def refuse(name):
        raise ValueError(f"{name} in {path}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestEveryScenarioReports:
    def test_inverted_oscillator_writes_a_report(self, tmp_path, capsys):
        # the period probe escapes without turning; the horizon is the escape
        # time and every measured value reaches a strict-JSON report
        sc = write_scenario(tmp_path, {"suite": "all", "potential": {"g": -1.0, "n": 2.0}})
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep")], capsys)
        assert proc.returncode in (0, 1, 3), proc.stderr
        rep = strict_report(tmp_path / "rep" / "report.json")
        assert {c["verdict"] for c in rep["checks"]} <= {"pass", "fail", "error"}

    def test_integrating_suites_report_over_the_sweep(self, tmp_path, capsys):
        # couplings of both signs and exponents on both sides of the
        # singular origin: the kernel's guard, blow-up and event paths
        for g in (1.0, -1.0, 2.5):
            for n in (-3.0, -2.0, -1.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0):
                for suite in ("dynamics", "newton-equiv"):
                    body = {"suite": suite, "potential": {"g": g, "n": n}}
                    out = tmp_path / f"{suite}_{g:g}_{n:g}"
                    sc = write_scenario(tmp_path, body)
                    proc = run_main(["run", str(sc), "--out", str(out)], capsys)
                    assert proc.returncode in (0, 1, 3), (body, proc.stderr)
                    rep = strict_report(out / "report.json")
                    verdicts = {c["verdict"] for c in rep["checks"]}
                    assert rep["checks"] and verdicts <= {"pass", "fail", "error"}, body


class TestSolutionMapGrid:
    def test_steep_well_maps_onto_a_solution(self, tmp_path, capsys):
        # The mapped and reintegrated grids must share their samples: one
        # stray sample would make the gap measure interpolation error.
        body = {"suite": "lms-classical", "potential": {"g": 2.0, "n": 6.0},
                "exponents": [2, 4, 6, -2, 3], "lms": {"beta": 0.2}}
        sc = write_scenario(tmp_path, body)
        run_main(["run", str(sc), "--out", str(tmp_path / "rep")], capsys)
        rep = json.loads((tmp_path / "rep" / "report.json").read_text())
        check = next(c for c in rep["checks"] if c["id"] == "sym-solution-map-n6")
        assert check["verdict"] == "pass", check["measured"]
        assert check["measured"]["normalized_gap"] < 1e-9
