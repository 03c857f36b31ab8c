"""End-to-end checks for the scenario runner: exit codes, reports, determinism."""

import json
import re
import subprocess
import sys

import pytest

import kvnlab
from kvnlab.report import CLAIMS
from kvnlab.scenario import SCHEMA, SUITES, validate_scenario
from kvnlab.errors import ScenarioError


def run_cli(args, tmp_path, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("KVNLAB_THREADS", None)
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

    def test_bad_thread_env_is_two(self, tmp_path):
        sc = write_scenario(tmp_path, BASIC)
        proc = run_cli(
            ["run", str(sc)], tmp_path, env_extra={"KVNLAB_THREADS": "abc"}
        )
        assert proc.returncode == 2

    def test_failing_check_is_one(self, tmp_path):
        body = dict(BASIC)
        body["tolerances"] = {"trajectory_match": 1e-30}
        body["suite"] = "newton-equiv"
        sc = write_scenario(tmp_path, body)
        proc = run_cli(["run", str(sc), "--out", "rep"], tmp_path)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


class TestReportContents:
    def run_suite(self, tmp_path, body, out="rep"):
        sc = write_scenario(tmp_path, body)
        proc = run_cli(["run", str(sc), "--out", out], tmp_path)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        return json.loads((tmp_path / out / "report.json").read_text())

    def test_report_shape(self, tmp_path):
        rep = self.run_suite(tmp_path, BASIC)
        assert rep["suite"] == "dynamics"
        assert rep["summary"]["failed"] == 0
        assert rep["summary"]["total"] == len(rep["checks"])
        ids = [r["id"] for r in rep["checks"]]
        assert ids == sorted(ids)

    def test_every_anchor_is_registered(self, tmp_path):
        body = {"suite": "all", "potential": {"g": 1.0, "n": 4.0}}
        rep = self.run_suite(tmp_path, body)
        for rec in rep["checks"]:
            assert rec["anchor"] in CLAIMS
        assert rep["summary"]["total"] >= 60

    def test_seed_recorded_and_overridable(self, tmp_path):
        sc = write_scenario(tmp_path, dict(BASIC, seed=7))
        proc = run_cli(["run", str(sc), "--out", "a"], tmp_path)
        assert proc.returncode == 0
        rep = json.loads((tmp_path / "a" / "report.json").read_text())
        assert rep["seed"] == 7
        proc = run_cli(["run", str(sc), "--out", "b", "--seed", "11"], tmp_path)
        assert proc.returncode == 0
        rep = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep["seed"] == 11

    def test_suite_override(self, tmp_path):
        sc = write_scenario(tmp_path, BASIC)
        proc = run_cli(["run", str(sc), "--suite", "bohr", "--out", "rep"], tmp_path)
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

    def test_thread_count_does_not_change_output(self, tmp_path):
        body = {"suite": "lms-classical", "potential": {"g": 1.0, "n": 4.0}}
        sc = write_scenario(tmp_path, body)
        proc = run_cli(["run", str(sc), "--out", "serial"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            ["run", str(sc), "--out", "par"],
            tmp_path,
            env_extra={"KVNLAB_THREADS": "4"},
        )
        assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "serial" / "report.json").read_text()
        b = (tmp_path / "par" / "report.json").read_text()
        assert strip_wall_time(a) == strip_wall_time(b)


class TestCsvFormat:
    def test_charge_csv_layout(self, tmp_path):
        body = {"suite": "charges", "potential": {"g": 1.0, "n": 4.0}}
        sc = write_scenario(tmp_path, body)
        proc = run_cli(["run", str(sc), "--out", "rep"], tmp_path)
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
    def test_every_suite_runs_green(self, tmp_path):
        # the all suite covers everything else; spot-run the rest cheaply
        for suite in SUITES:
            if suite == "all":
                continue
            body = {"suite": suite, "potential": {"g": 1.0, "n": 4.0}}
            sc = write_scenario(tmp_path, body, name=f"{suite}.json")
            proc = run_cli(["run", str(sc), "--out", f"out-{suite}"], tmp_path)
            assert proc.returncode == 0, f"{suite}: {proc.stderr}\n{proc.stdout}"
