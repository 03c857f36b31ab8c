"""End-to-end checks for the scenario runner: exit codes, reports, determinism."""

import hashlib
import json
import math
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

from kvnlab import cli, dynamics, semiclassics
from kvnlab.core import MonomialPotential
from kvnlab.dynamics import characteristic_time, integrate
from kvnlab.report import CLAIMS, digest, write_report
from kvnlab.scenario import SCHEMA, SUITES, validate_scenario
from kvnlab.errors import CheckFailure, ScenarioError, SingularityAbort
from kvnlab.suites import FIXTURES, SuiteContext, _start


@pytest.fixture
def run_cli(run_python):
    """Run ``kvnlab`` on ``args`` in a child interpreter, in ``cwd``."""
    return lambda args, cwd: run_python("-m", "kvnlab.cli", *args, cwd=cwd)


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
#: the scenario the README runs
README_SCENARIO = {"suite": "all", "potential": {"g": 1.0, "n": 4.0}, "lms": {"alpha": 1.3},
                   "seed": 17}


class TestSchemaCommand:
    def test_prints_the_schema(self, tmp_path, run_cli):
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

    def test_beta_must_give_a_positive_finite_alpha(self):
        # exp(710) overflows a double and exp(-746) underflows to 0
        validate_scenario(dict(BASIC, lms={"beta": 709}))
        for beta in (710, -746):
            with pytest.raises(ScenarioError, match=f"lms beta {beta}: exp"):
                validate_scenario(dict(BASIC, lms={"beta": beta}))

    @pytest.mark.parametrize("body, key", [
        (dict(BASIC, lms={"alpha": 10**400}), "lms.alpha"),
        (dict(BASIC, potential={"g": 1.0, "n": -10**400}), "potential.n"),
        (dict(BASIC, exponents=[1.0, 10**400]), "exponents[1]"),
        (dict(BASIC, tolerances={"charge_drift": math.inf}), "tolerances.charge_drift"),
        (dict(BASIC, seed=10**400), "seed"),
    ])
    def test_every_number_must_convert_to_a_finite_float(self, body, key):
        # json reads integers of any size; the message names the key, not
        # the 401-digit value
        message = f"scenario invalid: {key} does not convert to a finite float"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            validate_scenario(body)
        validate_scenario(dict(BASIC, seed=2**64, lms={"alpha": 10**300}))


#: Scenarios the tests, demos and benchmark run, and one with every section.
ACCEPTED = [
    BASIC,
    {"suite": "all", "potential": {"g": 1.0, "n": 4.0}, "seed": 17},
    {"suite": "quantum-leak", "potential": {"g": 1.0, "n": 4.0}, "grid": {"count": 256}},
    *({"suite": suite, "potential": {"g": -1.0, "n": -2.0}} for suite in SUITES),
    {"suite": "all", "potential": {"g": 2.5, "n": 3}, "exponents": [1, -2.5, 6.0],
     "lms": {"beta": -0.3}, "grid": {"count": 64, "extent": 6.0, "hbar": 1},
     "tolerances": {name: 1e-3 for name in SCHEMA["properties"]["tolerances"]["properties"]},
     "seed": 0, "out_dir": "rep"},
]

#: One fault per scenario, each found by a different keyword of SCHEMA.
SINGLE_FAULTS = {
    "type": [["not", "an", "object"], dict(BASIC, potential={"g": "1", "n": 2.0}),
             dict(BASIC, seed=True), dict(BASIC, potential={"g": False, "n": 2.0})],
    "properties": [dict(BASIC, grid={"extent": [8.0]})],
    "required": [{"suite": "dynamics"}, dict(BASIC, potential={"g": 1.0})],
    "additionalProperties": [dict(BASIC, extra=1), dict(BASIC, lms={"gamma": 2.0})],
    "enum": [dict(BASIC, suite="nope"), dict(BASIC, suite=True)],
    "not": [dict(BASIC, potential={"g": 0.0, "n": 2.0}), dict(BASIC, exponents=[2, 0])],
    "items": [dict(BASIC, exponents=[1.0, "2"])],
    "minItems": [dict(BASIC, exponents=[])],
    "maxProperties": [dict(BASIC, lms={"alpha": 1.3, "beta": 5.0})],
    "minimum": [dict(BASIC, seed=-3), dict(BASIC, grid={"count": 1})],
    "exclusiveMinimum": [dict(BASIC, lms={"alpha": -1.0}),
                         dict(BASIC, tolerances={"charge_drift": 0})],
    "minLength": [dict(BASIC, out_dir="")],
}


class TestSchemaWalker:
    """The validator against jsonschema, which the tests use as an oracle."""

    def test_schema_uses_the_walked_keywords_only(self):
        def keywords(schema):
            for key, arg in schema.items():
                yield key
                if key in ("items", "not"):
                    yield from keywords(arg)
                elif key == "properties":
                    for sub in arg.values():
                        yield from keywords(sub)

        assert set(keywords(SCHEMA)) - {"$schema", "title"} == set(SINGLE_FAULTS)

    @pytest.mark.parametrize("body", ACCEPTED)
    def test_accepts_what_jsonschema_accepts(self, body):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(body, SCHEMA)
        assert validate_scenario(body) is body

    @pytest.mark.parametrize("keyword", sorted(SINGLE_FAULTS))
    def test_message_is_jsonschemas(self, keyword):
        jsonschema = pytest.importorskip("jsonschema")
        for body in SINGLE_FAULTS[keyword]:
            errors = list(jsonschema.Draft7Validator(SCHEMA).iter_errors(body))
            assert len(errors) == 1
            assert keyword in errors[0].schema_path
            with pytest.raises(ScenarioError) as info:
                validate_scenario(body)
            assert str(info.value) == "scenario invalid: " + jsonschema.exceptions.best_match(
                errors).message

    @pytest.mark.parametrize("body", [dict(BASIC, seed=3.0), dict(BASIC, grid={"count": 128.0})])
    def test_integral_float_is_not_an_integer(self, body):
        # the one documented difference: jsonschema's "integer" admits 3.0,
        # which the seeded samplers and the grids refuse
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(body, SCHEMA)
        with pytest.raises(ScenarioError, match=r"\.0 is not of type 'integer'"):
            validate_scenario(body)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, run_cli):
        sc = write_scenario(tmp_path, BASIC)
        proc = run_cli(["run", str(sc), "--out", "rep"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout

    def test_invalid_scenario_is_two(self, tmp_path, run_cli):
        sc = write_scenario(tmp_path, {"suite": "dynamics"})
        proc = run_cli(["run", str(sc)], tmp_path)
        assert proc.returncode == 2

    def test_unreadable_file_is_two(self, tmp_path, run_cli):
        proc = run_cli(["run", str(tmp_path / "missing.json")], tmp_path)
        assert proc.returncode == 2

    def test_malformed_json_is_two(self, tmp_path, run_cli):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli(["run", str(path)], tmp_path)
        assert proc.returncode == 2

    def test_initial_conditions_is_two(self, tmp_path, run_cli):
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
        (dict(BASIC, suite="charges", potential={"g": 1.0, "n": 4.0}, seed=3.0), []),
        (dict(BASIC, suite="quantum-leak", grid={"count": 128.0}), []),
        (dict(BASIC, suite="all", potential={"g": 1, "n": 4}, lms={"beta": 800}), []),
        (dict(BASIC, suite="bohr", potential={"g": 1, "n": 4}, lms={"beta": -1e6}), []),
        # integers that json accepts and no double holds
        (dict(BASIC, suite="bohr", potential={"g": 1, "n": 4}, lms={"alpha": 10**400}), []),
        (dict(BASIC, potential={"g": 10**400, "n": 4}), []),
        (dict(BASIC, suite="quantum-leak", grid={"extent": 10**400}), []),
    ], ids=["grid-count-not-power-of-two", "alpha-with-beta", "negative-seed-override",
            "nan-coupling", "nan-hbar", "infinite-alpha", "nan-tolerance", "float-seed",
            "float-grid-count", "overflowing-beta", "underflowing-beta", "huge-int-alpha",
            "huge-int-coupling", "huge-int-extent"])
    def test_rejected_before_any_check_is_two(self, tmp_path, capsys, body, extra):
        sc = write_scenario(tmp_path, body)
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep"), *extra], capsys)
        assert proc.returncode == 2, proc.stderr
        assert "scenario invalid" in proc.stderr
        assert not (tmp_path / "rep").exists()

    def test_failing_check_is_one(self, tmp_path, run_cli):
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
        # every cited anchor is registered and every registered one is
        # cited: a claim that no check exercises is not tested
        body = {"suite": "all", "potential": {"g": 1.0, "n": 4.0}}
        rep = self.run_suite(tmp_path, capsys, body)
        assert {rec["anchor"] for rec in rep["checks"]} == set(CLAIMS)
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
    def test_reports_identical_modulo_wall_time(self, tmp_path, run_cli):
        body = {"suite": "charges", "potential": {"g": 1.0, "n": 4.0}, "seed": 3}
        sc = write_scenario(tmp_path, body)
        for out in ("one", "two"):
            proc = run_cli(["run", str(sc), "--out", out], tmp_path)
            assert proc.returncode == 0, proc.stderr
        a = (tmp_path / "one" / "report.json").read_text()
        b = (tmp_path / "two" / "report.json").read_text()
        assert strip_wall_time(a) == strip_wall_time(b)

    #: sha256 of the CSV sidecars of the README run, pinned with its report
    README_SIDECARS = {
        "charges_n-1.csv": "eda0fdd6c3aea11ca4950bb98eb6ab2dd7e2dc4dbb0002990040afe94c90cabe",
        "charges_n-2.csv": "acaad3ff54350d8b35e1f7ad5d7825e8f048011e6ad609782148492a7d82c880",
        "charges_n1.csv": "2bb72dde886024269a8a188bfe8e518ba39aa0e3f5d554d002ed496e529148bc",
        "charges_n3.csv": "6399c5df3995280eb771538338caf974e6383408dad4a89ef14ba507bbc57add",
        "charges_n4.csv": "6fed1876c0b7831c1ecfbea7983e9ed730b6ede2ba7bc691e33531896a07e499",
        "schmidt_vs_alpha.csv": "048a1db953cebd835262a67208b3aacc303981c181cd89f88d585443ce2b4d47",
    }

    def test_readme_report_matches_its_pin(self, tmp_path, capsys):
        """The README scenario's report.json, with its wall_time_s line
        removed, is byte for byte tests/data/readme_report.json, and its CSV
        sidecars hash to README_SIDECARS. A change that moves report values
        regenerates these pins on purpose, as it does bench/reference.json,
        and lists every moved value."""
        sc = write_scenario(tmp_path, README_SCENARIO)
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep")], capsys)
        assert proc.returncode == 0, proc.stderr
        raw = (tmp_path / "rep" / "report.json").read_bytes()
        pin = Path(__file__).parent / "data" / "readme_report.json"
        assert re.sub(rb',\n  "wall_time_s": [^\n]+', b"", raw) == pin.read_bytes()
        sidecars = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (tmp_path / "rep").glob("*.csv")}
        assert sidecars == self.README_SIDECARS

    def test_csv_sidecars_identical(self, tmp_path, run_cli):
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
    def test_an_unregistered_anchor_stops_the_check_before_its_body(self, tmp_path):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        ran = []
        with pytest.raises(CheckFailure, match="unregistered anchor 'no-such-claim'"):
            with ctx.check("x-anchor", "no-such-claim", {}, 1e-3) as out:
                ran.append(out)
        assert ran == [] and ctx.records == []

    def test_raising_body_gives_error_record_and_next_check_runs(self, tmp_path):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        inputs = {"potential": {"g": 1.0, "n": 4.0}, "steps": 3}
        with ctx.check("x-raises", "plumbing", inputs, 1e-3) as out:
            out.measured = {"partial": 1.0}
            out.passed = 1 / 0 < 1.0
        with ctx.check("x-next", "plumbing", {"steps": 4}, 0.5) as out:
            out.measured, out.passed = {"gap": 0.1}, True
        first, second = ctx.records
        assert first == {
            "id": "x-raises",
            "anchor": "plumbing",
            "inputs_digest": digest(inputs),
            "measured": {"error": "ZeroDivisionError: division by zero"},
            "tolerance": 1e-3,
            "verdict": "error",
        }
        assert (second["id"], second["verdict"], second["measured"]) == (
            "x-next", "pass", {"gap": 0.1})

    def test_non_finite_measurement_is_an_error_naming_its_key(self, tmp_path):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        with ctx.check("x-nan", "plumbing", {}, 1e-3) as out:
            out.measured, out.passed = {"gap": 0.0, "drift": float("nan")}, False
        with ctx.check("x-inf", "plumbing", {}, 1e-3) as out:
            out.measured, out.passed = {"levels": [1.0, float("inf")]}, True
        assert [(r["verdict"], r["measured"]) for r in ctx.records] == [
            ("error", {"error": "ValueError: measured value 'drift' is not finite"}),
            ("error", {"error": "ValueError: measured value 'levels' is not finite"}),
        ]

    @pytest.mark.parametrize("measured, verdict, recorded", [
        ({"arr": np.array([1.0, 2.0])}, "pass", {"arr": [1.0, 2.0]}),
        ({"a": {"b": [float("nan")]}}, "error",
         {"error": "ValueError: measured value 'a' is not finite"}),
    ], ids=["array", "nested-nan"])
    def test_measured_arrays_and_nested_values_reach_the_report(self, tmp_path, measured,
                                                                 verdict, recorded):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        with ctx.check("x-value", "plumbing", {}, 1e-3) as out:
            out.measured, out.passed = measured, True
        write_report(str(tmp_path / "report.json"), "dynamics", 0, {"g": 1.0, "n": 4.0}, "0",
                     ctx.records, 0.0)
        (check,) = strict_report(tmp_path / "report.json")["checks"]
        assert (check["verdict"], check["measured"]) == (verdict, recorded)

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
        # the shared mass-1 reference falls in; a failure is not memoised,
        # so each gamma's check runs it again and gets the same error
        errors, others = self.run_errored(tmp_path, capsys, "newton-equiv", 1.0, n)
        assert sorted(errors) == ["ne-orbit-gamma0.5", "ne-orbit-gamma10", "ne-orbit-gamma2"]
        assert all(m.startswith("SingularityAbort: ") for m in errors.values())
        assert len(set(errors.values())) == 1
        assert others and set(others.values()) == {"pass"}

    def test_step_failure_spares_the_other_dynamics_checks(self, tmp_path, capsys):
        errors, others = self.run_errored(tmp_path, capsys, "dynamics", -1.0, 4.0)
        assert sorted(errors) == ["dyn-energy-drift", "dyn-tangent-pairing"]
        assert all(m.startswith("StepFailure: ") for m in errors.values())
        assert others == {"dyn-flow-composition": "pass", "dyn-harmonic-return": "pass"}

    def test_a_huge_integer_exponent_is_an_error_naming_n(self, tmp_path, capsys):
        # the kernel refuses the exponent before it builds the n - 3 powers
        # of its recurrence, which at n = 1e9 would exhaust memory
        errors, others = self.run_errored(tmp_path, capsys, "dynamics", 1.0, 1e9)
        assert sorted(errors) == ["dyn-energy-drift", "dyn-flow-composition",
                                  "dyn-tangent-pairing"]
        assert all(m.startswith("ValueError: ") and m.endswith("not n=1000000000.0")
                   for m in errors.values())
        assert others == {"dyn-harmonic-return": "pass"}

    @pytest.mark.parametrize("extent", [1e-300, 1e300])
    def test_an_unnormalisable_grid_state_is_an_error_in_a_written_report(
            self, tmp_path, capsys, extent):
        errors, others = self.run_errored(tmp_path, capsys, "quantum-leak", 1.0, 4.0,
                                          grid={"extent": extent})
        assert sorted(errors) == ["qg-lms-entangles", "qg-separability", "qg-unitary"]
        assert all(m.startswith("NonNormalizable: norm ") for m in errors.values())
        assert others == {}

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
        """Couplings of both signs and exponents on both sides of the
        singular origin: the kernel's guard, blow-up and event paths. Each
        run's exit code and the sha256 of its report.json, wall_time_s
        masked, are pinned in tests/data/sweep_reports.json. A change that
        moves report values regenerates this pin on purpose."""
        pins = {}
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
                    text = strip_wall_time((out / "report.json").read_text())
                    pins[out.name] = [proc.returncode, hashlib.sha256(text.encode()).hexdigest()]
        pin = Path(__file__).parent / "data" / "sweep_reports.json"
        assert pins == json.loads(pin.read_text())


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


class TestOrbitCache:
    """ctx.trajectory integrates each orbit once and samples every horizon
    from its Taylor steps, bit for bit as a fresh integration would."""

    @staticmethod
    def assert_fresh(traj, x0, pot, horizon):
        fresh = integrate(x0, pot, horizon, horizon / 2000)
        assert np.array_equal(traj.times, fresh.times)
        assert np.array_equal(traj.states, fresh.states)

    # at n = 1 the probe's one step is clipped at its horizon of 20, and it
    # leaves that step; ten periods end exactly there
    @pytest.mark.parametrize("n", [4.0, -2.0, 3.0, 1.0])
    def test_every_horizon_equals_a_fresh_run(self, tmp_path, n):
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        pot = MonomialPotential(FIXTURES[n][0], n)
        x0 = _start(pot)
        period = characteristic_time(pot, x0)
        for periods in [10.0, 2.0, 20.0, 1.3, 20.0]:
            self.assert_fresh(ctx.trajectory(pot, x0, periods), x0, pot, periods * period)
        assert len(ctx._traj_cache) == 1

    def test_a_failed_extension_keeps_the_stored_steps(self, tmp_path):
        # the attractive n = -3 orbit falls in before ten periods
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        pot = MonomialPotential(1.0, -3.0)
        x0 = _start(pot)
        period = characteristic_time(pot, x0)
        for periods in [10.0, 2.0, 20.0, 2.0, 1.3]:
            if periods > 2.0:
                with pytest.raises(SingularityAbort, match="fell into the singular origin"):
                    ctx.trajectory(pot, x0, periods)
            else:
                self.assert_fresh(ctx.trajectory(pot, x0, periods), x0, pot, periods * period)
        assert len(ctx._traj_cache) == 1

    def test_readme_run_integrates_each_orbit_once(self, tmp_path, capsys, monkeypatch):
        # single-lane Taylor steps of the README run: 1,042 with one
        # integration per (orbit, horizon), 770 with one per orbit, 677 with
        # the period probe's steps as the orbit's first and one mass-1
        # reference for the three Newton-equivalent gammas, 675 with the
        # probe's step clipped at its horizon kept as the orbit's last. A
        # run builds one recurrence plan and fills it once per step.
        lanes = []
        recurrence = dynamics._recurrence

        def counted(pot, y, order, mass):
            fill = recurrence(pot, y, order, mass)

            def counted_fill(y):
                lanes.append(y.ndim == 1)
                return fill(y)

            return counted_fill

        monkeypatch.setattr(dynamics, "_recurrence", counted)
        semiclassics._newton_equiv_run.cache_clear()
        sc = write_scenario(tmp_path, README_SCENARIO)
        proc = run_main(["run", str(sc), "--out", str(tmp_path / "rep")], capsys)
        assert proc.returncode == 0, proc.stderr
        assert 0 < sum(lanes) <= 675

    def test_a_repeat_returns_the_same_read_only_samples(self, tmp_path):
        # each (orbit, periods) is sampled once; a longer horizon in between
        # reruns the run's last step and leaves the stored samples as they are
        ctx = SuiteContext(scenario={}, out_dir=str(tmp_path), seed=0)
        pot = MonomialPotential(FIXTURES[4.0][0], 4.0)
        x0 = _start(pot)
        first = ctx.trajectory(pot, x0, 1.3)
        longest = ctx.trajectory(pot, x0, 20.0)
        again = ctx.trajectory(pot, x0, 1.3)
        assert again.states is first.states
        for a, b in ((first.times, again.times), (first.states, again.states)):
            assert np.array_equal(a, b)
            assert not b.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                b[0] = 0.0
        # the samples own their memory: no gathered block of every order's
        # coefficients stays alive behind them
        for traj in (first, longest):
            base = traj.states.base
            assert base is None or base.nbytes == traj.states.nbytes
