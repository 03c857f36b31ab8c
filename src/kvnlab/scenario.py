"""Scenario files: schema, validation, and defaults.

A scenario is a JSON object naming a suite and a potential, with optional
overrides for sweep exponents, similarity parameters, grid settings,
tolerances, seed, and output directory. Unknown keys are
rejected at every level so typos fail loudly before any computation runs.
"""

from __future__ import annotations

import json

from .errors import ScenarioError

SUITES = (
    "dynamics",
    "charges",
    "lms-classical",
    "lms-virasoro",
    "opalg",
    "quantum-leak",
    "bohr",
    "newton-equiv",
    "all",
)

_NONZERO_NUMBER = {"type": "number", "not": {"enum": [0, 0.0]}}
_POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}

DEFAULT_LMS_ALPHA = 1.3
DEFAULT_GRID = {"count": 128, "extent": 8.0, "hbar": 0.5}
DEFAULT_TOLERANCES = {
    "charge_drift": 1e-7,
    "tower_drift": 1e-6,
    "solution_map": 1e-6,
    "action_exponent": 1e-4,
    "schmidt_separable": 1e-8,
    "schmidt_mixed": 1e-3,
    "bohr_levels": 1e-8,
    "trajectory_match": 1e-7,
    "spectrum_scaling": 1e-3,
}
DEFAULT_SEED = 0

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "kvnlab scenario",
    "type": "object",
    "additionalProperties": False,
    "required": ["suite", "potential"],
    "properties": {
        "suite": {"enum": list(SUITES)},
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["g", "n"],
            "properties": {"g": _NONZERO_NUMBER, "n": _NONZERO_NUMBER},
        },
        "exponents": {
            "type": "array",
            "items": _NONZERO_NUMBER,
            "minItems": 1,
        },
        "lms": {
            "type": "object",
            "additionalProperties": False,
            "maxProperties": 1,
            "properties": {
                "alpha": _POSITIVE_NUMBER,
                "beta": {"type": "number"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 2},
                "extent": _POSITIVE_NUMBER,
                "hbar": _POSITIVE_NUMBER,
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {name: _POSITIVE_NUMBER for name in DEFAULT_TOLERANCES},
        },
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string", "minLength": 1},
    },
}


def validate_scenario(obj) -> dict:
    """Check a parsed scenario against the schema; ScenarioError on failure.

    The schema cannot say that a number is finite (json.load accepts NaN
    and Infinity) or that a grid count is a power of two, which the
    split-step grids need; both are checked here, before any check runs."""
    import jsonschema  # only validation needs it, not `kvnlab schema`

    try:
        jsonschema.validate(obj, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ScenarioError(f"scenario invalid: {exc.message}") from exc
    try:
        json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise ScenarioError(f"scenario invalid: numbers must be finite ({exc})") from exc
    count = obj.get("grid", {}).get("count", DEFAULT_GRID["count"])
    # the schema's "integer" also admits 128.0, which qgrid.GridAxis rejects
    if not (isinstance(count, int) and count & (count - 1) == 0):
        raise ScenarioError(f"scenario invalid: grid count {count!r} is not a power of two")
    return obj


def load_scenario(path: str) -> dict:
    """Read and validate a scenario file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    return validate_scenario(obj)


def scenario_with_defaults(obj: dict) -> dict:
    """Return a copy with the optional sections filled in."""
    out = dict(obj)
    lms = dict(out.get("lms", {}))
    if "alpha" not in lms and "beta" not in lms:
        lms["alpha"] = DEFAULT_LMS_ALPHA
    out["lms"] = lms
    out["grid"] = {**DEFAULT_GRID, **out.get("grid", {})}
    out["tolerances"] = {**DEFAULT_TOLERANCES, **out.get("tolerances", {})}
    out.setdefault("seed", DEFAULT_SEED)
    return out


def schema_text() -> str:
    return json.dumps(SCHEMA, indent=2, sort_keys=True)
