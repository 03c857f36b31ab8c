"""Scenario files: schema, validation, and defaults.

A scenario is a JSON object naming a suite and a potential, with optional
overrides for sweep exponents, similarity parameters, grid settings,
tolerances, seed, and output directory. Unknown keys are
rejected at every level so typos fail loudly before any computation runs.
"""

from __future__ import annotations

import json
import math

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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: JSON type name -> test. An "integer" is a Python int: not a bool, and not
#: an integral float such as 128.0, which the integrators and grids refuse.
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}


def _errors(schema: dict, value):
    """Yield a message for each way value breaks schema, keyword by keyword in
    the schema's order, worded as jsonschema words them for the bounds SCHEMA
    sets. Reads the 12 keywords SCHEMA uses; each one that constrains a JSON
    type checks values of that type only, and annotations such as "title"
    are skipped."""
    for key, arg in schema.items():
        if key == "type" and not _TYPES[arg](value):
            yield f"{value!r} is not of type {arg!r}"
        elif key == "enum" and not any(
                value == v and isinstance(value, bool) == isinstance(v, bool) for v in arg):
            yield f"{value!r} is not one of {arg!r}"
        elif key == "not" and next(_errors(arg, value), None) is None:
            yield f"{value!r} should not be valid under {arg!r}"
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _errors(sub, value[name])
            elif key == "required":
                yield from (f"{name!r} is a required property" for name in arg if name not in value)
            elif key == "additionalProperties" and arg is False:
                extra = sorted(set(value) - set(schema.get("properties", {})), key=str)
                if extra:
                    yield (f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                           f"{'was' if len(extra) == 1 else 'were'} unexpected)")
            elif key == "maxProperties" and len(value) > arg:
                yield f"{value!r} has too many properties"
        elif isinstance(value, list) and key == "items":
            for item in value:
                yield from _errors(arg, item)
        elif (key, type(value)) in (("minItems", list), ("minLength", str)) and len(value) < arg:
            yield f"{value!r} should be non-empty"  # SCHEMA's bounds are 1
        elif _is_number(value):
            if key == "minimum" and value < arg:
                yield f"{value!r} is less than the minimum of {arg!r}"
            elif key == "exclusiveMinimum" and value <= arg:
                yield f"{value!r} is less than or equal to the minimum of {arg!r}"


def _numbers(value, key: str):
    """Yield (key, number) for every number nested in value, each key a
    path such as lms.alpha or exponents[2]."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _numbers(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{key}[{i}]")
    elif _is_number(value):
        yield key, value


def validate_scenario(obj) -> dict:
    """Check a parsed scenario against SCHEMA; ScenarioError on failure, with
    the first error found.

    The schema cannot say that a number converts to a finite float
    (json.load accepts NaN, Infinity and integers of any size), that a grid
    count is a power of two, which the split-step grids need, or that
    exp(beta) is a positive finite float, the scale factor of every
    similarity map; all are checked here, before any check runs."""
    error = next(_errors(SCHEMA, obj), None)
    if error is not None:
        raise ScenarioError(f"scenario invalid: {error}")
    for key, value in _numbers(obj, ""):
        try:
            finite = math.isfinite(value)  # an int too large for a double overflows here
        except OverflowError:
            finite = False
        if not finite:
            raise ScenarioError(f"scenario invalid: {key} does not convert to a finite float")
    count = obj.get("grid", {}).get("count", DEFAULT_GRID["count"])
    if count & (count - 1):
        raise ScenarioError(f"scenario invalid: grid count {count!r} is not a power of two")
    beta = obj.get("lms", {}).get("beta", 0.0)
    try:
        alpha = math.exp(beta)
    except OverflowError:
        alpha = math.inf
    if not 0.0 < alpha < math.inf:
        raise ScenarioError(f"scenario invalid: lms beta {beta!r}: exp(beta) is not a positive "
                            "finite float")
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
