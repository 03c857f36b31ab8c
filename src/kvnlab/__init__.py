"""Simulation and checking toolkit for mechanical similarity in a doubled
classical phase space, its operator algebra, and its quantum obstructions.

The public names are loaded from their submodules on first access (PEP
562), so ``import kvnlab`` imports no numpy, scipy or sympy. No module
imports scipy, which only the tests use, as an oracle. ``opalg`` computes in
an exact ring and imports sympy only when it is handed a sympy value, asked
for one of its symbols, or asked to print; every other module needs numpy
alone.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it; a submodule's own name
#: maps to the submodule itself.
_SOURCE = {
    "ActionScaling": "symmetry",
    "BohrViolationReport": "semiclassics",
    "EPS_LIOUVILLIAN": "charges",
    "ExtendedPoint": "core",
    "ExtendedTrajectory": "dynamics",
    "LmsParams": "core",
    "LmsVariation": "symmetry",
    "MonomialPotential": "core",
    "NewtonEquivReport": "semiclassics",
    "PhasePoint": "core",
    "action_integral": "semiclassics",
    "action_kvn": "symmetry",
    "action_standard": "symmetry",
    "bohr_levels": "semiclassics",
    "bracket_change": "symmetry",
    "characteristic_time": "dynamics",
    "check_action_scaling": "symmetry",
    "eigensolve_newton_equiv": "semiclassics",
    "energy": "dynamics",
    "epb": "charges",
    "errors": "errors",
    "fd_gradient": "charges",
    "flow_map_batch": "dynamics",
    "ground_width": "semiclassics",
    "infinitesimal_lms": "symmetry",
    "integrate": "dynamics",
    "lms_bohr_violation": "semiclassics",
    "lms_charge": "charges",
    "lms_charge0": "charges",
    "lms_charge0_gradient": "charges",
    "lms_charge_harmonic": "charges",
    "lms_jacobian": "symmetry",
    "lms_map_point": "symmetry",
    "lms_map_trajectory": "symmetry",
    "lms_params_from_alpha": "core",
    "lms_params_from_beta": "core",
    "liouvillian_gradient": "charges",
    "liouvillian_value": "charges",
    "newton_equiv_trajectory_check": "semiclassics",
    "opalg": "opalg",
    "qgrid": "qgrid",
    "reduced_action": "semiclassics",
    "turning_points": "semiclassics",
    "virasoro_charge": "charges",
}

__all__ = list(_SOURCE)


def __getattr__(name):
    try:
        source = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{source}")
    return module if name == source else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
