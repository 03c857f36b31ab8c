"""Pinned verification battery for the package's advertised guarantees.

Each test locks one public promise to a fixed tolerance: conserved
charges over long integrations, the conserved tower and its algebra,
solution mapping and action scaling of the similarity, the bracket
dichotomy, exact operator identities, the unitary-rescaling obstruction
in both symbolic and grid form, quantization shifts, the rescaled-mass
family, and deterministic reports from the command line runner.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
import sympy as sp

from kvnlab.core import (
    ExtendedPoint,
    MonomialPotential,
    PhasePoint,
    lms_params_from_alpha,
    lms_params_from_beta,
)
from kvnlab.charges import (
    epb,
    fd_gradient,
    liouvillian_gradient,
    liouvillian_value,
    lms_charge,
    lms_charge_harmonic,
    lms_charge0,
    lms_charge0_gradient,
    virasoro_charge,
)
from kvnlab.dynamics import characteristic_time, integrate
from kvnlab.errors import HarmonicCaseError
from kvnlab import opalg
from kvnlab.opalg import (
    BOPP,
    OperatorPoly,
    adjoint_finite_quadratic,
    adjoint_infinitesimal,
    bopp_operators,
    build_G,
    build_series_G,
    commutator,
    kvn_to_bopp,
    lms_quantum_generator,
    no_go_standard_qm,
)
from kvnlab.qgrid import (
    REP_QQBAR,
    AliasingWarning,
    GridAxis,
    apply_lms_unitary_harmonic,
    evolve_G,
    gaussian_profile,
    make_separable,
    schmidt,
)
from kvnlab.semiclassics import (
    bohr_levels,
    eigensolve_newton_equiv,
    lms_bohr_violation,
    newton_equiv_trajectory_check,
    reduced_action,
)
from kvnlab.symmetry import (
    action_kvn,
    bracket_change,
    check_action_scaling,
    lms_jacobian,
    lms_map_trajectory,
)

FIXTURES = {
    -2.0: (MonomialPotential(1.0, -2.0), ExtendedPoint(1.0, 1.2, 0.3, -0.2)),
    -1.0: (MonomialPotential(-1.0, -1.0), ExtendedPoint(2.0, -1.0, 0.3, -0.2)),
    1.0: (MonomialPotential(1.0, 1.0), ExtendedPoint(1.0, 1.0, 0.3, -0.2)),
    3.0: (MonomialPotential(1.0, 3.0), ExtendedPoint(1.0, 0.05, 0.3, -0.2)),
    4.0: (MonomialPotential(1.0, 4.0), ExtendedPoint(1.0, 0.0, 0.3, -0.2)),
}
SWEEP = (-2.0, -1.0, 1.0, 3.0, 4.0)
ALPHA = 1.3


def _traj(pot, x0, periods, samples=2000):
    T = periods * characteristic_time(pot, x0)
    return integrate(x0, pot, T, T / samples)


def _drift(values):
    return np.max(np.abs(values - values[0])) / (1.0 + abs(values[0]))


# -- conserved charges ----------------------------------------------------


@pytest.mark.parametrize("n", SWEEP)
def test_similarity_charge_conserved_20_periods(n):
    pot, x0 = FIXTURES[n]
    traj = _traj(pot, x0, 20.0)
    vals = np.array([
        lms_charge(ExtendedPoint(*s), pot, t)
        for t, s in zip(traj.times, traj.states)
    ])
    assert np.max(np.abs(vals - vals[0])) < 1e-7 * (1.0 + abs(vals[0]))


def test_harmonic_charge_conserved_20_periods():
    pot = MonomialPotential(1.0, 2.0)
    traj = _traj(pot, ExtendedPoint(1.0, 0.0, 0.3, -0.2), 20.0)
    vals = np.array([lms_charge_harmonic(ExtendedPoint(*s)) for s in traj.states])
    assert np.max(np.abs(vals - vals[0])) < 1e-7 * (1.0 + abs(vals[0]))


# -- conserved tower ------------------------------------------------------


@pytest.mark.parametrize("n", SWEEP)
def test_charge_tower_conserved(n):
    pot, x0 = FIXTURES[n]
    traj = _traj(pot, x0, 20.0)
    for m in (-1, 0, 1, 2):
        vals = np.array([
            virasoro_charge(ExtendedPoint(*s), pot, t, m)
            for t, s in zip(traj.times, traj.states)
        ])
        assert _drift(vals) < 1e-6, f"m={m} drifts"


def test_tower_endpoints_are_the_generators():
    pot = MonomialPotential(1.0, 4.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = ExtendedPoint(*rng.uniform(0.4, 1.6, size=4))
        t = float(rng.uniform(-2.0, 2.0))
        assert virasoro_charge(x, pot, t, -1) == liouvillian_value(x, pot)
        assert virasoro_charge(x, pot, t, 0) == lms_charge(x, pot, t)


# -- bracket algebra of the charges ---------------------------------------


@pytest.mark.parametrize("n", SWEEP)
def test_charge_bracket_closes_on_the_generator(n):
    pot, _ = FIXTURES[n]
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = ExtendedPoint(*rng.uniform(0.4, 1.6, size=4))
        h = liouvillian_value(x, pot)
        exact = epb(liouvillian_gradient(x, pot), lms_charge0_gradient(x, pot))
        assert abs(exact - h) < 1e-12 * (1.0 + abs(h))
        fd = epb(
            fd_gradient(lambda y: liouvillian_value(y, pot), x),
            fd_gradient(lambda y: lms_charge0(y, pot), x),
        )
        assert abs(fd - h) < 1e-6 * (1.0 + abs(h))


# -- the similarity maps solutions to solutions ---------------------------


@pytest.mark.parametrize("n", SWEEP)
def test_mapped_trajectory_solves_the_same_equations(n):
    pot, x0 = FIXTURES[n]
    traj = _traj(pot, x0, 2.0)
    mapped = lms_map_trajectory(traj, lms_params_from_alpha(ALPHA, n))
    horizon = float(mapped.times[-1])
    redone = integrate(
        mapped.initial, pot, horizon, horizon / 8000
    )
    resampled = np.stack([
        np.interp(mapped.times, redone.times, redone.states[:, k])
        for k in range(4)
    ], axis=1)
    assert np.max(np.abs(resampled - mapped.states)) < 1e-6


# -- action laws -----------------------------------------------------------


@pytest.mark.parametrize("n", SWEEP)
def test_auxiliary_action_invariant(n):
    pot, x0 = FIXTURES[n]
    traj = _traj(pot, x0, 1.3)
    prm = lms_params_from_alpha(ALPHA, n)
    s0 = action_kvn(traj, pot)
    s1 = action_kvn(lms_map_trajectory(traj, prm), pot)
    assert abs(s1 - s0) / (1.0 + abs(s0)) < 1e-6


@pytest.mark.parametrize("n", SWEEP)
def test_standard_action_scaling_exponent(n):
    pot, x0 = FIXTURES[n]
    traj = _traj(pot, x0, 1.3)
    scaling = check_action_scaling(traj, pot, lms_params_from_alpha(ALPHA, n))
    assert scaling.expected_exponent == 1.0 + n / 2.0
    assert abs(scaling.measured_exponent - scaling.expected_exponent) < 1e-4


# -- bracket dichotomy ------------------------------------------------------


@pytest.mark.parametrize("n", SWEEP)
def test_standard_bracket_factor_small_parameter(n):
    beta = 1e-3
    prm = lms_params_from_beta(beta, n)
    jac = lms_jacobian(prm)
    measured = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    k = 1.0 + n / 2.0
    linearized = 1.0 + beta * k
    # the factor is exp(beta k); agreement with the linear form holds up
    # to the known second-order remainder (beta k)^2 / 2
    assert abs(measured - linearized - (beta * k) ** 2 / 2.0) < 1e-6
    factor_std, factor_ext = bracket_change(prm)
    assert factor_ext == 1.0
    if n == -2.0:
        assert factor_std == 1.0
        assert measured == pytest.approx(1.0, abs=1e-15)
    else:
        assert factor_std != 1.0


@pytest.mark.parametrize("n", SWEEP + (2.0,))
def test_extended_symplectic_form_preserved_exactly(n):
    # symbolic Jacobian: diag over (q, p, lq, lp) with reciprocal pairs
    a = sp.Symbol("a", positive=True)
    jac = sp.diag(a, a ** sp.Rational(n), 1 / a, a ** -sp.Rational(n))
    omega = sp.Matrix([
        [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0],
    ])
    assert sp.simplify(jac.T * omega * jac - omega) == sp.zeros(4, 4)


# -- exact operator identities ----------------------------------------------


def test_shifted_pairs_satisfy_opposite_algebras():
    Q, P, Qb, Pb = bopp_operators()
    i_hb = OperatorPoly.scalar(Q.algebra, sp.I * opalg.hbar)
    assert commutator(Q, P).equals(i_hb)
    assert commutator(Qb, Pb).equals(i_hb.scale(-1))
    for x, y in ((Q, Qb), (Q, Pb), (P, Qb), (P, Pb)):
        assert commutator(x, y).is_zero()


def test_harmonic_generator_has_no_quantum_corrections():
    g2 = build_G(MonomialPotential(1.0, 2.0))
    assert g2.equals(g2.hbar_limit())
    assert g2.equals(opalg.classical_vector_field(
        opalg.p_c**2 / 2 + opalg.q_c**2 / 2
    ))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_derivative_series_equals_operator_difference(n):
    pot = MonomialPotential(1.0, float(n))
    jmax = (n - 1) // 2
    assert build_series_G(pot, jmax).equals(build_G(pot))
    # adding terms past the cutoff must change nothing
    assert build_series_G(pot, jmax + 2).equals(build_G(pot))


# -- no unitary implementation of the rescaling -----------------------------


@pytest.mark.parametrize("n,coeff", [
    (1, -sp.Rational(3, 2)),
    (3, sp.Rational(5, 2)),
    (4, sp.Rational(3, 2)),
])
def test_position_adjoint_leaks_with_exact_coefficient(n, coeff):
    pot = MonomialPotential(1.0, float(n))
    A = lms_quantum_generator(pot)
    Q = bopp_operators()[0]
    moved = kvn_to_bopp(adjoint_infinitesimal(A, Q))
    qbar = OperatorPoly.generator(BOPP, 1)
    expected = coeff * opalg.alpha_sym
    assert sp.simplify(moved.coefficient((0, 1, 0, 0)) - expected) == 0
    assert sp.simplify(expected + sp.Rational(n + 2, 2 * (2 - n)) * opalg.alpha_sym) == 0


def test_harmonic_finite_adjoint_mixes_hyperbolically():
    A = lms_quantum_generator(MonomialPotential(1.0, 2.0))
    Q = bopp_operators()[0]
    fin = adjoint_finite_quadratic(A, Q)
    target = (
        OperatorPoly.generator(BOPP, 0).scale(sp.cosh(opalg.alpha_sym))
        + OperatorPoly.generator(BOPP, 1).scale(sp.sinh(opalg.alpha_sym))
    )
    assert kvn_to_bopp(fin).equals(target)


@pytest.mark.parametrize("n", [-2.0, -1.0, 1.0, 3.0, 4.0])
def test_pure_observable_generator_exists_only_for_inverse_square(n):
    res = no_go_standard_qm(n)
    assert res.consistent == (n == -2.0)
    if n == -2.0:
        assert res.alpha_tilde == sp.Rational(-1, 2)
    else:
        assert res.gap != 0


def test_pure_observable_generator_harmonic_is_separate():
    with pytest.raises(HarmonicCaseError):
        no_go_standard_qm(2.0)


# -- grid form of the obstruction -------------------------------------------


def _separable_state():
    ax = GridAxis(0.0, 8.0, 128)
    return make_separable(
        gaussian_profile(0.4, 1.0),
        gaussian_profile(-0.2, 0.7),
        ax, ax, rep=REP_QQBAR, hbar=0.5,
    )


def test_evolution_preserves_separability_but_rescaling_breaks_it():
    state = _separable_state()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        evolved = evolve_G(state, MonomialPotential(1.0, 4.0), 5.0, steps=600)
    assert schmidt(evolved).ratio < 1e-8
    mixed = apply_lms_unitary_harmonic(_separable_state(), 0.5)
    assert schmidt(mixed).ratio > 1e-3


# -- quantization shifts -----------------------------------------------------


def test_harmonic_quantization_half_integers():
    levels = bohr_levels(MonomialPotential(1.0, 2.0), 1.0, 6)
    assert np.max(np.abs(levels - (np.arange(6) + 0.5))) < 1e-8


@pytest.mark.parametrize("n", [2.0, 4.0, 6.0])
def test_action_shift_matches_closed_form(n):
    pot = MonomialPotential(1.0, n)
    prm = lms_params_from_alpha(ALPHA, n)
    rep = lms_bohr_violation(pot, 1.0, prm, hbar=1.0)
    gap = abs(rep.delta_j - rep.delta_j_closed_form)
    assert gap < 1e-6 * (1.0 + abs(rep.delta_j_closed_form))
    assert rep.delta_j > 0.0


def test_action_shift_vanishes_only_for_inverse_square():
    # the reduced action between endpoints that the map carries along
    shifts = {}
    for n in (-2.0, -1.0, 4.0):
        pot = MonomialPotential(1.0, n)
        w = reduced_action(pot, 1.0, 0.5, 1.0)
        shifts[n] = abs(reduced_action(pot, ALPHA**n, ALPHA * 0.5, ALPHA) / w - 1.0)
    assert shifts[-2.0] < 1e-14
    assert shifts[-1.0] > 0.1 and shifts[4.0] > 0.1


# -- rescaled-mass family -----------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
def test_rescaled_mass_orbits_identical(gamma):
    rep = newton_equiv_trajectory_check(
        MonomialPotential(1.0, 4.0), gamma, PhasePoint(1.0, 0.3), 10.0
    )
    assert rep.max_q_diff < 1e-7


def test_rescaled_mass_spectra_scale_as_cube_root(gamma_set=(0.5, 2.0, 10.0)):
    pot = MonomialPotential(1.0, 4.0)
    base = eigensolve_newton_equiv(pot, 1.0, 1.0, 6)
    for gamma in gamma_set:
        res = eigensolve_newton_equiv(pot, gamma, 1.0, 6)
        ratios = res / base
        assert np.max(np.abs(ratios - gamma ** (-1.0 / 3.0))) < 1e-3


# -- deterministic reports ----------------------------------------------------


def test_runner_reports_are_reproducible(tmp_path, run_python):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "suite": "all",
        "potential": {"g": 1.0, "n": 4.0},
        "seed": 17,
    }))
    for out in ("first", "second"):
        proc = run_python("-m", "kvnlab.cli", "run", str(scenario), "--out", str(tmp_path / out))
        assert proc.returncode == 0, proc.stderr + proc.stdout

    def canonical(d):
        text = (tmp_path / d / "report.json").read_text()
        return re.sub(r'"wall_time_s": [0-9.eE+-]+', '"wall_time_s": X', text)

    assert canonical("first") == canonical("second")
    csvs = sorted(p.name for p in (tmp_path / "first").glob("*.csv"))
    assert csvs
    for name in csvs:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b
