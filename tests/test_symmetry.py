"""Similarity maps, actions, and bracket behavior."""

import math

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import simpson

from kvnlab.core import (
    ExtendedPoint,
    MonomialPotential,
    lms_params_from_alpha,
    lms_params_from_beta,
)
from kvnlab.dynamics import characteristic_time, integrate
from kvnlab.errors import (
    DegenerateAction,
    HarmonicCaseError,
    InsufficientResolution,
    UndefinedError,
)
from kvnlab.symmetry import (
    action_kvn,
    action_standard,
    bracket_change,
    check_action_scaling,
    infinitesimal_lms,
    lms_jacobian,
    lms_map_point,
    lms_map_trajectory,
)
from kvnlab.symmetry import _simpson

QUARTIC = MonomialPotential(1.0, 4.0)


def _traj(pot, x0, periods):
    T = periods * characteristic_time(pot, x0)
    return integrate(x0, pot, T, T / 2000)


class TestPointMap:
    def test_inverse_square_example(self):
        # n=-2, alpha=4: q scales by 4, p by 4^(n/2)=1/4, lq by 1/4, lp by 4
        prm = lms_params_from_alpha(4.0, -2.0)
        x = ExtendedPoint(1.0, 1.0, 1.0, 1.0)
        y = lms_map_point(x, prm)
        assert (y.q, y.p, y.lq, y.lp) == pytest.approx((4.0, 0.25, 0.25, 4.0))

    def test_quartic_scalings(self):
        prm = lms_params_from_alpha(1.3, 4.0)
        x = ExtendedPoint(1.0, 1.0, 1.0, 1.0)
        y = lms_map_point(x, prm)
        assert y.q == pytest.approx(1.3)
        assert y.p == pytest.approx(1.3**2)
        assert y.lq == pytest.approx(1.3**-1)
        assert y.lp == pytest.approx(1.3**-2)

    def test_map_composes_as_group(self):
        a = lms_params_from_alpha(1.2, 4.0)
        b = lms_params_from_alpha(1.5, 4.0)
        ab = lms_params_from_alpha(1.2 * 1.5, 4.0)
        x = ExtendedPoint(0.7, -0.4, 0.2, 0.9)
        once = lms_map_point(lms_map_point(x, a), b)
        joint = lms_map_point(x, ab)
        assert np.allclose(once.as_array(), joint.as_array(), rtol=1e-13)

    def test_jacobian_matches_map(self):
        prm = lms_params_from_alpha(1.3, 3.0)
        x = ExtendedPoint(0.7, -0.4, 0.2, 0.9)
        assert np.allclose(
            lms_jacobian(prm) @ x.as_array(), lms_map_point(x, prm).as_array()
        )


class TestTrajectoryMap:
    def test_time_rescaling_inverse_linear(self):
        # n=-1: times scale by alpha^(3/2); alpha=4 gives 8
        pot = MonomialPotential(-1.0, -1.0)
        x0 = ExtendedPoint(2.0, -1.0, 0.3, -0.2)
        traj = _traj(pot, x0, 1.0)
        prm = lms_params_from_alpha(4.0, -1.0)
        mapped = lms_map_trajectory(traj, prm)
        assert np.allclose(mapped.times, 8.0 * traj.times, rtol=1e-13)

    @pytest.mark.parametrize("g,n,x0", [
        (1.0, -2.0, (1.0, 1.2, 0.3, -0.2)),
        (-1.0, -1.0, (2.0, -1.0, 0.3, -0.2)),
        (1.0, 1.0, (1.0, 1.0, 0.3, -0.2)),
        (1.0, 3.0, (1.0, 0.05, 0.3, -0.2)),
        (1.0, 4.0, (1.0, 0.0, 0.3, -0.2)),
    ])
    def test_maps_solutions_to_solutions(self, g, n, x0):
        pot = MonomialPotential(g, n)
        traj = _traj(pot, ExtendedPoint(*x0), 2.0)
        prm = lms_params_from_alpha(1.3, n)
        mapped = lms_map_trajectory(traj, prm)
        redone = integrate(
            mapped.initial, pot, mapped.times[-1],
            mapped.times[-1] / 2000,
        )
        resampled = np.stack([
            np.interp(mapped.times, redone.times, redone.states[:, k])
            for k in range(4)
        ], axis=1)
        scale = 1.0 + np.max(np.abs(mapped.states))
        assert np.max(np.abs(resampled - mapped.states)) / scale < 1e-6


class TestInfinitesimal:
    def test_matches_finite_map_to_second_order(self):
        beta = 1e-6
        prm = lms_params_from_beta(beta, 4.0)
        x = ExtendedPoint(0.9, -0.6, 0.4, 1.2)
        var = infinitesimal_lms(x, prm)
        finite = lms_map_point(x, prm).as_array() - x.as_array()
        lin = np.array([var.dq, var.dp, var.dlq, var.dlp])
        assert np.max(np.abs(finite - lin)) < 5.0 * beta**2 * np.max(np.abs(x.as_array()))

    def test_variation_signs_oppose_between_sectors(self):
        prm = lms_params_from_beta(0.01, 4.0)
        x = ExtendedPoint(1.0, 1.0, 1.0, 1.0)
        var = infinitesimal_lms(x, prm)
        assert var.dq * var.dlq < 0.0
        assert var.dp * var.dlp < 0.0

    def test_time_rate_is_minus_alpha_tilde(self):
        prm = lms_params_from_beta(0.01, 4.0)
        var = infinitesimal_lms(ExtendedPoint(1.0, 0.0, 0.0, 0.0), prm)
        assert var.dt_rate == pytest.approx(-prm.alpha_tilde)

    def test_harmonic_rejected(self):
        prm = lms_params_from_beta(0.01, 2.0)
        with pytest.raises(HarmonicCaseError):
            infinitesimal_lms(ExtendedPoint(1.0, 0.0, 0.0, 0.0), prm)


class TestSimpson:
    @pytest.mark.parametrize("count", [3, 4, 5, 14, 101, 102, 1257, 1258])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
    def test_matches_scipy_bit_for_bit(self, count, uniform):
        # the same arithmetic in the same order, so no tolerance: an odd
        # count is the three-point rule alone, an even one adds Cartwright's
        # correction on the last interval. A scalar b**3 in that correction
        # differs from scipy's array power in the last bit for some spacings;
        # at 14 uniform samples on [0, 3] it moves a few of these sums.
        rng = np.random.default_rng(count)
        for _ in range(100):
            x = (np.linspace(0.0, 3.0, count) if uniform
                 else np.cumsum(rng.uniform(0.01, 1.0, count)))
            y = rng.normal(size=count)
            assert _simpson(y, x) == float(simpson(y, x=x))

    def test_trajectory_actions_match_scipy(self):
        # the even count of the closed-orbit test below and an odd count
        for dt in (0.005, 2.0 * math.pi / 1256):
            traj = integrate(ExtendedPoint(1.0, 0.0, 0.3, -0.2), QUARTIC, 2.0 * math.pi, dt)
            q, p = traj.states[:, 0], traj.states[:, 1]
            y = 0.5 * p**2 - QUARTIC.value(q)
            assert action_standard(traj, QUARTIC) == float(simpson(y, x=traj.times))

    def test_exact_on_quadratics(self):
        # the three-point fits are parabolas, so uneven spacing loses nothing
        x = np.cumsum(np.random.default_rng(1).uniform(0.1, 0.5, 12))
        for count in (11, 12):
            xs = x[:count]
            got = _simpson(3.0 * xs**2 - 2.0 * xs, xs)
            exact = (xs[-1]**3 - xs[0]**3) - (xs[-1]**2 - xs[0]**2)
            assert got == pytest.approx(exact, rel=1e-13)


class TestActions:
    def test_standard_action_needs_samples(self):
        traj = _traj(QUARTIC, ExtendedPoint(1.0, 0.0, 0.3, -0.2), 1.0)
        short = type(traj)(times=traj.times[:50], states=traj.states[:50])
        with pytest.raises(InsufficientResolution):
            action_standard(short, QUARTIC)

    @pytest.mark.parametrize("g,n,x0,expected_exp", [
        (1.0, -2.0, (1.0, 1.2, 0.3, -0.2), 0.0),
        (-1.0, -1.0, (2.0, -1.0, 0.3, -0.2), 0.5),
        (1.0, 1.0, (1.0, 1.0, 0.3, -0.2), 1.5),
        (1.0, 3.0, (1.0, 0.05, 0.3, -0.2), 2.5),
        (1.0, 4.0, (1.0, 0.0, 0.3, -0.2), 3.0),
    ])
    def test_action_scaling_exponent(self, g, n, x0, expected_exp):
        pot = MonomialPotential(g, n)
        traj = _traj(pot, ExtendedPoint(*x0), 1.3)
        prm = lms_params_from_alpha(1.3, n)
        res = check_action_scaling(traj, pot, prm)
        assert res.expected_exponent == pytest.approx(expected_exp)
        assert abs(res.measured_exponent - res.expected_exponent) < 1e-4

    def test_action_scaling_rejects_alpha_one(self):
        traj = _traj(QUARTIC, ExtendedPoint(1.0, 0.0, 0.3, -0.2), 1.3)
        with pytest.raises(UndefinedError):
            check_action_scaling(traj, QUARTIC, lms_params_from_alpha(1.0, 4.0))

    def test_closed_harmonic_orbit_action_degenerates(self):
        # over a full period the harmonic action vanishes, so the scaling
        # exponent is indeterminate
        pot = MonomialPotential(1.0, 2.0)
        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        traj = integrate(x0, pot, 2.0 * math.pi, 0.005)
        with pytest.raises(DegenerateAction):
            check_action_scaling(traj, pot, lms_params_from_alpha(1.3, 2.0))

    @pytest.mark.parametrize("g,n,x0", [
        (1.0, -2.0, (1.0, 1.2, 0.3, -0.2)),
        (-1.0, -1.0, (2.0, -1.0, 0.3, -0.2)),
        (1.0, 1.0, (1.0, 1.0, 0.3, -0.2)),
        (1.0, 3.0, (1.0, 0.05, 0.3, -0.2)),
        (1.0, 4.0, (1.0, 0.0, 0.3, -0.2)),
    ])
    def test_auxiliary_action_invariant(self, g, n, x0):
        pot = MonomialPotential(g, n)
        traj = _traj(pot, ExtendedPoint(*x0), 1.3)
        prm = lms_params_from_alpha(1.3, n)
        s0 = action_kvn(traj, pot)
        s1 = action_kvn(lms_map_trajectory(traj, prm), pot)
        assert abs(s1 - s0) < 1e-6 * (1.0 + abs(s0))

    def test_standard_action_nonzero_fixture(self):
        pot = MonomialPotential(1.0, 2.0)
        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        traj = integrate(x0, pot, 1.7, 0.001)
        assert abs(action_standard(traj, pot)) > 1e-3


class TestBracketChange:
    def test_factors_quartic(self):
        prm = lms_params_from_alpha(1.3, 4.0)
        std, ext = bracket_change(prm)
        assert std == pytest.approx(1.3**3)
        assert ext == 1.0

    def test_inverse_square_leaves_both(self):
        prm = lms_params_from_alpha(1.3, -2.0)
        std, ext = bracket_change(prm)
        assert std == pytest.approx(1.0)
        assert ext == 1.0

    def test_small_parameter_linearization(self):
        # the residual against the first-order expansion is second order
        beta = 1e-3
        for n in (-2.0, -1.0, 1.0, 3.0, 4.0):
            prm = lms_params_from_beta(beta, n)
            std, _ = bracket_change(prm)
            k = 1.0 + n / 2.0
            assert abs(std - (1.0 + k * beta)) < beta**2 * max(1.0, k * k)

    def test_symbolic_form_preservation(self):
        # exact statement: J^T O J = a^(1+n/2) O on the (q, p) block and
        # J^T O J = O on the full pairing, with symbolic alpha
        a, n = sp.symbols("a n", positive=True)
        jac = sp.diag(a, a ** (n / 2), a**-1, a ** (-n / 2))
        omega_std = sp.zeros(4, 4)
        omega_std[0, 1], omega_std[1, 0] = 1, -1
        omega_ext = sp.zeros(4, 4)
        omega_ext[0, 2], omega_ext[1, 3] = 1, 1
        omega_ext[2, 0], omega_ext[3, 1] = -1, -1
        lhs_std = sp.simplify(jac.T * omega_std * jac - a ** (1 + n / 2) * omega_std)
        lhs_ext = sp.simplify(jac.T * omega_ext * jac - omega_ext)
        assert lhs_std == sp.zeros(4, 4)
        assert lhs_ext == sp.zeros(4, 4)

    def test_numeric_form_preservation(self):
        prm = lms_params_from_beta(1e-3, 4.0)
        jac = lms_jacobian(prm)
        omega_ext = np.zeros((4, 4))
        omega_ext[0, 2] = omega_ext[1, 3] = 1.0
        omega_ext[2, 0] = omega_ext[3, 1] = -1.0
        assert np.max(np.abs(jac.T @ omega_ext @ jac - omega_ext)) < 1e-15
