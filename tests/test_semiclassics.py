"""Orbit actions, quantization conditions, and the rescaled-mass family."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta

from kvnlab import semiclassics
from kvnlab.core import ExtendedPoint, MonomialPotential, PhasePoint, lms_params_from_alpha
from kvnlab.dynamics import characteristic_time
from kvnlab.errors import ConvergenceFailure, NoBoundOrbit, SingularityAbort
from kvnlab.semiclassics import (
    action_integral,
    bohr_levels,
    eigensolve_newton_equiv,
    ground_width,
    lms_bohr_violation,
    newton_equiv_trajectory_check,
    reduced_action,
    turning_points,
)

HARMONIC = MonomialPotential(1.0, 2.0)
QUARTIC = MonomialPotential(1.0, 4.0)


class TestTurningPoints:
    def test_harmonic_closed_form(self):
        lo, hi = turning_points(HARMONIC, 2.0)
        assert hi == pytest.approx(2.0, abs=1e-10)
        assert lo == pytest.approx(-2.0, abs=1e-10)

    def test_quartic_closed_form(self):
        lo, hi = turning_points(QUARTIC, 0.25)
        assert hi == pytest.approx(1.0, abs=1e-10)
        assert lo == -hi

    def test_negative_energy_rejected(self):
        with pytest.raises(NoBoundOrbit):
            turning_points(HARMONIC, -1.0)

    def test_unbound_exponents_rejected(self):
        for pot in (
            MonomialPotential(1.0, 3.0),
            MonomialPotential(-1.0, 2.0),
            MonomialPotential(1.0, -2.0),
            MonomialPotential(1.0, 1.0),
        ):
            with pytest.raises(NoBoundOrbit):
                turning_points(pot, 1.0)


class TestBadInputs:
    @pytest.mark.parametrize("E", [math.inf, math.nan])
    def test_non_finite_energy_has_no_orbit(self, E):
        with pytest.raises(NoBoundOrbit):
            turning_points(QUARTIC, E)

    @pytest.mark.parametrize("E", [1e-300, 1e307, 1e308, 1.7e308])
    def test_turning_point_up_to_the_float_limit(self, E):
        # q+ = (4E)^(1/4) at every finite energy; V(q+) itself is not
        # evaluated, because q^4 overflows above E ~ 4.5e307
        lo, hi = turning_points(QUARTIC, E)
        assert lo == -hi
        assert (hi / E**0.25) ** 4 == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("hbar", [-1.0, 0.0, math.inf, math.nan])
    def test_bohr_levels_need_a_positive_hbar(self, hbar):
        with pytest.raises(ValueError, match="hbar"):
            bohr_levels(HARMONIC, hbar, 2)


def _amplitude(n, E, g=1.0):
    """Turning point a = (nE/g)^(1/n) of the monomial well."""
    return (n * E / g) ** (1.0 / n)


def _closed_period(n, E):
    return 4.0 * _amplitude(n, E) / math.sqrt(2.0 * E) * beta(1.0 / n, 0.5) / n


def _closed_action(n, E, g=1.0):
    return 4.0 * _amplitude(n, E, g) * math.sqrt(2.0 * E) * beta(1.0 / n, 1.5) / n


class TestClosedFormOracles:
    """Period, loop action and Bohr levels of V = q^n/n against Beta-function
    closed forms, which share no code with the probe or the quadrature they
    check."""

    @staticmethod
    def _period(pot, q0):
        return characteristic_time(pot, ExtendedPoint(q0, 0.0, 0.3, -0.2))

    @pytest.mark.parametrize("n", [4.0, 6.0])
    @pytest.mark.parametrize("q0", [1.0, 0.7])
    def test_probe_period(self, n, q0):
        pot = MonomialPotential(1.0, n)
        expected = _closed_period(n, pot.value(q0))
        assert self._period(pot, q0) == pytest.approx(expected, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("n", [4.0, 6.0])
    def test_period_scaling_law(self, n):
        # q -> alpha q takes E -> alpha^n E and T -> alpha^(1 - n/2) T
        pot, alpha = MonomialPotential(1.0, n), 0.7
        ratio = self._period(pot, alpha) / self._period(pot, 1.0)
        assert ratio == pytest.approx(alpha ** (1.0 - n / 2.0), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("n", [4.0, 6.0, 2.0, 8.0, 10.0, 20.0])
    @pytest.mark.parametrize("E", [0.5, 1.0, 3.0, 1e3])
    def test_loop_action(self, n, E):
        for g in (0.3, 1.0, 2.5):
            got = action_integral(MonomialPotential(g, n), E)
            assert got == pytest.approx(_closed_action(n, E, g), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [4.0, 6.0])
    def test_bohr_levels(self, n):
        # J(E) = J(1) E^(1/2 + 1/n), so J = (k + 1/2) 2 pi hbar inverts in closed form
        hbar, k = 0.5, np.arange(5)
        expected = ((k + 0.5) * 2.0 * math.pi * hbar / _closed_action(n, 1.0)) ** (2 * n / (n + 2))
        levels = bohr_levels(MonomialPotential(1.0, n), hbar, 5)
        assert np.max(np.abs(levels / expected - 1.0)) < 1e-11


class TestActionIntegral:
    def test_harmonic_is_2pi_E_over_omega(self):
        # J = 2 pi E / omega; here omega = sqrt(g)
        for g, E in ((1.0, 0.7), (4.0, 1.3)):
            pot = MonomialPotential(g, 2.0)
            assert action_integral(pot, E) == pytest.approx(
                2.0 * math.pi * E / math.sqrt(g), rel=1e-10
            )

    def test_scaling_in_energy_quartic(self):
        # J scales as E^(1/2 + 1/n): for n=4 that is E^(3/4)
        j1 = action_integral(QUARTIC, 1.0)
        j2 = action_integral(QUARTIC, 2.0)
        assert j2 / j1 == pytest.approx(2.0 ** 0.75, rel=1e-9)

    @pytest.mark.parametrize("n", [2.0, 4.0, 6.0])
    def test_rescaled_energy_matches_action_power(self, n):
        # alpha^n E maps J to alpha^(1+n/2) J
        pot = MonomialPotential(1.0, n)
        alpha = 1.3
        j = action_integral(pot, 1.0)
        jm = action_integral(pot, alpha**n * 1.0)
        assert jm / j == pytest.approx(alpha ** (1.0 + n / 2.0), rel=1e-9)

    def test_loose_quadrature_is_a_convergence_failure(self, monkeypatch):
        # four angles give 2 pi, the rule on two of them 4 pi: an error
        # estimate above 1e-8 of the value is refused
        monkeypatch.setattr(semiclassics, "ACTION_NODES", 4)
        with pytest.raises(ConvergenceFailure, match=r"action quadrature error 6\.283\d+ on value"):
            action_integral(QUARTIC, 1.0)


class TestBohrLevels:
    def test_harmonic_half_integers(self):
        hbar = 1.0
        levels = bohr_levels(HARMONIC, hbar, 6)
        assert np.max(np.abs(levels - (np.arange(6) + 0.5) * hbar)) < 1e-8

    def test_harmonic_other_hbar_and_g(self):
        pot = MonomialPotential(4.0, 2.0)
        hbar = 0.5
        levels = bohr_levels(pot, hbar, 4)
        # E_k = (k + 1/2) hbar omega with omega = 2
        assert np.max(np.abs(levels - (np.arange(4) + 0.5) * hbar * 2.0)) < 1e-8

    @pytest.mark.parametrize("g, n, hbar", [
        (1.0, 4.0, 1.0), (1.0, 6.0, 0.5), (2.5, 4.0, 0.3), (4.0, 2.0, 0.5), (0.3, 8.0, 1.0),
    ])
    def test_quartic_levels_monotone_and_quantized(self, g, n, hbar):
        # the levels come from the similarity law and one quadrature at
        # E = 1; the quadrature at each level checks the law
        pot = MonomialPotential(g, n)
        levels = bohr_levels(pot, hbar, 5)
        assert np.all(np.diff(levels) > 0)
        for k, E in enumerate(levels):
            j = action_integral(pot, float(E))
            assert j / (2.0 * math.pi * hbar) == pytest.approx(k + 0.5, abs=1e-14)


class TestBohrViolation:
    def test_quartic_shift_matches_closed_form(self):
        prm = lms_params_from_alpha(1.3, 4.0)
        rep = lms_bohr_violation(QUARTIC, 1.0, prm, hbar=1.0)
        assert rep.delta_j == pytest.approx(rep.delta_j_closed_form, rel=1e-8)
        assert rep.level_mismatch != 0.0

    def test_shift_is_positive_for_expanding_map(self):
        prm = lms_params_from_alpha(1.3, 4.0)
        rep = lms_bohr_violation(QUARTIC, 1.0, prm, hbar=1.0)
        assert rep.delta_j > 0.0

    def test_inverse_square_exactly_invariant(self):
        # no orbit closes at n = -2; the reduced action between endpoints
        # the map carries along keeps its value up to roundoff
        pot = MonomialPotential(1.0, -2.0)
        with pytest.raises(NoBoundOrbit):
            lms_bohr_violation(pot, 1.0, lms_params_from_alpha(1.3, -2.0))
        w = reduced_action(pot, 1.0, 0.5, 2.0)
        for alpha in (0.4, 1.3, 7.0):
            w_mapped = reduced_action(pot, alpha**-2.0, alpha * 0.5, alpha * 2.0)
            assert abs(w_mapped / w - 1.0) < 1e-14

    def test_level_mismatch_counts_quanta(self):
        prm = lms_params_from_alpha(1.3, 4.0)
        hbar = 0.5
        rep = lms_bohr_violation(QUARTIC, 1.0, prm, hbar=hbar)
        assert rep.level_mismatch == pytest.approx(
            rep.delta_j / (2.0 * math.pi * hbar)
        )


class TestReducedAction:
    @pytest.mark.parametrize("n", [-1.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.4, 1.3, 7.0])
    def test_other_exponents_scale_by_the_action_power(self, n, alpha):
        # the control: away from n = -2 the same measurement moves by
        # alpha^(1 + n/2), so the inverse-square check is no tautology
        pot = MonomialPotential(1.0, n)
        w = reduced_action(pot, 1.0, 0.5, 1.0)
        w_mapped = reduced_action(pot, alpha**n, alpha * 0.5, alpha * 1.0)
        assert w_mapped / w == pytest.approx(alpha ** (1.0 + n / 2.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g, n, E, q1, q2", [
        (1.0, -2.0, 1.0, 0.5, 2.0), (2.5, -2.0, 0.3, 0.2, 3.0), (1.0, -1.0, 1.0, 0.5, 1.0),
        (1.0, 4.0, 1.0, -1.2, 0.7), (0.3, 6.0, 2.0, 0.0, 1.5),
    ])
    def test_matches_adaptive_quadrature(self, g, n, E, q1, q2):
        pot = MonomialPotential(g, n)
        expected, _ = quad(lambda q: math.sqrt(2.0 * (E - pot.value(q))), q1, q2,
                           epsabs=0.0, epsrel=1e-13)
        assert reduced_action(pot, E, q1, q2) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_forbidden_interval_is_refused(self):
        with pytest.raises(ValueError, match="V exceeds E"):
            reduced_action(QUARTIC, 0.25, 0.0, 1.5)


class TestNewtonEquivalence:
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
    def test_positions_identical_quartic(self, gamma):
        rep = newton_equiv_trajectory_check(
            QUARTIC, gamma, PhasePoint(1.0, 0.3), 10.0
        )
        assert rep.max_q_diff < 1e-7
        assert rep.max_p_scaled_diff < 1e-6
        assert rep.max_energy_relation_dev < 1e-9

    def test_positions_identical_harmonic(self):
        rep = newton_equiv_trajectory_check(
            HARMONIC, 3.0, PhasePoint(0.7, -0.4), 12.0
        )
        assert rep.max_q_diff < 1e-7

    def test_the_reference_is_integrated_once_and_read_only(self):
        # the gamma runs alternate with the mass-1 reference they compare
        # against; the memo keeps it, and hands out arrays no caller can edit
        x0 = PhasePoint(1.0, 0.3)
        semiclassics._newton_equiv_run.cache_clear()
        for gamma in (0.5, 2.0, 10.0):
            newton_equiv_trajectory_check(QUARTIC, gamma, x0, 1.0)
        assert semiclassics._newton_equiv_run.cache_info().misses == 4
        ref = semiclassics._newton_equiv_run(QUARTIC, x0.q, x0.p, 1.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            ref[0, 0] = 0.0

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            newton_equiv_trajectory_check(QUARTIC, -1.0, PhasePoint(1.0, 0.0), 1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            newton_equiv_trajectory_check(QUARTIC, gamma, PhasePoint(1.0, 0.0), 1.0)

    @pytest.mark.parametrize("n", [-2.0, 2.5])
    def test_infall_hits_the_domain_guard(self, n):
        # both orbits reach q = 0, where V is singular (n = -2) or undefined
        # beyond (n = 2.5); the integrator's guard must stop them
        with pytest.raises(SingularityAbort), np.errstate(invalid="ignore"):
            newton_equiv_trajectory_check(
                MonomialPotential(1.0, n), 2.0, PhasePoint(1.0, 0.3), 10.0
            )


class TestGroundWidth:
    def test_harmonic_closed_form(self):
        # (hbar^2 2 / (2 gamma^2 m g))^(1/4) = sqrt(hbar) at unit values
        assert ground_width(HARMONIC, 1.0, 1.0) == pytest.approx(1.0)
        assert ground_width(HARMONIC, 8.0, 1.0) == pytest.approx(8.0**-0.5)

    def test_unbound_rejected(self):
        with pytest.raises(NoBoundOrbit):
            ground_width(MonomialPotential(1.0, 3.0), 1.0, 1.0)


def _finite_differences(pot, gamma, hbar, k):
    """Oracle: the k lowest eigenpairs of H_gamma by second-order finite
    differences on 2048 interior points of a Dirichlet box of 8 ground
    widths, with the grid."""
    count = 2048
    box = 8.0 * ground_width(pot, gamma, hbar)
    x = np.linspace(-box, box, count + 2)[1:-1]
    h = x[1] - x[0]
    kin = hbar**2 / (2.0 * gamma * h * h)
    w, v = eigh_tridiagonal(2.0 * kin + gamma * pot.value(x), np.full(count - 1, -kin),
                            select="i", select_range=(0, k - 1))
    return x, w, v


class TestEigensolve:
    def test_harmonic_levels(self):
        # xi^2 - d^2/dxi^2 is diagonal in the oscillator basis of the
        # ground width
        res = eigensolve_newton_equiv(HARMONIC, 1.0, 1.0, 6)
        assert np.max(np.abs(res - (np.arange(6) + 0.5))) < 1e-12

    def test_quartic_ground_level(self):
        # p^2/2 + q^4/4 is 2^(-4/3) (p^2 + q^4) after q -> 2^(1/6) q, whose
        # ground level is 1.0603620904 (Hioe and Montroll, J. Math. Phys.
        # 16 (1975) 1945)
        (res,) = eigensolve_newton_equiv(QUARTIC, 1.0, 1.0, 1)
        assert res == pytest.approx(1.0603620904 * 2.0 ** (-4.0 / 3.0), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [2.0, 4.0, 6.0])
    @pytest.mark.parametrize("gamma, hbar", [(1.0, 1.0), (2.0, 0.5)])
    def test_matches_finite_differences(self, n, gamma, hbar):
        # the stencil's own error, up to 1e-4 in the sixth level, bounds
        # the agreement
        pot = MonomialPotential(1.0, n)
        _, expected, _ = _finite_differences(pot, gamma, hbar, 6)
        res = eigensolve_newton_equiv(pot, gamma, hbar, 6)
        assert np.max(np.abs(res / expected - 1.0)) < 5e-4

    @pytest.mark.parametrize("k", [0, semiclassics.BASIS_STATES // 8 + 1, semiclassics.BASIS_STATES + 1])
    def test_k_beyond_the_basis_is_refused(self, k):
        with pytest.raises(ValueError, match="the basis resolves"):
            eigensolve_newton_equiv(QUARTIC, 1.0, 1.0, k)

    @pytest.mark.parametrize("n", [8.0, 10.0])
    def test_steeper_wells_than_the_basis_resolves_are_refused(self, n):
        # against a 400-state solve the six lowest levels are off by 7e-7
        # at n = 8 and 3e-4 at n = 10, relative, where n = 6 is good to 1e-9
        with pytest.raises(ValueError, match="exponents up to 6, not n=" + str(int(n))):
            eigensolve_newton_equiv(MonomialPotential(1.0, n), 1.0, 1.0, 6)

    def test_harmonic_spectrum_gamma_free(self):
        base = eigensolve_newton_equiv(HARMONIC, 1.0, 1.0, 6)
        other = eigensolve_newton_equiv(HARMONIC, 8.0, 1.0, 6)
        assert np.max(np.abs(other - base)) < 1e-10

    def test_harmonic_states_shrink_with_gamma(self):
        # spectra agree but the eigenfunctions do not: the ground state
        # narrows as gamma grows; solve the boxed problem directly

        def ground_sigma(gamma):
            x, _, v = _finite_differences(HARMONIC, gamma, 1.0, 1)
            dens = np.abs(v[:, 0]) ** 2
            dens /= dens.sum()
            return math.sqrt(float(np.sum(x**2 * dens)))

        s1, s8 = ground_sigma(1.0), ground_sigma(8.0)
        assert s8 / s1 == pytest.approx(8.0**-0.5, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
    def test_quartic_scaling_power(self, gamma):
        base = eigensolve_newton_equiv(QUARTIC, 1.0, 1.0, 6)
        res = eigensolve_newton_equiv(QUARTIC, gamma, 1.0, 6)
        ratios = res / base
        assert np.max(np.abs(ratios - gamma ** (-1.0 / 3.0))) < 1e-3

    @pytest.mark.parametrize("gamma, hbar", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                             (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
    def test_gamma_and_hbar_must_be_finite_and_positive(self, gamma, hbar):
        with pytest.raises(ValueError, match="finite and positive"):
            eigensolve_newton_equiv(QUARTIC, gamma, hbar, 3)
