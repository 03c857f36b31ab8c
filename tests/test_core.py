"""Potential and parameter container behavior."""

import math

import numpy as np
import pytest

from kvnlab.core import (
    ExtendedPoint,
    HbarContext,
    LmsParams,
    MonomialPotential,
    PhasePoint,
    lms_params_from_alpha,
    lms_params_from_beta,
)
from kvnlab.errors import DomainError, UndefinedError


class TestMonomialPotential:
    def test_value_quartic(self):
        pot = MonomialPotential(2.0, 4.0)
        assert pot.value(1.5) == pytest.approx(2.0 * 1.5**4 / 4.0, rel=1e-15)

    def test_derivs_worked_example(self):
        # attractive inverse-square well: V = g q^n / n with g=2, n=-2
        pot = MonomialPotential(2.0, -2.0)
        v1, v2 = pot.derivs(1.0)
        assert v1 == pytest.approx(2.0)
        assert v2 == pytest.approx(-6.0)

    def test_derivs_linear_has_no_curvature(self):
        v1, v2 = MonomialPotential(3.0, 1.0).derivs(0.7)
        assert v1 == 3.0
        assert v2 == 0.0

    def test_derivs_harmonic_constant_curvature(self):
        v1, v2 = MonomialPotential(5.0, 2.0).derivs(-1.2)
        assert v1 == pytest.approx(-6.0)
        assert v2 == 5.0

    @pytest.mark.parametrize("g,n", [(0.0, 2.0), (1.0, 0.0), (math.nan, 2.0), (1.0, math.inf)])
    def test_rejects_degenerate_parameters(self, g, n):
        with pytest.raises(UndefinedError):
            MonomialPotential(g, n)

    def test_admissible_negative_exponent(self):
        pot = MonomialPotential(1.0, -2.0)
        assert pot.admissible(0.5)
        assert not pot.admissible(0.0)
        assert not pot.admissible(-0.5)

    def test_admissible_positive_integer_exponent(self):
        pot = MonomialPotential(1.0, 4.0)
        assert pot.admissible(-3.0)
        assert pot.admissible(0.0)

    def test_admissible_fractional_exponent_needs_positive_q(self):
        pot = MonomialPotential(1.0, 0.5)
        assert pot.admissible(1.0)
        assert not pot.admissible(-1.0)

    @pytest.mark.parametrize("n", [-2.0, -1.0, 1.0, 2.0, 2.5, 3.0, 4.0])
    def test_array_evaluation_matches_scalar(self, n):
        # arrays may round the power differently from libm in the last bit
        pot = MonomialPotential(1.5, n)
        qs = np.array([0.3, 0.8, 1.0, 1.7, 2.4])
        values = pot.value(qs)
        v1s, v2s = pot.derivs(qs)
        for i, q in enumerate(qs):
            v1, v2 = pot.derivs(float(q))
            assert values[i] == pytest.approx(pot.value(float(q)), rel=1e-15, abs=0.0)
            assert v1s[i] == pytest.approx(v1, rel=1e-15, abs=0.0)
            assert v2s[i] == pytest.approx(v2, rel=1e-15, abs=0.0)

    def test_array_domain_check_covers_every_element(self):
        pot = MonomialPotential(1.0, 2.5)
        assert list(pot.admissible(np.array([1.0, -1.0]))) == [True, False]
        with pytest.raises(DomainError):
            pot.value(np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            pot.derivs(np.array([1.0, -1.0]))

    def test_force_and_curvature_skip_the_domain_check(self):
        # right-hand sides see trial stages outside the domain: NaN, no raise
        pot = MonomialPotential(1.0, 2.5)
        with np.errstate(invalid="ignore"):
            assert math.isnan(pot.force(np.float64(-1.0)))
            assert math.isnan(pot.curvature(np.float64(-1.0)))


class TestPoints:
    def test_extended_roundtrip(self):
        x = ExtendedPoint(1.0, -2.0, 0.3, 0.4)
        assert ExtendedPoint.from_array(x.as_array()) == x

    def test_as_array_order(self):
        arr = ExtendedPoint(1.0, 2.0, 3.0, 4.0).as_array()
        assert list(arr) == [1.0, 2.0, 3.0, 4.0]

    def test_phase_point_fields(self):
        pp = PhasePoint(0.5, -0.25)
        assert (pp.q, pp.p) == (0.5, -0.25)


class TestHbarContext:
    def test_positive_only(self):
        assert HbarContext(0.5).hbar == 0.5
        with pytest.raises(UndefinedError):
            HbarContext(0.0)
        with pytest.raises(UndefinedError):
            HbarContext(-1.0)


class TestLmsParams:
    def test_from_beta_quartic(self):
        prm = lms_params_from_beta(0.1, 4.0)
        assert prm.alpha == pytest.approx(math.exp(0.1))
        assert prm.alpha_tilde == pytest.approx(0.1 * (4.0 - 2.0) / 2.0)
        assert prm.n == 4.0

    def test_from_alpha_matches_from_beta(self):
        a = lms_params_from_alpha(1.3, 3.0)
        b = lms_params_from_beta(math.log(1.3), 3.0)
        assert a.alpha == pytest.approx(b.alpha, rel=1e-15)
        assert a.alpha_tilde == pytest.approx(b.alpha_tilde, rel=1e-14)

    def test_harmonic_flag(self):
        assert lms_params_from_alpha(1.3, 2.0).harmonic
        assert not lms_params_from_alpha(1.3, 4.0).harmonic

    def test_harmonic_has_vanishing_alpha_tilde(self):
        # at n=2 the reparameterization degenerates: alpha_tilde is 0 no
        # matter how large the rescaling is
        prm = lms_params_from_beta(5.0, 2.0)
        assert prm.alpha_tilde == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(UndefinedError):
            lms_params_from_alpha(0.0, 4.0)
        with pytest.raises(UndefinedError):
            lms_params_from_alpha(-1.3, 4.0)

    def test_inverse_square_time_power(self):
        # time rescales by alpha^(1 - n/2); n=-2 gives alpha^2
        prm = lms_params_from_alpha(4.0, -2.0)
        assert prm.alpha ** (1.0 - prm.n / 2.0) == pytest.approx(16.0)

    def test_params_frozen(self):
        prm = LmsParams(1.3, math.log(1.3), 0.1, 4.0)
        with pytest.raises(AttributeError):
            prm.alpha = 2.0
