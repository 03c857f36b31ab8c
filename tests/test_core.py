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
from kvnlab.core import _power
from kvnlab.errors import DomainError, UndefinedError
from kvnlab.suites import FIXTURES

#: The exponents of the suites' potentials and two more: the non-integral
#: 2.5 and the odd negative -3.
POWER_NS = (*FIXTURES, 2.5, -3.0)
#: Every power value, force and curvature raise to for those potentials.
POWER_EXPONENTS = sorted({e for n in POWER_NS for e in (n, n - 1.0, n - 2.0)})


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


def _draws():
    return np.random.default_rng(11).uniform(-3.0, 3.0, 200)


class TestPower:
    """``_power``, the one place MonomialPotential raises q to a power."""

    @pytest.mark.parametrize("e", POWER_EXPONENTS)
    def test_scalars_keep_the_literal_power(self, e):
        # repr tells every bit of a float or np.float64 apart, and its type
        with np.errstate(invalid="ignore"):
            for q in _draws():
                for x in (float(q), np.float64(q)):
                    assert repr(_power(x, e)) == repr(x ** e), (x, e)

    @pytest.mark.parametrize("n", POWER_NS)
    def test_potential_scalars_keep_their_bits(self, n):
        # np.float64 scalars, as indexing a numpy state returns them
        pot = MonomialPotential(1.5, n)
        with np.errstate(invalid="ignore"):
            for q in map(np.float64, _draws()):
                assert repr(pot.force(q)) == repr(1.5 * q ** (n - 1.0))
                if n != 1.0:
                    assert repr(pot.curvature(q)) == repr(1.5 * (n - 1.0) * q ** (n - 2.0))
                if q > 0:
                    assert repr(pot.value(q)) == repr(1.5 * q ** n / n)

    @pytest.mark.parametrize("e", POWER_EXPONENTS)
    def test_arrays_within_one_ulp_of_scalars(self, e):
        q = _draws()
        with np.errstate(invalid="ignore"):
            scalar = np.array([x ** e for x in map(np.float64, q)])
            np.testing.assert_array_max_ulp(_power(q, e), scalar, maxulp=1)

    @pytest.mark.parametrize("e", [e for e in POWER_EXPONENTS if float(e).is_integer()])
    def test_signed_zeros_and_infinities(self, e):
        q = np.array([0.0, -0.0, math.inf, -math.inf])
        with np.errstate(divide="ignore"):
            got = _power(q, e)
            want = np.array([x ** e for x in map(np.float64, q)])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_negative_base_gives_nan_for_a_fractional_exponent(self):
        pot = MonomialPotential(1.0, 2.5)
        q = np.array([-1.0, 1.0])
        with np.errstate(invalid="ignore"):
            for got in (pot.force(q), pot.curvature(q), _power(q, 2.5)):
                assert math.isnan(got[0]) and got[1] > 0


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
