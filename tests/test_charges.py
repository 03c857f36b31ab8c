"""Conserved charges and the extended bracket."""

import math

import numpy as np
import pytest

from kvnlab.charges import (
    EPS_LIOUVILLIAN,
    ScalarField4,
    epb,
    gradient,
    liouvillian_field,
    liouvillian_value,
    lms_charge,
    lms_charge0,
    lms_charge0_field,
    lms_charge_harmonic,
    strip_gradient,
    virasoro_charge,
)
from kvnlab.core import ExtendedPoint, MonomialPotential
from kvnlab.dynamics import characteristic_time, integrate
from kvnlab.errors import HarmonicCaseError, NegativeBaseError, NullLiouvillianError

FIXTURES = [
    (MonomialPotential(1.0, -2.0), ExtendedPoint(1.0, 1.2, 0.3, -0.2)),
    (MonomialPotential(-1.0, -1.0), ExtendedPoint(2.0, -1.0, 0.3, -0.2)),
    (MonomialPotential(1.0, 1.0), ExtendedPoint(1.0, 1.0, 0.3, -0.2)),
    (MonomialPotential(1.0, 3.0), ExtendedPoint(1.0, 0.05, 0.3, -0.2)),
    (MonomialPotential(1.0, 4.0), ExtendedPoint(1.0, 0.0, 0.3, -0.2)),
]


def _fixture_traj(pot, x0, periods=20.0):
    T = periods * characteristic_time(pot, x0)
    return integrate(x0, pot, T, T / 2000)


def test_liouvillian_value_quartic():
    pot = MonomialPotential(2.0, 4.0)
    x = ExtendedPoint(1.5, -0.4, 0.2, 0.7)
    # lq p - lp V'(q) with V'(q) = 2 q^3
    assert liouvillian_value(x, pot) == pytest.approx(0.2 * -0.4 - 0.7 * 2.0 * 1.5**3)


def test_charge0_closed_form_quartic():
    pot = MonomialPotential(1.0, 4.0)
    x = ExtendedPoint(1.0, 2.0, 3.0, 4.0)
    # -(2/(2-n)) lq q - (n/(2-n)) lp p with n=4
    assert lms_charge0(x, pot) == pytest.approx(3.0 * 1.0 + 2.0 * 4.0 * 2.0)


def test_charge_combines_time_part():
    pot = MonomialPotential(1.0, 4.0)
    x = ExtendedPoint(1.0, 2.0, 3.0, 4.0)
    t = 0.7
    expected = t * liouvillian_value(x, pot) + lms_charge0(x, pot)
    assert lms_charge(x, pot, t) == pytest.approx(expected)


def test_charge0_rejects_harmonic():
    with pytest.raises(HarmonicCaseError):
        lms_charge0(ExtendedPoint(1.0, 0.0, 0.0, 0.0), MonomialPotential(1.0, 2.0))


def test_harmonic_variant_value():
    x = ExtendedPoint(1.0, 2.0, 3.0, 4.0)
    assert lms_charge_harmonic(x) == pytest.approx(3.0 * 1.0 + 2.0 * 4.0)


@pytest.mark.parametrize("pot,x0", FIXTURES)
def test_charge_conserved_20_periods(pot, x0):
    traj = _fixture_traj(pot, x0)
    vals = np.array([
        lms_charge(ExtendedPoint(*s), pot, t)
        for t, s in zip(traj.times, traj.states)
    ])
    assert np.max(np.abs(vals - vals[0])) < 1e-7 * (1.0 + abs(vals[0]))


def test_harmonic_variant_conserved_20_periods():
    pot = MonomialPotential(1.0, 2.0)
    x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
    traj = _fixture_traj(pot, x0)
    vals = np.array([lms_charge_harmonic(ExtendedPoint(*s)) for s in traj.states])
    assert np.max(np.abs(vals - vals[0])) < 1e-7 * (1.0 + abs(vals[0]))


@pytest.mark.parametrize("pot,x0", FIXTURES)
def test_charges_on_sample_columns_match_pointwise(pot, x0):
    traj = _fixture_traj(pot, x0, periods=2.0)
    samples = ExtendedPoint(*traj.states.T)
    points = [ExtendedPoint(*s) for s in traj.states]
    pairs = [
        (liouvillian_value(samples, pot), [liouvillian_value(x, pot) for x in points]),
        (lms_charge(samples, pot, traj.times),
         [lms_charge(x, pot, t) for x, t in zip(points, traj.times)]),
    ]
    for m in (-1, 0, 1, 2):
        pairs.append((
            virasoro_charge(samples, pot, traj.times, m),
            [virasoro_charge(x, pot, t, m) for x, t in zip(points, traj.times)],
        ))
    for columns, pointwise in pairs:
        np.testing.assert_allclose(columns, pointwise, rtol=1e-12, atol=0.0)


class TestExtendedBracket:
    def test_canonical_pairs(self):
        # {q, lq} = 1, {p, lp} = 1, mixed pairs vanish
        proj = [ScalarField4(lambda x, k=k: x.as_array()[k]) for k in range(4)]
        x = ExtendedPoint(0.9, -0.3, 0.4, 1.1)
        assert epb(proj[0], proj[2], x) == pytest.approx(1.0, abs=1e-8)
        assert epb(proj[1], proj[3], x) == pytest.approx(1.0, abs=1e-8)
        assert epb(proj[0], proj[1], x) == pytest.approx(0.0, abs=1e-8)
        assert epb(proj[0], proj[3], x) == pytest.approx(0.0, abs=1e-8)
        assert epb(proj[2], proj[3], x) == pytest.approx(0.0, abs=1e-8)

    def test_antisymmetry_random_fields(self):
        rng = np.random.default_rng(3)

        def f(x):
            q, p, lq, lp = x.as_array()
            return q * p**2 + lq * math.sin(q) + lp * p

        def g(x):
            q, p, lq, lp = x.as_array()
            return lq * lp + q**3 - p * lq

        ff, gg = ScalarField4(f), ScalarField4(g)
        for _ in range(10):
            x = ExtendedPoint(*rng.uniform(0.5, 1.5, 4))
            assert epb(ff, gg, x) == pytest.approx(-epb(gg, ff, x), abs=1e-6)

    @pytest.mark.parametrize("pot,x0", FIXTURES)
    def test_charge_generates_rescale_fd(self, pot, x0):
        # finite-difference gradients: {H, D0} = H to 1e-6
        hf = strip_gradient(liouvillian_field(pot))
        df = strip_gradient(lms_charge0_field(pot))
        lhs = epb(hf, df, x0)
        rhs = liouvillian_value(x0, pot)
        assert abs(lhs - rhs) < 1e-6 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("pot,x0", FIXTURES)
    def test_charge_generates_rescale_analytic(self, pot, x0):
        # analytic gradients: same identity at 1e-12
        rng = np.random.default_rng(11)
        hf = liouvillian_field(pot)
        df = lms_charge0_field(pot)
        for _ in range(25):
            x = ExtendedPoint(*rng.uniform(0.5, 2.0, 4))
            lhs = epb(hf, df, x)
            rhs = liouvillian_value(x, pot)
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))

    def test_gradient_prefers_analytic(self):
        pot = MonomialPotential(1.0, 4.0)
        f = liouvillian_field(pot)
        x = ExtendedPoint(1.1, -0.2, 0.5, 0.3)
        v1, v2 = pot.derivs(x.q)
        expected = np.array([-x.lp * v2, x.lq, x.p, -v1])
        assert np.allclose(gradient(f, x), expected, atol=1e-14)

    def test_strip_gradient_forces_fd(self):
        pot = MonomialPotential(1.0, 4.0)
        f = liouvillian_field(pot)
        bare = strip_gradient(f)
        assert f.has_gradient and not bare.has_gradient
        x = ExtendedPoint(1.1, -0.2, 0.5, 0.3)
        assert np.allclose(gradient(bare, x), gradient(f, x), atol=1e-6)


class TestVirasoro:
    POT = MonomialPotential(1.0, 4.0)

    def test_endpoint_members_are_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = ExtendedPoint(*rng.uniform(0.4, 1.6, 4))
            t = float(rng.uniform(-2.0, 2.0))
            h = liouvillian_value(x, self.POT)
            d = lms_charge(x, self.POT, t)
            assert virasoro_charge(x, self.POT, t, -1) == pytest.approx(h, rel=1e-14)
            assert virasoro_charge(x, self.POT, t, 0) == pytest.approx(d, rel=1e-14)

    def test_power_formula_consistent_with_branches(self):
        # generic-m route evaluated at m = -1, 0 agrees with the
        # short-circuit branches to 1e-12
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = ExtendedPoint(*rng.uniform(0.5, 1.5, 4))
            t = float(rng.uniform(0.1, 1.0))
            h = liouvillian_value(x, self.POT)
            d0 = lms_charge0(x, self.POT)
            u = t + d0 / h
            for m, branch in ((-1, virasoro_charge(x, self.POT, t, -1)),
                              (0, virasoro_charge(x, self.POT, t, 0))):
                direct = h * u ** (1.0 + m)
                assert abs(direct - branch) <= 1e-12 * (1.0 + abs(branch))

    @pytest.mark.parametrize("pot,x0", FIXTURES)
    def test_tower_conserved(self, pot, x0):
        traj = _fixture_traj(pot, x0)
        for m in (-1, 0, 1, 2):
            vals = np.array([
                virasoro_charge(ExtendedPoint(*s), pot, t, m)
                for t, s in zip(traj.times, traj.states)
            ])
            drift = np.max(np.abs(vals - vals[0])) / (1.0 + abs(vals[0]))
            assert drift < 1e-6, (pot, m)

    def test_null_generator_rejected(self):
        # pick the auxiliary pair so lq p = lp V'(q) exactly
        x = ExtendedPoint(1.0, 1.0, 1.0, 1.0)
        assert abs(liouvillian_value(x, self.POT)) <= EPS_LIOUVILLIAN
        with pytest.raises(NullLiouvillianError):
            virasoro_charge(x, self.POT, 0.5, 2)

    def test_null_generator_at_one_sample_rejects_the_column(self):
        pot = self.POT
        traj = _fixture_traj(pot, ExtendedPoint(1.0, 0.0, 0.3, -0.2), periods=1.0)
        states = traj.states.copy()
        states[7] = (1.0, 1.0, 1.0, 1.0)
        samples = ExtendedPoint(*states.T)
        assert np.sum(np.abs(liouvillian_value(samples, pot)) <= EPS_LIOUVILLIAN) == 1
        for m in (-1, 0, 2):
            with pytest.raises(NullLiouvillianError):
                virasoro_charge(samples, pot, traj.times, m)

    def test_negative_base_fractional_order(self):
        x = ExtendedPoint(1.0, -1.0, 0.3, -0.2)
        h = liouvillian_value(x, self.POT)
        u = 0.0 + lms_charge0(x, self.POT) / h
        assert u < 0.0
        with pytest.raises(NegativeBaseError):
            virasoro_charge(x, self.POT, 0.0, 0.5)

    def test_integer_order_allows_negative_base(self):
        x = ExtendedPoint(1.0, -1.0, 0.3, -0.2)
        val = virasoro_charge(x, self.POT, 0.0, 2)
        assert math.isfinite(val)
