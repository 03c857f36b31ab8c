"""Conserved charges and the extended bracket."""

import math

import numpy as np
import pytest

from kvnlab.charges import (
    EPS_LIOUVILLIAN,
    epb,
    fd_gradient,
    liouvillian_gradient,
    liouvillian_value,
    lms_charge,
    lms_charge0,
    lms_charge0_gradient,
    lms_charge_harmonic,
    virasoro_charge,
)
from kvnlab.core import ExtendedPoint, MonomialPotential
from kvnlab.dynamics import characteristic_time, integrate
from kvnlab.errors import (
    HarmonicCaseError,
    NegativeBaseError,
    NonFiniteGradient,
    NullLiouvillianError,
)

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
    for fn in (lms_charge0, lms_charge0_gradient):
        with pytest.raises(HarmonicCaseError):
            fn(ExtendedPoint(1.0, 0.0, 0.0, 0.0), MonomialPotential(1.0, 2.0))


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
        proj = [lambda x, k=k: x.as_array()[k] for k in range(4)]
        x = ExtendedPoint(0.9, -0.3, 0.4, 1.1)
        d = [fd_gradient(f, x) for f in proj]
        assert epb(d[0], d[2]) == pytest.approx(1.0, abs=1e-8)
        assert epb(d[1], d[3]) == pytest.approx(1.0, abs=1e-8)
        assert epb(d[0], d[1]) == pytest.approx(0.0, abs=1e-8)
        assert epb(d[0], d[3]) == pytest.approx(0.0, abs=1e-8)
        assert epb(d[2], d[3]) == pytest.approx(0.0, abs=1e-8)

    def test_antisymmetry_random_fields(self):
        rng = np.random.default_rng(3)

        def f(x):
            q, p, lq, lp = x.as_array()
            return q * p**2 + lq * math.sin(q) + lp * p

        def g(x):
            q, p, lq, lp = x.as_array()
            return lq * lp + q**3 - p * lq

        for _ in range(10):
            x = ExtendedPoint(*rng.uniform(0.5, 1.5, 4))
            df, dg = fd_gradient(f, x), fd_gradient(g, x)
            assert epb(df, dg) == pytest.approx(-epb(dg, df), abs=1e-6)

    @pytest.mark.parametrize("pot,x0", FIXTURES)
    def test_charge_generates_rescale_fd(self, pot, x0):
        # finite-difference gradients: {H, D0} = H to 1e-6
        lhs = epb(
            fd_gradient(lambda x: liouvillian_value(x, pot), x0),
            fd_gradient(lambda x: lms_charge0(x, pot), x0),
        )
        rhs = liouvillian_value(x0, pot)
        assert abs(lhs - rhs) < 1e-6 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("pot,x0", FIXTURES)
    def test_charge_generates_rescale_analytic(self, pot, x0):
        # analytic gradients: same identity at 1e-12
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = ExtendedPoint(*rng.uniform(0.5, 2.0, 4))
            lhs = epb(liouvillian_gradient(x, pot), lms_charge0_gradient(x, pot))
            rhs = liouvillian_value(x, pot)
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))

    def test_liouvillian_gradient_closed_form(self):
        pot = MonomialPotential(1.0, 4.0)
        x = ExtendedPoint(1.1, -0.2, 0.5, 0.3)
        # (-lp V''(q), lq, p, -V'(q)) with V'(q) = q^3
        expected = np.array([-0.3 * 3.0 * 1.1**2, 0.5, -0.2, -(1.1**3)])
        assert np.allclose(liouvillian_gradient(x, pot), expected, atol=1e-14)

    def test_analytic_gradients_match_finite_differences(self):
        pot = MonomialPotential(1.0, 4.0)
        x = ExtendedPoint(1.1, -0.2, 0.5, 0.3)
        pairs = (
            (liouvillian_gradient, liouvillian_value),
            (lms_charge0_gradient, lms_charge0),
        )
        for grad, value in pairs:
            fd = fd_gradient(lambda y: value(y, pot), x)
            assert np.allclose(grad(x, pot), fd, atol=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_raises(self, bad):
        finite = np.array([1.0, 0.5, -0.2, 0.3])
        broken = finite.copy()
        broken[1] = bad
        with pytest.raises(NonFiniteGradient):
            epb(broken, finite)
        with pytest.raises(NonFiniteGradient):
            epb(finite, broken)


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
