"""Extended equations of motion and flow utilities."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kvnlab.core import ExtendedPoint, MonomialPotential, PhasePoint
from kvnlab.dynamics import (
    characteristic_time,
    eom_rhs,
    flow_map,
    flow_map_batch,
    integrate,
    sample_times,
)
from kvnlab.errors import DomainError, SingularityAbort

QUARTIC = MonomialPotential(1.0, 4.0)
HARMONIC = MonomialPotential(1.0, 2.0)


def test_rhs_components_quartic():
    x = ExtendedPoint(1.5, -0.4, 0.2, 0.7)
    rhs = eom_rhs(x, QUARTIC)
    v1 = 1.0 * 1.5**3
    v2 = 3.0 * 1.5**2
    assert rhs == pytest.approx([-0.4, -v1, 0.7 * v2, -0.2])


@pytest.mark.parametrize("n", [-2.0, 2.5])
def test_rhs_guards_singular_origin(n):
    pot = MonomialPotential(1.0, n)
    with pytest.raises(DomainError):
        eom_rhs(ExtendedPoint(1e-9, 0.0, 0.0, 0.0), pot)


def test_sample_times_includes_endpoints():
    ts = sample_times(1.0, 0.3)
    assert ts[0] == 0.0
    assert ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0)


@pytest.mark.parametrize("intervals", [1, 7, 299, 2000])
def test_sample_times_gives_the_asked_interval_count(intervals):
    # T / (T / N) often rounds to N + 2e-16; that must not add a sample
    for T in np.linspace(0.1, 200.0, 2001):
        for horizon in (T, -T):
            ts = sample_times(horizon, T / intervals)
            assert len(ts) == intervals + 1, (horizon, intervals)
            assert ts[-1] == horizon


class TestIntegrate:
    def test_harmonic_closed_form(self):
        # (q, p) rotates; the auxiliary pair obeys the same linear system
        # with the roles mirrored, so it rotates too
        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        traj = integrate(x0, HARMONIC, 2.0 * math.pi)
        assert np.allclose(traj.final.as_array(), x0.as_array(), atol=1e-9)

    def test_harmonic_quarter_period(self):
        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        traj = integrate(x0, HARMONIC, math.pi / 2.0)
        q, p, lq, lp = traj.final.as_array()
        # q(t) = cos t, p(t) = -sin t; lq(t) = lq0 cos t + lp0 sin t,
        # lp(t) = -lq0 sin t + lp0 cos t
        assert q == pytest.approx(0.0, abs=1e-10)
        assert p == pytest.approx(-1.0, abs=1e-10)
        assert lq == pytest.approx(-0.2, abs=1e-10)
        assert lp == pytest.approx(-0.3, abs=1e-10)

    def test_energy_conserved_all_fixture_exponents(self):
        cases = [
            (MonomialPotential(1.0, -2.0), ExtendedPoint(1.0, 1.2, 0.3, -0.2)),
            (MonomialPotential(-1.0, -1.0), ExtendedPoint(2.0, -1.0, 0.3, -0.2)),
            (MonomialPotential(1.0, 1.0), ExtendedPoint(1.0, 1.0, 0.3, -0.2)),
            (MonomialPotential(1.0, 3.0), ExtendedPoint(1.0, 0.05, 0.3, -0.2)),
            (MonomialPotential(1.0, 4.0), ExtendedPoint(1.0, 0.0, 0.3, -0.2)),
        ]
        for pot, x0 in cases:
            T = 2.0 * characteristic_time(pot, x0)
            traj = integrate(x0, pot, T, T / 500)
            e = 0.5 * traj.states[:, 1] ** 2 + np.array(
                [pot.value(q) for q in traj.states[:, 0]]
            )
            assert np.max(np.abs(e - e[0])) < 1e-9 * (1.0 + abs(e[0])), pot

    def test_negative_horizon_runs_backward(self):
        x0 = ExtendedPoint(1.0, 0.3, 0.1, 0.2)
        fwd = integrate(x0, QUARTIC, 0.8).final
        back = integrate(fwd, QUARTIC, -0.8).final
        assert np.allclose(back.as_array(), x0.as_array(), atol=1e-9)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            integrate(ExtendedPoint(1.0, 0.0, 0.0, 0.0), QUARTIC, 0.0)

    def test_inadmissible_start_rejected(self):
        pot = MonomialPotential(1.0, -2.0)
        with pytest.raises(DomainError):
            integrate(ExtendedPoint(-1.0, 0.0, 0.0, 0.0), pot, 1.0)

    def test_infall_aborts_cleanly(self):
        # attractive inverse square with inward momentum reaches the guard
        pot = MonomialPotential(2.0, -2.0)
        with pytest.raises(SingularityAbort):
            integrate(ExtendedPoint(0.5, -2.0, 0.0, 0.0), pot, 10.0)

    def test_trajectory_accessors(self):
        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        traj = integrate(x0, HARMONIC, 1.0)
        assert len(traj) == len(traj.times)
        assert np.allclose(traj.initial.as_array(), x0.as_array())
        assert traj.point(0) == traj.initial


class TestTangentPairing:
    """The auxiliary pair is transported like a cotangent vector, so its
    pairing with any tangent vector of the (q, p) flow is constant."""

    @pytest.mark.parametrize("pot,x0", [
        (QUARTIC, ExtendedPoint(1.0, 0.0, 0.3, -0.2)),
        (HARMONIC, ExtendedPoint(1.0, 0.5, -0.4, 0.8)),
        (MonomialPotential(1.0, 3.0), ExtendedPoint(1.0, 0.05, 0.3, -0.2)),
    ])
    def test_pairing_constant_against_variational_oracle(self, pot, x0):
        g, n = pot.g, pot.n
        v0 = np.array([0.7, -0.4])

        def rhs8(t, y):
            q, p, lq, lp, dq, dp = y[0], y[1], y[2], y[3], y[4], y[5]
            v1 = g * q ** (n - 1.0)
            v2 = g * (n - 1.0) * q ** (n - 2.0)
            return [p, -v1, lp * v2, -lq, dp, -v2 * dq, 0.0, 0.0]

        T = 2.0 * characteristic_time(pot, x0)
        sol = solve_ivp(
            rhs8,
            (0.0, T),
            list(x0.as_array()) + [v0[0], v0[1], 0.0, 0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
            t_eval=np.linspace(0.0, T, 300),
        )
        assert sol.success
        pairing = sol.y[2] * sol.y[4] + sol.y[3] * sol.y[5]
        assert np.max(np.abs(pairing - pairing[0])) < 1e-8 * (1.0 + abs(pairing[0]))

        # and the library trajectory agrees with the oracle's extended block
        traj = integrate(x0, pot, T, T / 299)
        lib = np.stack([
            np.interp(sol.t, traj.times, traj.states[:, k]) for k in range(4)
        ])
        assert np.max(np.abs(lib - sol.y[:4])) < 1e-8


class TestFlowMaps:
    def test_flow_map_composition(self):
        x0 = PhasePoint(1.0, 0.3)
        a = flow_map(flow_map(x0, QUARTIC, 0.4), QUARTIC, 0.6)
        b = flow_map(x0, QUARTIC, 1.0)
        assert a.q == pytest.approx(b.q, abs=1e-10)
        assert a.p == pytest.approx(b.p, abs=1e-10)

    def test_flow_map_zero_is_identity(self):
        x0 = PhasePoint(1.0, 0.3)
        assert flow_map(x0, QUARTIC, 0.0) is x0

    def test_batch_matches_single(self):
        qs = np.array([0.8, 1.0, 1.2])
        ps = np.array([-0.2, 0.0, 0.4])
        q1, p1 = flow_map_batch(qs, ps, QUARTIC, 0.7)
        for i in range(3):
            single = flow_map(PhasePoint(qs[i], ps[i]), QUARTIC, 0.7)
            assert q1[i] == pytest.approx(single.q, abs=1e-10)
            assert p1[i] == pytest.approx(single.p, abs=1e-10)

    def test_batch_backward_inverts_forward(self):
        rng = np.random.default_rng(7)
        qs = rng.uniform(-1.0, 1.0, 50)
        ps = rng.uniform(-1.0, 1.0, 50)
        qf, pf = flow_map_batch(qs, ps, QUARTIC, 0.9)
        qb, pb = flow_map_batch(qf, pf, QUARTIC, -0.9)
        assert np.max(np.abs(qb - qs)) < 1e-9
        assert np.max(np.abs(pb - ps)) < 1e-9


class TestCharacteristicTime:
    def test_harmonic_closed_form(self):
        x0 = ExtendedPoint(1.0, 0.0, 0.0, 0.0)
        assert characteristic_time(MonomialPotential(4.0, 2.0), x0) == pytest.approx(
            math.pi
        )

    def test_quartic_period_matches_turning_integral(self):
        # direct quadrature of dt = dq / sqrt(2 (E - V)) over a full cycle
        from scipy.integrate import quad

        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        E = 0.25
        qt = (4.0 * E) ** 0.25

        period = 4.0 * quad(
            lambda u: qt / np.sqrt(2.0 * (E - 0.25 * (qt * u) ** 4)),
            0.0,
            1.0 - 1e-12,
        )[0]
        est = characteristic_time(QUARTIC, x0)
        assert est == pytest.approx(period, rel=1e-3)

    def test_escaping_orbit_gets_finite_scale(self):
        pot = MonomialPotential(1.0, -2.0)
        x0 = ExtendedPoint(1.0, 1.2, 0.3, -0.2)
        t = characteristic_time(pot, x0)
        assert 0.0 < t < 100.0
