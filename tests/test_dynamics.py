"""Extended equations of motion and flow utilities."""

import json
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kvnlab.core import ExtendedPoint, MonomialPotential, _is_positive_integer
from kvnlab.dynamics import (
    BATCH_ORDER,
    BLOCK,
    MAX_INTEGER_N,
    ORDER,
    RMIN,
    _lane_dot,
    _miller_weights,
    _recurrence,
    characteristic_time,
    flow_map_batch,
    integrate,
    sample_steps,
    sample_times,
    taylor_steps,
)
from kvnlab.errors import DomainError, SingularityAbort, StepFailure
from kvnlab.suites import FIXTURES

QUARTIC = MonomialPotential(1.0, 4.0)
HARMONIC = MonomialPotential(1.0, 2.0)


@pytest.mark.parametrize("g,n", [(g, n) for n, (g, _) in FIXTURES.items()]
                         + [(1.0, 2.5), (1.0, -3.0)])
@pytest.mark.parametrize("y,mass", [((1.5, -0.4, 0.2, 0.7), 1.0), ((1.5, -0.4), 2.0)],
                         ids=["extended", "classical-mass2"])
def test_kernel_rhs_is_the_force_law(g, n, y, mass):
    # the first-order coefficients of the kernel are the right-hand side
    # (p/m, -m V', lp V'', -lq), built here from the potential's derivs
    pot = MonomialPotential(g, n)
    y = np.array(y)
    v1, v2 = pot.derivs(y[0])
    want = [y[1] / mass, -mass * v1] + ([y[3] * v2, -y[2]] if len(y) == 4 else [])
    np.testing.assert_allclose(_recurrence(pot, y, 1, mass)(y)[1], want, rtol=1e-15, atol=0)


def reference_coefficients(pot, y, order, mass):
    """The Taylor recurrence with every operand sliced afresh on every
    order, in a new buffer per call, as the kernel ran it before it built
    one plan per run: the oracle that plan must equal bit for bit."""
    g, n = pot.g, pot.n
    c = np.empty((order + 1,) + y.shape)
    c[0] = y
    q, pair = c[:, 0], len(y) // 2
    lanes = (1,) * (y.ndim - 1)
    per_order = np.arange(1.0, order + 1).reshape((order, 1) + lanes)
    drift = np.array([1.0 / mass, -1.0])[:pair].reshape((pair,) + lanes) / per_order
    kick = np.array([-mass * g, g * (n - 1.0)])[:pair].reshape((pair,) + lanes) / per_order
    dot = np.dot if y.ndim == 1 else _lane_dot
    integral = _is_positive_integer(n)
    if n == 1.0:
        unit = np.zeros((order,) + c[0, ::3].shape)
        unit[0] = 1.0
    elif integral:
        powers = [np.zeros_like(q), q] + [np.empty_like(q) for _ in range(int(n) - 3)]
        powers[0][0] = 1.0
        u = powers[int(n) - 2]
    else:
        u = np.empty_like(q)
        u[0] = q[0] ** (n - 2.0)
        weights = _miller_weights(n, order)
    for k in range(order):
        if n == 1.0:
            forced = unit[k]
        else:
            if integral:
                for j in range(2, len(powers)):
                    powers[j][k] = dot(q[:k + 1], powers[j - 1][k::-1])
            elif k:
                u[k] = np.dot(weights[k - 1, :k], q[1:k + 1] * u[k - 1::-1]) / q[0]
            forced = dot(u[k::-1], c[:k + 1, ::3])
        c[k + 1, ::3] = c[k, 1:3] * drift[k]
        c[k + 1, 1:3] = forced * kick[k]
    return c


def reference_samples(steps, T, dt):
    """sample_steps' Horner's rule on (sample, row) arrays, a new one per
    order, as it ran before it gathered the coefficients along samples."""
    times = sample_times(T, dt)
    starts, _, coeffs, _ = zip(*steps)
    sign = math.copysign(1.0, T)
    step = np.searchsorted(sign * np.array(starts), sign * times, side="right") - 1
    tau = (times - np.array(starts)[step])[:, None]
    coeffs = np.array(coeffs)
    states = coeffs[step, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):
        states = states * tau + coeffs[step, k]
    return times, states


#: Exponents of every branch of the recurrence: n = 1, the Cauchy products
#: (n = 2 and 3 build no power) and Miller's rule.
RECURRENCE_EXPONENTS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -2.0, -1.0, 2.5]


@pytest.mark.parametrize("n", RECURRENCE_EXPONENTS)
@pytest.mark.parametrize("shape", [(4,), (2,), (2, 7), (4, 3)])
@pytest.mark.parametrize("order", [20, 28])
@pytest.mark.parametrize("mass", [1.0, 1.3])
def test_the_recurrence_plan_equals_the_per_order_oracle(n, shape, order, mass):
    # one plan, filled from two states: each fill overwrites the last
    rng = np.random.default_rng(order)
    pot = MonomialPotential(1.7, n)
    fill = _recurrence(pot, np.empty(shape), order, mass)
    for _ in range(2):
        y = rng.uniform(-1.0, 1.0, shape)
        y[0] = rng.uniform(0.5, 2.0, shape[1:])  # q > 0 lies in every domain
        assert np.array_equal(fill(y), reference_coefficients(pot, y, order, mass))


@pytest.mark.parametrize("n", RECURRENCE_EXPONENTS)
@pytest.mark.parametrize("y0", [(1.2, 0.6, 0.3, -0.2), (1.2, 0.6),
                                [[1.2, 0.8, 1.5], [0.6, 0.9, 0.7]]],
                         ids=["extended", "classical", "lanes"])
def test_every_kept_step_equals_the_per_order_oracle(n, y0):
    # each step yields its own copy of the run's buffer, so the steps a
    # caller keeps still hold their coefficients when the run is over
    pot, y0, mass = MonomialPotential(1.0, n), np.array(y0), 1.3
    steps = list(taylor_steps(pot, y0, 0.5, mass))
    order = ORDER if y0.ndim == 1 else BATCH_ORDER
    for (_, _, c, _), y in zip(steps, [y0] + [y for *_, y in steps]):
        assert np.array_equal(c, reference_coefficients(pot, y, order, mass))


def test_a_short_horizon_on_a_long_orbit_equals_the_full_stack_oracle():
    # the sampler stacks only the steps up to its last sample; the oracle
    # stacks all of them
    g, ic = FIXTURES[4.0]
    pot = MonomialPotential(g, 4.0)
    period = characteristic_time(pot, ExtendedPoint(*ic))
    steps = list(taylor_steps(pot, ic, 20 * period))
    T = 1.3 * period
    assert T < steps[len(steps) // 10][0]  # the horizon reads a short prefix
    times, states = sample_steps(pot, steps, T, T / 2000)
    want_times, want = reference_samples(steps, T, T / 2000)
    assert np.array_equal(times, want_times) and np.array_equal(states, want)


@pytest.mark.parametrize("n", [4.0, -2.0, 1.0])
def test_samples_equal_the_per_sample_horner_oracle(n):
    g, ic = FIXTURES[n]
    pot = MonomialPotential(g, n)
    T = 1.3 * characteristic_time(pot, ExtendedPoint(*ic))
    steps = list(taylor_steps(pot, ic, T))
    times, states = sample_steps(pot, steps, T, T / 2000)
    want_times, want = reference_samples(steps, T, T / 2000)
    assert np.array_equal(times, want_times) and np.array_equal(states, want)
    # one fresh (sample, row) array, not a view of the gathered coefficients
    assert states.shape == (2001, 4) and states.flags.c_contiguous and states.base is None


@pytest.mark.parametrize("n", [-2.0, 2.5])
def test_start_inside_the_guard_radius_is_a_domain_error(n):
    # V is singular at (n = -2) or undefined beyond (n = 2.5) the origin;
    # both entry points refuse a start the guard would abort on
    pot = MonomialPotential(1.0, n)
    for q0 in (0.5 * RMIN, 1e-9):
        with pytest.raises(DomainError):
            integrate(ExtendedPoint(q0, 3.0, 0.0, 0.0), pot, 0.1, 0.01)
        with pytest.raises(DomainError):
            flow_map_batch([1.0, q0], [0.0, 3.0], pot, 0.1)


@pytest.mark.parametrize("n", [MAX_INTEGER_N + 1.0, 1e9])
def test_an_integer_exponent_above_the_bound_is_refused_before_any_step(n):
    # the Cauchy products build n - 3 powers on every step
    with pytest.raises(ValueError, match=re.escape(f"not n={n!r}")):
        next(taylor_steps(MonomialPotential(1.0, n), (1.0, 0.0), 1.0))


@pytest.mark.parametrize("n", [float(MAX_INTEGER_N), 1e9 + 0.5])
def test_the_bound_and_a_huge_real_exponent_still_step(n):
    # the bound itself is taken, and a non-integer exponent goes through
    # Miller's rule, whose cost does not grow with n
    t, h, c, y = next(taylor_steps(MonomialPotential(1.0, n), (1.0, 0.0), 1e-3))
    assert np.isfinite(y).all()


def test_zero_time_batch_checks_its_start_and_returns_its_input():
    # no step is taken at t = 0, but the start guard still runs
    with pytest.raises(DomainError):
        flow_map_batch([5e-7, -1.0], [3.0, 0.0], MonomialPotential(1.0, -2.0), 0.0)
    rng = np.random.default_rng(5)
    qs = rng.uniform(-2.0, 2.0, BLOCK + 5)
    ps = rng.uniform(-2.0, 2.0, BLOCK + 5)
    q0, p0 = flow_map_batch(qs, ps, QUARTIC, 0.0)
    assert q0.tobytes() == qs.tobytes() and p0.tobytes() == ps.tobytes()


def oracle(pot, y0, times):
    """The (q, p, lq, lp) flow at ``times`` by scipy's DOP853 at 1e-13, an
    integrator independent of the library's Taylor kernel."""
    g, n = pot.g, pot.n

    def rhs(t, y):
        q, p, lq, lp = y
        return [p, -g * q ** (n - 1.0), lp * g * (n - 1.0) * q ** (n - 2.0), -lq]

    sol = solve_ivp(rhs, (0.0, times[-1]), y0, method="DOP853", rtol=1e-13, atol=1e-13,
                    t_eval=times)
    assert sol.success
    return sol.y.T


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


@pytest.mark.parametrize("dt", [-0.1, 0.0, math.nan])
def test_sample_spacing_must_be_positive(dt):
    with pytest.raises(ValueError, match="dt"):
        sample_times(1.0, dt)
    with pytest.raises(ValueError, match="dt"):
        integrate(ExtendedPoint(1.0, 0.0, 0.0, 0.0), QUARTIC, 1.0, dt)


#: Calls every public route into the Taylor kernel with each non-finite
#: horizon and prints, as JSON, what each raised.
NON_FINITE_HORIZON = """
import json
from kvnlab import qgrid
from kvnlab.core import ExtendedPoint, MonomialPotential
from kvnlab.dynamics import flow_map_batch, integrate, sample_times

pot = MonomialPotential(1.0, 4.0)
axis = qgrid.GridAxis(0.0, 4.0, 16)
state = qgrid.make_separable(qgrid.gaussian_profile(0.0, 1.0), qgrid.gaussian_profile(0.0, 1.0),
                             axis, axis, rep=qgrid.REP_QP, hbar=1.0)
calls = {
    "sample_times": lambda T: sample_times(T, 0.1),
    "integrate": lambda T: integrate(ExtendedPoint(1.0, 0.0, 0.0, 0.0), pot, T),
    "flow_map_batch": lambda T: flow_map_batch([1.0], [0.0], pot, T),
    "evolve_liouville": lambda T: qgrid.evolve_liouville(state, pot, T),
}
raised = {}
for T in (float("nan"), float("inf"), float("-inf")):
    for name, call in calls.items():
        try:
            call(T)
            raised[f"{name}({T})"] = None
        except Exception as exc:
            raised[f"{name}({T})"] = [type(exc).__name__, str(exc)]
print(json.dumps(raised))
"""


def test_non_finite_horizon_is_refused(run_python):
    # the kernel once stepped forever toward a NaN or infinite horizon, so
    # the calls run in a child process that the timeout stops
    proc = run_python("-c", NON_FINITE_HORIZON, timeout=10)
    assert proc.returncode == 0, proc.stderr
    raised = json.loads(proc.stdout.splitlines()[-1])
    assert len(raised) == 12
    for call, got in raised.items():
        assert got is not None and got[0] == "ValueError", (call, got)
        assert "horizon T must be finite" in got[1], (call, got)


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

    def test_negative_horizon_matches_the_oracle(self):
        x0 = ExtendedPoint(1.0, 0.3, 0.1, 0.2)
        traj = integrate(x0, QUARTIC, -3.0, 0.01)
        assert traj.times[0] == 0.0 and traj.times[-1] == -3.0
        assert np.all(np.diff(traj.times) < 0)
        want = oracle(QUARTIC, x0.as_array(), traj.times)
        assert np.max(np.abs(traj.states - want)) < 1e-10

    @pytest.mark.parametrize("t", [0.3, -0.8, 2.5])
    def test_one_interval_call_ends_where_a_sampled_one_does(self, t):
        # the call _ext_flow makes: one interval, the samples 0 and t
        x0 = ExtendedPoint(1.0, 0.3, 0.1, 0.2)
        one = integrate(x0, QUARTIC, t, abs(t))
        assert list(one.times) == [0.0, t]
        assert one.initial == x0
        sampled = integrate(x0, QUARTIC, t, 0.01).final.as_array()
        assert np.max(np.abs(one.final.as_array() - sampled)) < 1e-14

    @pytest.mark.parametrize("n", sorted(FIXTURES))
    def test_fixture_orbits_agree_with_the_oracle(self, n):
        g, ic = FIXTURES[n]
        pot, x0 = MonomialPotential(g, n), ExtendedPoint(*ic)
        T = 2.0 * characteristic_time(pot, x0)
        traj = integrate(x0, pot, T, T / 400)
        want = oracle(pot, x0.as_array(), traj.times)
        assert np.max(np.abs(traj.states - want)) < 1e-8

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

    @pytest.mark.parametrize("n", [-2.0, 2.5])
    def test_fall_into_a_singular_origin_aborts(self, n):
        # the force pulls q to 0, where V is singular (n = -2) or undefined
        # beyond (n = 2.5); the steps shrink with the distance to it
        pot = MonomialPotential(1.0, n)
        x0 = ExtendedPoint(1.0, -0.3, 0.3, -0.2)
        with pytest.raises(SingularityAbort):
            integrate(x0, pot, 10.0)
        with pytest.raises(SingularityAbort):
            flow_map_batch([2.0, 1.0], [0.0, -0.3], pot, 10.0)
        # the period probe stops at the guard instead
        assert 0.0 < characteristic_time(pot, x0) < 100.0

    def test_blow_up_is_a_step_failure(self):
        # the inverted quartic sends q to infinity in finite time
        with pytest.raises(StepFailure):
            integrate(ExtendedPoint(1.0, 0.05, 0.3, -0.2), MonomialPotential(-1.0, 4.0), 10.0)

    @pytest.mark.parametrize("n", [4.0, -2.0, 1.0])
    def test_resumed_run_is_one_longer_run(self, n):
        # a step depends on its start alone, apart from the last, which is
        # clipped at the horizon; n = 1 has a polynomial solution, one step
        g, ic = FIXTURES[n]
        pot = MonomialPotential(g, n)
        short = list(taylor_steps(pot, ic, 3.0))
        t, _, c, _ = short[-1]
        resumed = short[:-1] + list(taylor_steps(pot, c[0], 7.0, t=t))
        whole = list(taylor_steps(pot, ic, 7.0))
        if n == 1.0:
            assert len(whole) == 1
        else:
            assert len(short) > 1
        assert len(resumed) == len(whole)
        for (t1, _, c1, _), (t2, _, c2, _) in zip(resumed, whole):
            assert t1 == t2 and np.array_equal(c1, c2)

    def test_trajectory_accessors(self):
        x0 = ExtendedPoint(1.0, 0.0, 0.3, -0.2)
        traj = integrate(x0, HARMONIC, 1.0)
        assert len(traj) == len(traj.times)
        assert np.allclose(traj.initial.as_array(), x0.as_array())


class TestInverseSquareClosedForm:
    """At n = -2, g = 1, d(qp)/dt = p^2 + q F = 2E, so the orbit obeys
    q(t)^2 = q0^2 + 2 q0 p0 t + 2E t^2 exactly: an oracle for the kernel
    that shares nothing with it."""

    POT = MonomialPotential(1.0, -2.0)

    def closed_form(self, q0, p0):
        return q0 * p0, 0.5 * p0**2 + self.POT.value(q0)

    def test_escaping_orbit_is_the_closed_form(self):
        # the suites' n = -2 fixture orbit
        q0, p0 = 1.0, 1.2
        traj = integrate(ExtendedPoint(q0, p0, 0.3, -0.2), self.POT, 40.0)
        t, q, p = traj.times, traj.states[:, 0], traj.states[:, 1]
        qp0, e = self.closed_form(q0, p0)
        q2 = q0**2 + 2.0 * qp0 * t + 2.0 * e * t**2
        assert np.max(np.abs(q**2 - q2) / q2) < 1e-14
        assert np.max(np.abs(q * p - (qp0 + 2.0 * e * t))) < 1e-13

    # the falling orbits reach RMIN at about 0.4545454545450 and 10
    @pytest.mark.parametrize("q0,p0", [(1.0, -1.2), (2.0, 0.3)])
    def test_falling_orbit_aborts_at_the_closed_form_time(self, q0, p0):
        qp0, e = self.closed_form(q0, p0)
        # the first root of q0^2 + 2 qp0 t + 2E t^2 = RMIN^2; E < 0 here
        a, b, c = 2.0 * e, 2.0 * qp0, q0**2 - RMIN**2
        fall = (-b - math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        with pytest.raises(SingularityAbort) as info:
            for _ in taylor_steps(self.POT, (q0, p0), 20.0):
                pass
        aborted = float(re.search(r"near t=(\S+)", str(info.value)).group(1))
        assert abs(aborted - fall) < 1e-9


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
        qa, pa = flow_map_batch(*flow_map_batch([1.0], [0.3], QUARTIC, 0.4), QUARTIC, 0.6)
        qb, pb = flow_map_batch([1.0], [0.3], QUARTIC, 1.0)
        assert qa[0] == pytest.approx(qb[0], abs=1e-10)
        assert pa[0] == pytest.approx(pb[0], abs=1e-10)

    def test_batch_matches_single(self):
        qs = np.array([0.8, 1.0, 1.2])
        ps = np.array([-0.2, 0.0, 0.4])
        q1, p1 = flow_map_batch(qs, ps, QUARTIC, 0.7)
        for i in range(3):
            q, p = flow_map_batch([qs[i]], [ps[i]], QUARTIC, 0.7)
            assert q1[i] == pytest.approx(q[0], abs=1e-10)
            assert p1[i] == pytest.approx(p[0], abs=1e-10)

    def test_batch_pull_back_spans_blocks(self):
        # evolve_liouville pulls every grid node back by -t; the lanes of
        # each block share a step, so each block must land on the oracle
        rng = np.random.default_rng(3)
        qs = rng.uniform(-2.0, 2.0, BLOCK + 5)
        ps = rng.uniform(-2.0, 2.0, BLOCK + 5)
        q0, p0 = flow_map_batch(qs, ps, QUARTIC, -0.25)
        for i in (0, BLOCK - 1, BLOCK, BLOCK + 4):
            want = oracle(QUARTIC, [qs[i], ps[i], 0.0, 0.0], [0.0, -0.25])[-1]
            assert abs(q0[i] - want[0]) < 1e-12 and abs(p0[i] - want[1]) < 1e-12
        qf, pf = flow_map_batch(q0, p0, QUARTIC, 0.25)
        assert np.max(np.abs(qf - qs)) < 1e-12
        assert np.max(np.abs(pf - ps)) < 1e-12

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

    @pytest.mark.parametrize("g,n", [(1.0, 4.0), (2.5, 4.0), (1.0, 6.0), (0.5, 6.0)])
    @pytest.mark.parametrize("q0,p0", [(1.0, 0.0), (0.3, 0.8)])
    def test_period_matches_the_closed_form(self, g, n, q0, p0):
        # T = 4a / sqrt(2E) * B(1/n, 1/2) / n, with the turning point a
        # where V(a) = E; the turning points are sign changes of p
        E = 0.5 * p0**2 + g * q0**n / n
        a = (n * E / g) ** (1.0 / n)
        beta = math.gamma(1.0 / n) * math.gamma(0.5) / math.gamma(1.0 / n + 0.5)
        period = 4.0 * a / math.sqrt(2.0 * E) * beta / n
        est = characteristic_time(MonomialPotential(g, n), ExtendedPoint(q0, p0, 0.3, -0.2))
        assert est == pytest.approx(period, rel=1e-12)

    def test_escape_without_turning_gives_the_escape_time(self):
        # the inverted oscillator q = A e^t + B e^-t leaves |q| < 2000 and
        # never turns
        x0 = ExtendedPoint(1.0, 0.05, 0.3, -0.2)
        A, B = (x0.q + x0.p) / 2.0, (x0.q - x0.p) / 2.0
        bound = 1e3 * (1.0 + x0.q)
        escape = math.log((bound + math.sqrt(bound**2 - 4.0 * A * B)) / (2.0 * A))
        got = characteristic_time(MonomialPotential(-1.0, 2.0), x0)
        assert got == pytest.approx(escape, rel=1e-12)

    def test_a_probe_step_clipped_at_its_horizon_is_still_scanned(self):
        # V = g q is integrated exactly: the probe's one step is the whole
        # polynomial, clipped at t = 20, and p = p0 - g t turns at p0/g
        x0 = ExtendedPoint(1.0, 1.0, 0.3, -0.2)
        est = characteristic_time(MonomialPotential(2.5, 1.0), x0)
        assert est == pytest.approx(2.0 * x0.p / 2.5, rel=1e-12)

    def test_escaping_orbit_gets_finite_scale(self):
        pot = MonomialPotential(1.0, -2.0)
        x0 = ExtendedPoint(1.0, 1.2, 0.3, -0.2)
        t = characteristic_time(pot, x0)
        assert 0.0 < t < 100.0
