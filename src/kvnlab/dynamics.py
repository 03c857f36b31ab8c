"""Trajectory integration on the 4-dimensional extended phase space.

The generator of motion couples the auxiliary pair to the classical one:

    dq/dt  = p
    dp/dt  = -V'(q)
    dlq/dt = lp * V''(q)
    dlp/dt = -lq

so the (q, p) block is ordinary Newtonian motion for unit mass while the
(lq, lp) block is transported by the (negative transpose) linearized flow.

Every trajectory in the package, here and in :mod:`kvnlab.semiclassics`,
is integrated by one Taylor-series kernel, :func:`_taylor_steps`. For
V = g q^n / n the Taylor coefficients of the solution follow from a
recurrence: Cauchy products give the powers of q for integer n >= 1, and
J.C.P. Miller's power rule gives them for every other n, where the domain
q > 0 keeps q_0 away from zero. Each step's size comes from the last two
coefficients (Jorba & Zou, Exp. Math. 14 (2005) 99), and the step's own
polynomial gives the output samples and locates events, so samples cost no
extra steps. The kernel holds the one domain guard: where V is defined on
q > 0 only, a position below RMIN at a step end or a sample raises
SingularityAbort. A step size that collapses to roundoff, or a series that
overflows, is a finite-time blow-up and raises StepFailure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ExtendedPoint, MonomialPotential, PhasePoint, _is_positive_integer
from .errors import DomainError, SingularityAbort, StepFailure

#: Truncation target of a step: the last two Taylor terms stay below
#: TOL * max(1, |state|).
TOL = 1e-16
#: Polynomial order of a single trajectory's steps. Its cost is numpy's
#: per-call overhead, about the same for every order, so a high order that
#: buys long steps is cheapest.
ORDER = 28
#: Polynomial order of a batch's steps: with thousands of lanes the
#: arithmetic dominates, which Jorba & Zou's optimum ceil(1 - ln(TOL)/2)
#: minimises.
BATCH_ORDER = 20
#: Lanes of a batch that share one step: the steepest lane of a block sets
#: its step, so smaller blocks spend fewer steps on gentle lanes, and
#: larger ones less per-step overhead.
BLOCK = 4096
#: Guard radius: where V is defined on q > 0 only, positions stay above it.
RMIN = 1e-6


@dataclass(frozen=True)
class ExtendedTrajectory:
    """Uniformly sampled solution of the extended equations of motion."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.times)

    @property
    def initial(self) -> ExtendedPoint:
        return ExtendedPoint.from_array(self.states[0])

    @property
    def final(self) -> ExtendedPoint:
        return ExtendedPoint.from_array(self.states[-1])

    def point(self, i: int) -> ExtendedPoint:
        return ExtendedPoint.from_array(self.states[i])


def _guarded(pot: MonomialPotential) -> bool:
    """Whether V lives on q > 0 only, so that positions must stay above RMIN."""
    return not pot.admissible(-1.0)


def eom_rhs(x: ExtendedPoint, pot: MonomialPotential):
    """Right-hand side (dq, dp, dlq, dlp) at a single extended point."""
    if not pot.admissible(x.q) or (_guarded(pot) and x.q < RMIN):
        raise DomainError(f"q={x.q!r} outside the domain or guard radius {RMIN!r}")
    return np.array([x.p, -pot.force(x.q), x.lp * pot.curvature(x.q), -x.lq])


def energy(x, pot: MonomialPotential):
    """Classical energy p^2/2 + V(q) of the (q, p) block."""
    return 0.5 * x.p**2 + pot.value(x.q)


def _lane_dot(a, b):
    return np.einsum("il,i...l->...l", a, b)


@functools.lru_cache(maxsize=None)
def _miller_weights(n: float, order: int) -> np.ndarray:
    """Row k - 1 holds ((n-1) j - k) / k for j = 1..k: the weights of
    Miller's rule u_k = sum_j w_kj q_j u_(k-j) / q_0 for u = q^(n-2)."""
    k = np.arange(1, order)[:, None]
    return ((n - 1.0) * np.arange(1, order) - k) / k


def _coefficients(pot: MonomialPotential, y, order: int, mass: float):
    """Taylor coefficients c[k] of the solution through y, c[0] = y.

    y holds the rows q, p and, with four rows, lq, lp; a trailing axis
    holds lanes. The system is dq/dt = p / mass, dp/dt = -mass V'(q), and
    the auxiliary pair as in the module docstring. With u = q^(n-2), the
    rows (q, lp) move by (p / mass, -lq) and the rows (p, lq) by
    (-mass g, g (n-1)) times (q, lp) u, so one sum per order gives both."""
    g, n = pot.g, pot.n
    c = np.empty((order + 1,) + y.shape)
    c[0] = y
    q, pair = c[:, 0], len(y) // 2
    lanes = (1,) * (y.ndim - 1)
    per_order = np.arange(1.0, order + 1).reshape((order, 1) + lanes)
    drift = np.array([1.0 / mass, -1.0])[:pair].reshape((pair,) + lanes) / per_order
    kick = np.array([-mass * g, g * (n - 1.0)])[:pair].reshape((pair,) + lanes) / per_order
    # sums over the first axis of a * b: the coefficient sums of the recurrence
    dot = np.dot if y.ndim == 1 else _lane_dot
    integral = _is_positive_integer(n)
    if n == 1.0:
        # V' = g is constant and V'' = 0: (q, lp) u is 1, 0, 0, ...
        unit = np.zeros((order,) + c[0, ::3].shape)
        unit[0] = 1.0
    elif integral:
        # powers[j] = q^j by Cauchy products, up to u = q^(n-2); q^0 = 1
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


def _step_sizes(c):
    """Largest step, per lane, whose last two Taylor terms stay below the
    target in every component: inf where they vanish, as for a polynomial
    solution, and 0 where the series is not finite."""
    k = len(c) - 1
    scale = TOL * np.maximum(1.0, np.abs(c[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.minimum((scale / np.abs(c[k - 1])) ** (1.0 / (k - 1)),
                       (scale / np.abs(c[k])) ** (1.0 / k)).min(axis=0)
    return np.atleast_1d(np.where(np.isfinite(c).all(axis=(0, 1)), h, 0.0))


def _poly(c, tau):
    """The step polynomial sum_k c[k] tau^k, for a scalar tau.

    The increment over c[0] is summed apart, so c[0] is rounded once."""
    rest = c[1:].reshape(len(c) - 1, -1)
    return c[0] + np.dot(tau ** np.arange(1, len(c)), rest).reshape(c.shape[1:])


def _taylor_steps(pot: MonomialPotential, y0, T: float, order: int = ORDER,
                  mass: float = 1.0):
    """Advance y0 from t = 0 to T (either sign), one Taylor step at a time.

    Yields (t, h, c, y) per step: its start, its signed size, its
    coefficients and the state at its end, where the last step ends at T
    exactly. All lanes of y0 share every step. Raises DomainError for a
    start outside the domain, SingularityAbort when a position of a guarded
    potential ends a step below RMIN, and when the step size falls to
    roundoff (or the series stops being finite) raises SingularityAbort if
    the steepest lane moves toward a singular origin, else StepFailure."""
    y = np.array(y0, dtype=float)
    if not np.all(pot.admissible(y[0])):
        raise DomainError(f"initial q={float(np.min(y[0]))!r} outside the potential domain")
    guarded, t = _guarded(pot), 0.0
    while t != T:
        with np.errstate(over="ignore", invalid="ignore"):
            c = _coefficients(pot, y, order, mass)
        sizes = _step_sizes(c)
        lane = int(np.argmin(sizes))
        h = math.copysign(min(float(sizes[lane]), abs(T - t)), T)
        last = abs(h) == abs(T - t)
        if not last and abs(h) <= 10.0 * math.ulp(t):
            # the series' radius collapsed: the orbit falls into a singular
            # origin, or leaves every bound, in finite time
            if guarded and np.atleast_1d(y[1])[lane] * T < 0.0:
                raise SingularityAbort(f"trajectory fell into the singular origin near t={t!r}")
            raise StepFailure(f"step size fell to {abs(h):.3g} at t={t!r}: the orbit "
                              "leaves every bound in finite time")
        y = _poly(c, h)
        if guarded and np.min(y[0]) < RMIN:
            raise SingularityAbort(f"trajectory entered the guard radius near t={t + h!r}")
        yield t, h, c, y
        t = T if last else t + h


def sampled_flow(pot: MonomialPotential, y0, T: float, dt: float, mass: float = 1.0):
    """Integrate y0 = (q, p) or (q, p, lq, lp) over [0, T] (T may be negative).

    Returns the times sample_times(T, dt) and the states there, one row
    per sample, evaluated on the polynomial of the step that holds each
    sample. The system is dq/dt = p / mass, dp/dt = -mass V'(q) with the
    auxiliary pair as in the module docstring."""
    if T == 0:
        raise ValueError("horizon T must be nonzero")
    times = sample_times(T, dt)
    starts, coeffs = [], []
    for t, _, c, _ in _taylor_steps(pot, y0, T, mass=mass):
        starts.append(t)
        coeffs.append(c)
    sign = math.copysign(1.0, T)
    step = np.searchsorted(sign * np.array(starts), sign * times, side="right") - 1
    tau = (times - np.array(starts)[step])[:, None]
    # Horner's rule on every sample at once, one order at a time
    coeffs = np.array(coeffs)
    states = coeffs[step, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):
        states = states * tau + coeffs[step, k]
    if _guarded(pot) and states[:, 0].min() < RMIN:
        raise SingularityAbort("trajectory entered the guard radius between step ends")
    return times, states


def sample_times(T: float, dt: float) -> np.ndarray:
    """Uniform output grid from 0 to T inclusive with spacing about dt.

    The grid has ceil(|T|/dt) intervals, and a dt that divides T up to
    roundoff gives exactly T/dt of them: T/(T/N) may round to N + 2e-16,
    which must not buy a stray sample."""
    n = max(int(math.ceil(abs(T) / dt * (1.0 - 1e-12))), 1)
    return np.linspace(0.0, T, n + 1)


def integrate(
    x0: ExtendedPoint,
    pot: MonomialPotential,
    T: float,
    dt: float = 0.01,
) -> ExtendedTrajectory:
    """Integrate the extended system over [0, T] (T may be negative),
    sampled every dt on the uniform grid sample_times(T, dt)."""
    times, states = sampled_flow(pot, x0.as_array(), T, dt)
    return ExtendedTrajectory(times=times, states=states)


def flow_map(x0: PhasePoint, pot: MonomialPotential, t: float) -> PhasePoint:
    """Classical flow of (q, p) by time t; negative t runs backward."""
    if t == 0:
        return x0
    q, p = flow_map_batch([x0.q], [x0.p], pot, t)
    return PhasePoint(float(q[0]), float(p[0]))


def flow_map_batch(qs, ps, pot: MonomialPotential, t: float):
    """Vectorized classical flow for arrays of initial (q, p) pairs.

    The characteristics advance in blocks of BLOCK lanes; the lanes of a
    block share every step and the domain guard."""
    qs = np.asarray(qs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    out = np.stack([qs, ps])
    if t == 0:
        return out[0], out[1]
    for lo in range(0, qs.size, BLOCK):
        block = out[:, lo:lo + BLOCK]
        for *_, y in _taylor_steps(pot, block, t, order=BATCH_ORDER):
            pass
        block[:] = y
    return out[0], out[1]


def _root(c, h: float) -> float:
    """Zero of the step polynomial c between 0 and h, where it changes sign:
    Newton's method, kept inside the bracket by bisection."""
    dc = c[1:] * np.arange(1, len(c))
    lo, hi, f_lo = 0.0, h, c[0]
    tau = 0.5 * h
    for _ in range(100):
        f = _poly(c, tau)
        if f == 0.0:
            return tau
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = tau, f
        else:
            hi = tau
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = tau - f / _poly(dc, tau)
        if not min(lo, hi) < nxt < max(lo, hi):
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) <= 4.0 * math.ulp(nxt):
            return nxt
        tau = nxt
    return tau


def characteristic_time(pot: MonomialPotential, x0: ExtendedPoint) -> float:
    """Estimate a natural time scale for the orbit through x0.

    Harmonic wells have the closed-form period 2*pi/sqrt(g). Otherwise a
    probe run over 20 time units looks for turning points, sign changes
    of p between step ends located on the step polynomial: two consecutive
    ones span a half cycle, and a single one doubles the time to turning.
    The probe stops where |q| escapes past 1e3 (1 + |q0|), so finite-time
    blowup of steep monomials cannot stall it; an escape with no turning
    point gives the escape time. A monotone orbit that neither turns nor
    escapes (or that reaches the guard radius) falls back to the crossing
    scale |q0/p0|, doubled (1 when p0 = 0).
    """
    if pot.n == 2.0 and pot.g > 0:
        return 2.0 * math.pi / math.sqrt(pot.g)
    bound = 1e3 * (1.0 + abs(x0.q))
    hits = []
    try:
        for t, h, c, y in _taylor_steps(pot, x0.as_array(), 20.0):
            if c[0, 1] * y[1] < 0.0 or (y[1] == 0.0 and c[0, 1] != 0.0):
                hits.append(t + _root(c[:, 1], h))
                if len(hits) == 2:
                    return 2.0 * (hits[1] - hits[0])
            if abs(y[0]) >= bound:
                if hits:
                    break
                shifted = c[:, 0].copy()
                shifted[0] -= math.copysign(bound, y[0])
                return t + _root(shifted, h)
    except SingularityAbort:
        pass
    if hits:
        return 2.0 * hits[0]
    if x0.p != 0:
        return 2.0 * abs(x0.q / x0.p)
    return 1.0
