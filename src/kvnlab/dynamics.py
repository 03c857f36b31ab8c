"""Trajectory integration on the 4-dimensional extended phase space.

The generator of motion couples the auxiliary pair to the classical one:

    dq/dt  = p
    dp/dt  = -V'(q)
    dlq/dt = lp * V''(q)
    dlp/dt = -lq

so the (q, p) block is ordinary Newtonian motion for unit mass while the
(lq, lp) block is transported by the (negative transpose) linearized flow.

Every trajectory in the package, here and in :mod:`kvnlab.semiclassics`,
is integrated by one Taylor-series kernel, :func:`taylor_steps`. For
V = g q^n / n the Taylor coefficients of the solution follow from a
recurrence: Cauchy products give the powers of q for integer n >= 1, and
J.C.P. Miller's power rule gives them for every other n, where the domain
q > 0 keeps q_0 away from zero. Each step's size comes from the last two
coefficients (Jorba & Zou, Exp. Math. 14 (2005) 99), and the step's own
polynomial gives the output samples and locates events, so samples cost no
extra steps. A run builds its recurrence plan once: one coefficient buffer
and every view of it that an order reads or writes, so no order slices an
array. The sampler gathers the coefficients of every sample's step once,
laid out as (order, row, sample), and runs Horner's rule along the
samples. The kernel holds the one domain guard: where V is defined on
q > 0 only, a start below RMIN raises DomainError, and a position below
RMIN at a step end or a sample raises SingularityAbort. A step size that
collapses to roundoff, or a series that overflows, is a finite-time
blow-up and raises StepFailure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ExtendedPoint, MonomialPotential, _is_positive_integer
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
#: Largest integer exponent the kernel takes: its Cauchy products build
#: q^2 .. q^(n-2) on every step, so a step costs in proportion to n, and
#: past 1024 the power q^n overflows a double already at |q| = 2.
MAX_INTEGER_N = 1024


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


def _guarded(pot: MonomialPotential) -> bool:
    """Whether V lives on q > 0 only, so that positions must stay above RMIN."""
    return not pot.admissible(-1.0)


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


def _recurrence(pot: MonomialPotential, y, order: int, mass: float):
    """One run's recurrence plan: a coefficient buffer c for states shaped
    like y, and every view of it that the recurrence reads or writes, built
    once. Returns fill(y), which writes the Taylor coefficients c[k] of the
    solution through y into c, c[0] = y, and returns c; the next call
    overwrites them.

    y holds the rows q, p and, with four rows, lq, lp; a trailing axis
    holds lanes. The system is dq/dt = p / mass, dp/dt = -mass V'(q), and
    the auxiliary pair as in the module docstring. With u = q^(n-2), the
    rows (q, lp) move by (p / mass, -lq) and the rows (p, lq) by
    (-mass g, g (n-1)) times (q, lp) u, so one sum per order gives both."""
    g, n = pot.g, pot.n
    c = np.empty((order + 1,) + y.shape)
    q, pair = c[:, 0], len(y) // 2
    lanes = (1,) * (y.ndim - 1)
    per_order = np.arange(1.0, order + 1).reshape((order, 1) + lanes)
    drift = np.array([1.0 / mass, -1.0])[:pair].reshape((pair,) + lanes) / per_order
    kick = np.array([-mass * g, g * (n - 1.0)])[:pair].reshape((pair,) + lanes) / per_order
    # order k writes row k + 1: (q, lp) from (p, lq) of row k, (p, lq) from the sum
    moves = [(c[k, 1:3], drift[k], c[k + 1, ::3], kick[k], c[k + 1, 1:3]) for k in range(order)]
    if n == 1.0:
        # V' = g is constant and V'' = 0: (q, lp) u is 1, 0, 0, ...
        unit = np.zeros((order,) + c[0, ::3].shape)
        unit[0] = 1.0

        def fill(y):
            c[0] = y
            for (src, d, dst, kk, out), forced in zip(moves, unit):
                np.multiply(src, d, out=dst)
                np.multiply(forced, kk, out=out)
            return c

        return fill
    # sums over the first axis of a * b: the coefficient sums of the recurrence;
    # the method is np.dot without its dispatch
    dot = np.ndarray.dot if y.ndim == 1 else _lane_dot
    integral = _is_positive_integer(n)
    if integral:
        # powers[j] = q^j by Cauchy products, up to u = q^(n-2); q^0 = 1
        powers = [np.zeros_like(q), q] + [np.empty_like(q) for _ in range(int(n) - 3)]
        powers[0][0] = 1.0
        u = powers[int(n) - 2]
        rules = [[(powers[j], q[:k + 1], powers[j - 1][k::-1]) for j in range(2, len(powers))]
                 for k in range(order)]
    else:
        # Miller's rule: u[k] = sum_j w_kj q[j] u[k-j] / q[0], u[0] = q[0]^(n-2)
        u = np.empty_like(q)
        weights = _miller_weights(n, order)
        terms = np.empty_like(q)
        rules = [None] + [(weights[k - 1, :k], q[1:k + 1], u[k - 1::-1], terms[:k])
                          for k in range(1, order)]
    plan = [(k, rules[k], u[k::-1], c[:k + 1, ::3]) + moves[k] for k in range(order)]

    def fill(y):
        c[0] = y
        q0 = q[0]
        if not integral:
            u[0] = q0 ** (n - 2.0)
        for k, rule, ur, head, src, d, dst, kk, out in plan:
            if integral:
                for power, a, b in rule:
                    power[k] = dot(a, b)
            elif k:
                w, qk, uk, tk = rule
                u[k] = w.dot(np.multiply(qk, uk, out=tk)) / q0
            forced = dot(ur, head)
            np.multiply(src, d, out=dst)
            np.multiply(forced, kk, out=out)
        return c

    return fill


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


def taylor_steps(pot: MonomialPotential, y0, T: float, mass: float = 1.0, t: float = 0.0):
    """Advance y0 from time t to T (either direction), one Taylor step at a time.

    Yields (t, h, c, y) per step: its start, its signed size, its
    coefficients and the state at its end. The run builds one recurrence
    plan, a coefficient buffer with every view the recurrence reads or
    writes, and fills it once per step; each step yields its own copy of
    the buffer, so the steps a caller keeps stay valid. Only the last step
    depends on T, which it ends at exactly, so a run resumed from the start
    (t, c[0]) of its last step, with that t, yields the steps of one longer
    run. All lanes of y0 share every step, of order BATCH_ORDER when y0 has
    a lane axis and ORDER otherwise. Raises DomainError for a start outside
    the domain or, where the potential is guarded, below RMIN,
    SingularityAbort when a position of a guarded potential ends a step
    below RMIN, and when the step size falls to roundoff (or the series
    stops being finite) raises SingularityAbort if the steepest lane moves
    toward a singular origin, else StepFailure. A non-finite T raises
    ValueError: the loop would never reach it, and so does an integer
    exponent above MAX_INTEGER_N."""
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T!r}")
    if _is_positive_integer(pot.n) and pot.n > MAX_INTEGER_N:
        raise ValueError(f"the kernel takes integer exponents up to {MAX_INTEGER_N}, "
                         f"not n={pot.n!r}")
    y = np.array(y0, dtype=float)
    guarded = _guarded(pot)
    order = BATCH_ORDER if y.ndim > 1 else ORDER
    if not np.all(pot.admissible(y[0])) or (guarded and np.min(y[0]) < RMIN):
        raise DomainError(f"initial q={float(np.min(y[0]))!r} outside the potential "
                          f"domain or guard radius {RMIN!r}")
    fill = _recurrence(pot, y, order, mass)
    while t != T:
        with np.errstate(over="ignore", invalid="ignore"):
            c = fill(y)
        sizes = _step_sizes(c)
        lane = int(np.argmin(sizes))
        h = math.copysign(min(float(sizes[lane]), abs(T - t)), T - t)
        last = abs(h) == abs(T - t)
        if not last and abs(h) <= 10.0 * math.ulp(t):
            # the series' radius collapsed: the orbit falls into a singular
            # origin, or leaves every bound, in finite time
            if guarded and np.atleast_1d(y[1])[lane] * (T - t) < 0.0:
                raise SingularityAbort(f"trajectory fell into the singular origin near t={t!r}")
            raise StepFailure(f"step size fell to {abs(h):.3g} at t={t!r}: the orbit "
                              "leaves every bound in finite time")
        y = _poly(c, h)
        if guarded and np.min(y[0]) < RMIN:
            raise SingularityAbort(f"trajectory entered the guard radius near t={t + h!r}")
        yield t, h, c.copy(), y
        t = T if last else t + h


def sample_steps(pot: MonomialPotential, steps, T: float, dt: float):
    """Sample a taylor_steps run from t = 0 to T, or beyond (only its last
    step depends on its end), on the grid sample_times(T, dt). Returns the
    times and the states there, a fresh (sample, row) array, evaluated on
    the polynomial of the step that holds each sample. The coefficients of
    each sample's step are gathered once, as (order, row, sample), and
    Horner's rule runs on them in place along the samples."""
    if T == 0:
        raise ValueError("horizon T must be nonzero")
    times = sample_times(T, dt)
    starts, _, coeffs, _ = zip(*steps)
    sign = math.copysign(1.0, T)
    step = np.searchsorted(sign * np.array(starts), sign * times, side="right") - 1
    tau = times - np.array(starts)[step]
    # each sample's step coefficients, stacked up to the last sample's step
    # only, as (order, row, sample): Horner's rule runs along the samples
    coeffs = np.take(np.array(coeffs[: step[-1] + 1]).transpose(1, 2, 0), step, axis=-1)
    states = coeffs[-1]
    for c in coeffs[-2::-1]:
        states *= tau
        states += c
    if _guarded(pot) and states[0].min() < RMIN:
        raise SingularityAbort("trajectory entered the guard radius between step ends")
    return times, states.T.copy()


def sample_times(T: float, dt: float) -> np.ndarray:
    """Uniform output grid from 0 to T inclusive with spacing about dt.

    The grid has ceil(|T|/dt) intervals, and a dt that divides T up to
    roundoff gives exactly T/dt of them: T/(T/N) may round to N + 2e-16,
    which must not buy a stray sample."""
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T!r}")
    if not dt > 0:
        raise ValueError(f"sample spacing dt must be positive, got {dt!r}")
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
    times, states = sample_steps(pot, taylor_steps(pot, x0.as_array(), T), T, dt)
    return ExtendedTrajectory(times=times, states=states)


def flow_map_batch(qs, ps, pot: MonomialPotential, t: float):
    """Vectorized classical flow for arrays of initial (q, p) pairs.

    The characteristics advance in blocks of BLOCK lanes; the lanes of a
    block share every step and the domain guard. At t = 0 no step is
    taken, but the start is still checked."""
    qs = np.asarray(qs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    out = np.stack([qs, ps])
    for lo in range(0, qs.size, BLOCK):
        block = y = out[:, lo:lo + BLOCK]
        for *_, y in taylor_steps(pot, block, t):
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
    return _probe(pot, x0)[0]


def _probe(pot: MonomialPotential, x0: ExtendedPoint):
    """characteristic_time's estimate and every step it scanned, as
    taylor_steps yielded them. Only the last one depends on where the probe
    stopped, a step clipped at its horizon included, so a run resumed from
    that step's start extends them to any horizon, bit for bit."""
    if pot.n == 2.0 and pot.g > 0:
        return 2.0 * math.pi / math.sqrt(pot.g), []
    bound = 1e3 * (1.0 + abs(x0.q))
    hits, steps = [], []
    try:
        for t, h, c, y in taylor_steps(pot, x0.as_array(), 20.0):
            steps.append((t, h, c, y))
            if c[0, 1] * y[1] < 0.0 or (y[1] == 0.0 and c[0, 1] != 0.0):
                hits.append(t + _root(c[:, 1], h))
                if len(hits) == 2:
                    return 2.0 * (hits[1] - hits[0]), steps
            if abs(y[0]) >= bound:
                if hits:
                    break
                shifted = c[:, 0].copy()
                shifted[0] -= math.copysign(bound, y[0])
                return t + _root(shifted, h), steps
    except SingularityAbort:
        pass
    if hits:
        return 2.0 * hits[0], steps
    if x0.p != 0:
        return 2.0 * abs(x0.q / x0.p), steps
    return 1.0, steps
