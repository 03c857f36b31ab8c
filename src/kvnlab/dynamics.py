"""Trajectory integration on the 4-dimensional extended phase space.

The generator of motion couples the auxiliary pair to the classical one:

    dq/dt  = p
    dp/dt  = -V'(q)
    dlq/dt = lp * V''(q)
    dlp/dt = -lq

so the (q, p) block is ordinary Newtonian motion for unit mass while the
(lq, lp) block is transported by the (negative transpose) linearized flow.
V' and V'' come from the potential's array-capable force law. Every
integration in the package, here and in :mod:`kvnlab.semiclassics`, goes
through :func:`guarded_solve`: one adaptive DOP853 run with local error
control and one domain guard. Trajectories are sampled on a uniform output
grid for downstream quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import ExtendedPoint, MonomialPotential, PhasePoint
from .errors import DomainError, SingularityAbort, StepFailure

_METHOD = "DOP853"
#: Relative and absolute local error target of every DOP853 run.
TOL = 1e-12
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


def eom_rhs(x: ExtendedPoint, pot: MonomialPotential):
    """Right-hand side (dq, dp, dlq, dlp) at a single extended point."""
    y = x.as_array()
    guard = _guard(pot)
    if not pot.admissible(x.q) or (guard is not None and guard(0.0, y) < 0.0):
        raise DomainError(f"q={x.q!r} outside the domain or guard radius {RMIN!r}")
    return np.array(_rhs_extended(pot)(0.0, y))


def energy(x, pot: MonomialPotential):
    """Classical energy p^2/2 + V(q) of the (q, p) block."""
    return 0.5 * x.p**2 + pot.value(x.q)


def _rhs_extended(pot):
    force, curvature = pot.force, pot.curvature

    def rhs(t, y):
        q, p, lq, lp = y
        return (p, -force(q), lp * curvature(q), -lq)

    return rhs


def _guard(pot, npos=1):
    """The one domain guard, as a terminal event on the smallest position.

    Where V is defined on q > 0 only, positions must stay above RMIN; where
    V is defined everywhere there is no guard and None is returned.
    """
    if pot.admissible(-1.0):
        return None

    def hit(t, y):
        return y[:npos].min() - RMIN

    hit.terminal = True
    hit.direction = -1
    return hit


def guarded_solve(rhs, y0, T, pot, t_eval=None, events=(), npos=1,
                  stop_at_guard=False):
    """Integrate rhs from y0 over [0, T] with DOP853 under the domain guard.

    The first ``npos`` state components are positions; they must start in
    the domain of ``pot``. A guard hit raises SingularityAbort unless
    ``stop_at_guard`` is set, in which case the run just ends there.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.all(pot.admissible(y0[:npos])):
        q0 = float(y0[:npos].min())
        raise DomainError(f"initial q={q0!r} outside the potential domain")
    guard = _guard(pot, npos)
    events = list(events) + ([guard] if guard is not None else [])
    sol = solve_ivp(
        rhs,
        (0.0, T),
        y0,
        method=_METHOD,
        rtol=TOL,
        atol=TOL,
        t_eval=t_eval,
        events=events or None,  # an empty list still costs a search per step
    )
    if not sol.success:
        raise StepFailure(sol.message)
    if guard is not None and sol.t_events[-1].size and not stop_at_guard:
        raise SingularityAbort("trajectory entered the guard radius")
    return sol


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
    if T == 0:
        raise ValueError("horizon T must be nonzero")
    sol = guarded_solve(
        _rhs_extended(pot), x0.as_array(), T, pot, t_eval=sample_times(T, dt)
    )
    return ExtendedTrajectory(times=sol.t, states=sol.y.T.copy())


def flow_map(x0: PhasePoint, pot: MonomialPotential, t: float) -> PhasePoint:
    """Classical flow of (q, p) by time t; negative t runs backward."""
    if t == 0:
        return x0
    q, p = flow_map_batch([x0.q], [x0.p], pot, t)
    return PhasePoint(float(q[0]), float(p[0]))


def flow_map_batch(qs, ps, pot: MonomialPotential, t: float):
    """Vectorized classical flow for arrays of initial (q, p) pairs.

    All characteristics are advanced as one stacked system, so the adaptive
    step and the domain guard (on the smallest q) are shared.
    """
    qs = np.asarray(qs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    if t == 0:
        return qs.copy(), ps.copy()
    m = qs.size

    def rhs(s, y):
        return np.concatenate([y[m:], -pot.force(y[:m])])

    sol = guarded_solve(rhs, np.concatenate([qs, ps]), t, pot, t_eval=[t], npos=m)
    out = sol.y[:, -1]
    return out[:m].copy(), out[m:].copy()


def characteristic_time(pot: MonomialPotential, x0: ExtendedPoint) -> float:
    """Estimate a natural time scale for the orbit through x0.

    Harmonic wells have the closed-form period 2*pi/sqrt(g). Otherwise a
    probe run over 20 time units detects p = 0 turning events: two
    consecutive events span a half cycle, a single event doubles the time
    to turning, and monotone escape falls back to the crossing scale
    |q0/p0| (1 when p0 = 0). The probe run carries
    an escape guard so finite-time blowup of steep monomials cannot stall
    the estimate.
    """
    if pot.n == 2.0 and pot.g > 0:
        return 2.0 * math.pi / math.sqrt(pot.g)

    def turning(t, y):
        return y[1]

    def escape(t, y):
        return abs(y[0]) - 1e3 * (1.0 + abs(x0.q))

    escape.terminal = True
    sol = guarded_solve(
        _rhs_extended(pot), x0.as_array(), 20.0, pot,
        events=[turning, escape], stop_at_guard=True,
    )
    hits = [t for t in sol.t_events[0] if t > 1e-9]
    if len(hits) >= 2:
        return 2.0 * (hits[1] - hits[0])
    if len(hits) == 1:
        return 2.0 * hits[0]
    if x0.p != 0:
        return 2.0 * abs(x0.q / x0.p)
    return 1.0
