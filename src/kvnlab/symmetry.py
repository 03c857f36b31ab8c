"""Finite and infinitesimal mechanical-similarity maps and action functionals.

For V(q) = g q^n / n the rescaling

    q -> alpha q,   p -> alpha^(n/2) p,   t -> alpha^(1-n/2) t,
    lq -> alpha^(-1) lq,   lp -> alpha^(-n/2) lp

sends solutions of the extended equations of motion to solutions. The
standard action picks up the factor alpha^(1+n/2) while the auxiliary-pair
action is invariant, and the canonical bracket on (q, p) rescales while the
extended bracket on (q, p, lq, lp) is preserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExtendedPoint, LmsParams, MonomialPotential
from .dynamics import ExtendedTrajectory
from .errors import DegenerateAction, HarmonicCaseError, InsufficientResolution, UndefinedError

MIN_SAMPLES = 101


def lms_map_point(x: ExtendedPoint, prm: LmsParams) -> ExtendedPoint:
    """Apply the finite similarity map to one extended point."""
    a = prm.alpha
    h = prm.n / 2.0
    return ExtendedPoint(
        q=a * x.q,
        p=a**h * x.p,
        lq=x.lq / a,
        lp=a**-h * x.lp,
    )


def _scales(prm: LmsParams) -> np.ndarray:
    """Factors (alpha, alpha^(n/2), 1/alpha, alpha^(-n/2)) of (q, p, lq, lp)."""
    a, h = prm.alpha, prm.n / 2.0
    return np.array([a, a**h, 1.0 / a, a**-h])


def lms_map_trajectory(traj: ExtendedTrajectory, prm: LmsParams) -> ExtendedTrajectory:
    """Map a sampled trajectory, rescaling the time grid by alpha^(1-n/2)."""
    return ExtendedTrajectory(
        times=traj.times * prm.alpha ** (1.0 - prm.n / 2.0),
        states=traj.states * _scales(prm),
    )


def lms_jacobian(prm: LmsParams) -> np.ndarray:
    """Diagonal Jacobian of the map in the (q, p, lq, lp) basis."""
    return np.diag(_scales(prm))


@dataclass(frozen=True)
class LmsVariation:
    """First-order variation of an extended point, plus the time rate.

    The time reparametrization is delta_t = dt_rate * t.
    """

    dq: float
    dp: float
    dlq: float
    dlp: float
    dt_rate: float


def infinitesimal_lms(x: ExtendedPoint, prm: LmsParams) -> LmsVariation:
    """First-order similarity variation for n != 2.

    delta q = -2 at q / (2-n), delta p = -n at p / (2-n), the auxiliary
    pair with opposite signs, and delta t = -at * t, where at is the
    alpha_tilde stored in prm. Agrees with the finite map to O(beta^2).
    """
    if prm.harmonic:
        raise HarmonicCaseError("infinitesimal variation divides by (2 - n)")
    at = prm.alpha_tilde
    n = prm.n
    c = at / (2.0 - n)
    return LmsVariation(
        dq=-2.0 * c * x.q,
        dp=-n * c * x.p,
        dlq=2.0 * c * x.lq,
        dlp=n * c * x.lp,
        dt_rate=-at,
    )


def _check_sampling(traj: ExtendedTrajectory):
    if len(traj) < MIN_SAMPLES:
        raise InsufficientResolution(
            f"need at least {MIN_SAMPLES} samples, got {len(traj)}"
        )


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at increasing x, at least three
    of them, with the arithmetic of scipy.integrate.simpson(y, x=x).

    Each pair of intervals (h0, h1) gets the three-point rule for uneven
    spacing. With an even sample count the pairs stop one interval short,
    and the last interval gets Cartwright's correction (Math. Gazette 101
    (2017) 255), fitted on the last three samples."""
    m = len(y) - 1 + len(y) % 2  # the pairs cover samples 0 to m - 1
    h = np.diff(x)
    h0, h1 = h[0:m - 2:2], h[1:m - 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:m - 2:2] * (2.0 - 1.0 / h0divh1)
                                 + y[1:m - 1:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:m:2] * (2.0 - h0divh1)))
    if m < len(y):
        a, b = np.asarray(h[-2]), np.asarray(h[-1])  # 0-d: b**3 takes the array power
        total += ((2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                  + (b**2 + 3.0 * a * b) / (6 * a) * y[-2]
                  - b**3 / (6 * a * (a + b)) * y[-3])
    return float(total)


def action_standard(traj: ExtendedTrajectory, pot: MonomialPotential) -> float:
    """Standard action integral of p^2/2 - V(q) over the stored samples."""
    _check_sampling(traj)
    q = traj.states[:, 0]
    p = traj.states[:, 1]
    return _simpson(0.5 * p**2 - pot.value(q), traj.times)


def action_kvn(traj: ExtendedTrajectory, pot: MonomialPotential) -> float:
    """Auxiliary-pair action integral of lq*p + lp*V'(q) over the samples.

    This is the on-shell integrand of the extended least-action principle
    with dlp/dt = -lq and dq/dt = p already substituted.
    """
    _check_sampling(traj)
    q = traj.states[:, 0]
    p = traj.states[:, 1]
    lq = traj.states[:, 2]
    lp = traj.states[:, 3]
    return _simpson(lq * p + lp * pot.derivs(q)[0], traj.times)


@dataclass(frozen=True)
class ActionScaling:
    """Measured versus expected scaling exponent of the standard action."""

    s_original: float
    s_mapped: float
    measured_exponent: float
    expected_exponent: float


def check_action_scaling(
    traj: ExtendedTrajectory, pot: MonomialPotential, prm: LmsParams
) -> ActionScaling:
    """Measure log(S'/S)/log(alpha) against the closed form 1 + n/2."""
    if prm.alpha == 1.0:
        raise UndefinedError("alpha = 1 gives no scaling information")
    s = action_standard(traj, pot)
    if abs(s) < 1e-8:
        raise DegenerateAction(f"|S|={abs(s)!r} too small to expose the exponent")
    s_mapped = action_standard(lms_map_trajectory(traj, prm), pot)
    ratio = s_mapped / s
    if ratio <= 0:
        raise DegenerateAction(f"mapped/original action ratio {ratio!r} not positive")
    return ActionScaling(
        s_original=s,
        s_mapped=s_mapped,
        measured_exponent=math.log(ratio) / math.log(prm.alpha),
        expected_exponent=1.0 + prm.n / 2.0,
    )


def bracket_change(prm: LmsParams) -> tuple[float, float]:
    """Rescale factors of the (q,p) bracket and the extended bracket.

    The (q, p) pair picks up alpha^(1+n/2); the factor is 1 exactly when
    n = -2. The extended bracket factor is exactly 1 for every n because
    each canonical pair rescales by reciprocal factors.
    """
    return prm.alpha ** (1.0 + prm.n / 2.0), 1.0
