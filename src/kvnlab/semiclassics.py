"""Action quantization and the Newton-equivalent Hamiltonian family.

The loop action J(E) = 2 * integral sqrt(2(E - V)) dq between turning
points obeys J(alpha^n E) = alpha^(1+n/2) J(E) under the similarity
rescale, so quantized levels J = (k + 1/2) 2 pi hbar are not mapped to
levels unless 1 + n/2 = 0. The same law places the turning points and
inverts the quantization rule in closed form; J(E) itself is left to the
periodic trapezoid rule that the checks measure. At n = -2 there is no
closed orbit, and the law is measured on the reduced action between two
fixed endpoints instead. Separately, the rescaled Lagrangian gamma*L
yields H_gamma = p_gamma^2 / (2 gamma) + gamma V (mass 1 scaled by gamma)
with identical q(t) but gamma-dependent spectra (except the harmonic
case, whose frequency is gamma-free while its eigenfunction widths are
not); one diagonalisation in a harmonic-oscillator basis gives each
spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import LmsParams, MonomialPotential, PhasePoint
from .dynamics import sample_steps, taylor_steps
from .errors import ConvergenceFailure, NoBoundOrbit, RangeExhausted

#: Sample spacing of the side-by-side Newton-equivalent trajectories.
NEWTON_EQUIV_DT = 0.01
#: Equispaced angles of the loop action's periodic trapezoid rule.
ACTION_NODES = 128
#: Gauss-Legendre nodes of the reduced action.
REDUCED_NODES = 32
#: Harmonic-oscillator states of the Newton-equivalent eigensolver.
BASIS_STATES = 128


def _bound_orbit_exponent(pot: MonomialPotential) -> int:
    n = pot.n
    if float(n).is_integer() and n >= 2 and int(n) % 2 == 0 and pot.g > 0:
        return int(n)
    raise NoBoundOrbit(
        f"V = {pot.g} q**{pot.n}/{pot.n} has no two-sided bounded orbits"
    )


def turning_points(pot: MonomialPotential, E: float) -> tuple[float, float]:
    """Turning pair (q-, q+) with V(q+-) = E, from the similarity law.

    Defined for confining even monomials (g > 0, even integer n >= 2),
    where the well is symmetric and q- = -q+. Rescaling q by alpha takes
    E to alpha^n E, so q+ = (n/g)^(1/n) * E^(1/n); taken apart like this,
    n E / g cannot overflow."""
    n = _bound_orbit_exponent(pot)
    if not 0.0 < E < math.inf:
        raise NoBoundOrbit(f"E={E!r} is not a finite energy above the well minimum V(0) = 0")
    qp = (n / pot.g) ** (1.0 / n) * E ** (1.0 / n)
    return -qp, qp


def action_integral(pot: MonomialPotential, E: float) -> float:
    """Loop action J(E) = 2 * integral_{q-}^{q+} sqrt(2(E - V)) dq.

    With q = q+ sin(theta) over the whole circle, the integrand
    q+ sqrt(2(E - V)) |cos theta| is smooth and periodic for an even n (E - V
    is cos^2 theta times a positive polynomial in sin^2 theta): its mean over
    ACTION_NODES angles converges geometrically (Trefethen and Weideman, SIAM
    Rev. 56 (2014) 385), and the rule on every other angle estimates the error."""
    _, qp = turning_points(pot, E)
    theta = np.arange(ACTION_NODES) * (2.0 * math.pi / ACTION_NODES)
    gap = np.maximum(E - pot.value(qp * np.sin(theta)), 0.0)
    f = np.sqrt(2.0 * gap) * np.abs(np.cos(theta))
    val = 2.0 * math.pi * qp * float(np.mean(f))
    err = abs(val - 2.0 * math.pi * qp * float(np.mean(f[::2])))
    if not math.isfinite(val) or (val > 0 and err / val > 1e-8):
        raise ConvergenceFailure(f"action quadrature error {err!r} on value {val!r}")
    return val


def reduced_action(pot: MonomialPotential, E: float, q1: float, q2: float) -> float:
    """Reduced action W(E; q1, q2) = integral_{q1}^{q2} sqrt(2(E - V)) dq.

    Gauss-Legendre on REDUCED_NODES nodes placed affinely on [q1, q2], so
    the nodes of (alpha q1, alpha q2) are alpha times those of (q1, q2) and
    W(alpha^n E; alpha q1, alpha q2) = alpha^(1+n/2) W(E; q1, q2) holds
    sample by sample, up to roundoff. The interval must lie where E >= V."""
    x, w = np.polynomial.legendre.leggauss(REDUCED_NODES)
    half = 0.5 * (q2 - q1)
    gap = E - pot.value(0.5 * (q1 + q2) + half * x)
    if not np.all(gap >= 0.0):
        raise ValueError(f"V exceeds E={E!r} on [{q1!r}, {q2!r}]")
    return half * float(np.dot(w, np.sqrt(2.0 * gap)))


def bohr_levels(pot: MonomialPotential, hbar: float, count: int) -> np.ndarray:
    """Lowest `count` energies solving J(E) = (k + 1/2) * 2 pi hbar.

    The similarity law gives J(E) = J(1) E^(1/2 + 1/n), so one quadrature
    of J(1) yields every level as ((k + 1/2) 2 pi hbar / J(1))^(2n/(n+2))."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")
    n = _bound_orbit_exponent(pot)
    quanta = (np.arange(count) + 0.5) * (2.0 * math.pi * hbar)
    levels = (quanta / action_integral(pot, 1.0)) ** (2.0 * n / (n + 2.0))
    if not np.all(np.isfinite(levels)):
        raise RangeExhausted(f"quantized energy {float(levels[-1])!r} is not finite")
    return levels


@dataclass(frozen=True)
class BohrViolationReport:
    """Action change of one orbit under the finite similarity map.

    delta_j compares quadrature at the mapped energy alpha^n E against
    the original; the closed form is (alpha^(1+n/2) - 1) J. The mismatch
    counts how many level spacings 2 pi hbar the orbit moved by."""

    j_value: float
    delta_j: float
    delta_j_closed_form: float
    level_mismatch: float


def lms_bohr_violation(
    pot: MonomialPotential, E: float, prm: LmsParams, hbar: float = 1.0
) -> BohrViolationReport:
    j = action_integral(pot, E)
    j_mapped = action_integral(pot, prm.alpha**pot.n * E)
    delta = j_mapped - j
    closed = (prm.alpha ** (1.0 + pot.n / 2.0) - 1.0) * j
    return BohrViolationReport(
        j_value=j,
        delta_j=delta,
        delta_j_closed_form=closed,
        level_mismatch=delta / (2.0 * math.pi * hbar),
    )


# -- Newton-equivalent family --------------------------------------------


@dataclass(frozen=True)
class NewtonEquivReport:
    """Trajectory comparison between H_standard and H_gamma."""

    gamma: float
    max_q_diff: float
    max_p_scaled_diff: float
    max_energy_relation_dev: float


@functools.lru_cache(maxsize=2)
def _newton_equiv_run(pot: MonomialPotential, q0: float, p0: float, T: float, mass: float):
    """Read-only (q, p) rows of the run from (q0, mass p0), every NEWTON_EQUIV_DT;
    two entries keep the mass-1 reference between the gamma runs."""
    y = sample_steps(pot, taylor_steps(pot, (q0, mass * p0), T, mass), T, NEWTON_EQUIV_DT)[1].T
    y.flags.writeable = False
    return y


def newton_equiv_trajectory_check(
    pot: MonomialPotential,
    gamma: float,
    x0: PhasePoint,
    T: float,
) -> NewtonEquivReport:
    """Integrate H_standard and H_gamma side by side from matched data.

    Matching means equal q0 and equal initial velocity, i.e.
    p_gamma(0) = gamma p(0). Reported are the sup differences of q(t),
    of p_gamma(t) versus gamma p(t), and of H_gamma versus gamma H_st."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    y_st = _newton_equiv_run(pot, x0.q, x0.p, T, 1.0)
    y_g = _newton_equiv_run(pot, x0.q, x0.p, T, gamma)
    h_st = y_st[1] ** 2 / 2.0 + pot.value(y_st[0])
    h_g = y_g[1] ** 2 / (2.0 * gamma) + gamma * pot.value(y_g[0])
    return NewtonEquivReport(
        gamma=gamma,
        max_q_diff=float(np.max(np.abs(y_g[0] - y_st[0]))),
        max_p_scaled_diff=float(np.max(np.abs(y_g[1] - gamma * y_st[1]))),
        max_energy_relation_dev=float(np.max(np.abs(h_g - gamma * h_st))),
    )


def ground_width(pot: MonomialPotential, gamma: float, hbar: float) -> float:
    """Length where kinetic and potential scales balance for H_gamma."""
    n = _bound_orbit_exponent(pot)
    return (hbar**2 * n / (2.0 * gamma**2 * pot.g)) ** (1.0 / (n + 2.0))


def eigensolve_newton_equiv(
    pot: MonomialPotential, gamma: float, hbar: float, k: int
) -> np.ndarray:
    """The k lowest eigenvalues of -hbar^2/(2 gamma) d^2 + gamma V, ascending.

    In the BASIS_STATES oscillator states of the ground width l (x = l xi),
    xi and d/dxi are (a +- a^+)/sqrt(2) on ladder matrices n + 2 states
    longer, so every kept entry of xi^n and d^2/dxi^2 is exact. Only the
    low levels of the gentler wells converge: k above BASIS_STATES // 8 and
    n above 6 are refused (at n = 8 the lowest levels are off by 7e-7)."""
    if not (0.0 < gamma < math.inf and 0.0 < hbar < math.inf):
        raise ValueError(f"gamma and hbar must be finite and positive, got {gamma!r}, {hbar!r}")
    if not 1 <= k <= BASIS_STATES // 8:
        raise ValueError(f"the basis resolves 1 to {BASIS_STATES // 8} levels, not k={k!r}")
    n = _bound_orbit_exponent(pot)
    if n > 6:
        raise ValueError(f"the basis resolves exponents up to 6, not n={n!r}")
    width = ground_width(pot, gamma, hbar)
    a = np.diag(np.sqrt(np.arange(1.0, BASIS_STATES + n + 2)), 1)
    xi, d = (a + a.T) / math.sqrt(2.0), (a - a.T) / math.sqrt(2.0)
    h = (gamma * pot.value(width) * np.linalg.matrix_power(xi, n)
         - hbar**2 / (2.0 * gamma * width**2) * (d @ d))
    return np.linalg.eigvalsh(h[:BASIS_STATES, :BASIS_STATES])[:k]
