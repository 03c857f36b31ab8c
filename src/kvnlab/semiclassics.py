"""Action quantization and the Newton-equivalent Hamiltonian family.

The loop action J(E) = 2 * integral sqrt(2(E - V)) dq between turning
points obeys J(alpha^n E) = alpha^(1+n/2) J(E) under the similarity
rescale, so quantized levels J = (k + 1/2) 2 pi hbar are not mapped to
levels unless 1 + n/2 = 0. The same law places the turning points and
inverts the quantization rule in closed form; J(E) itself is left to the
quadrature that the checks measure. Separately, the rescaled Lagrangian
gamma*L yields H_gamma = p_gamma^2 / (2 gamma) + gamma V (mass 1 scaled
by gamma) with identical q(t) but gamma-dependent spectra (except the
harmonic case, whose frequency is gamma-free while its eigenfunction
widths are not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from .core import LmsParams, MonomialPotential, PhasePoint
from .dynamics import sampled_flow
from .errors import ConvergenceFailure, NoBoundOrbit, RangeExhausted

#: Sample spacing of the side-by-side Newton-equivalent trajectories.
NEWTON_EQUIV_DT = 0.01


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

    The substitution q = q+ sin(theta) absorbs the square-root endpoint
    behaviour, leaving a smooth integrand for adaptive quadrature."""
    _, qp = turning_points(pot, E)

    def integrand(theta):
        q = qp * math.sin(theta)
        gap = E - pot.value(q)
        if gap < 0.0:
            gap = 0.0
        return math.sqrt(2.0 * gap) * qp * math.cos(theta)

    val, err = quad(integrand, -0.5 * math.pi, 0.5 * math.pi, epsabs=0.0,
                    epsrel=1e-11, limit=200)
    if not math.isfinite(val) or (val > 0 and err / val > 1e-8):
        raise ConvergenceFailure(f"action quadrature error {err!r} on value {val!r}")
    return 2.0 * val


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
    counts how many level spacings 2 pi hbar the orbit moved by. n = -2
    is the analytic branch: the exponent 1 + n/2 vanishes identically,
    so the action is invariant without any quadrature."""

    j_value: Optional[float]
    delta_j: float
    delta_j_closed_form: float
    level_mismatch: float
    exact_invariance: bool


def lms_bohr_violation(
    pot: MonomialPotential, E: float, prm: LmsParams, hbar: float = 1.0
) -> BohrViolationReport:
    if pot.n == -2.0:
        return BohrViolationReport(
            j_value=None,
            delta_j=0.0,
            delta_j_closed_form=0.0,
            level_mismatch=0.0,
            exact_invariance=True,
        )
    j = action_integral(pot, E)
    j_mapped = action_integral(pot, prm.alpha**pot.n * E)
    delta = j_mapped - j
    closed = (prm.alpha ** (1.0 + pot.n / 2.0) - 1.0) * j
    return BohrViolationReport(
        j_value=j,
        delta_j=delta,
        delta_j_closed_form=closed,
        level_mismatch=delta / (2.0 * math.pi * hbar),
        exact_invariance=False,
    )


# -- Newton-equivalent family --------------------------------------------


@dataclass(frozen=True)
class NewtonEquivReport:
    """Trajectory comparison between H_standard and H_gamma."""

    gamma: float
    max_q_diff: float
    max_p_scaled_diff: float
    max_energy_relation_dev: float


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
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def run(gv):
        return sampled_flow(pot, (x0.q, gv * x0.p), T, NEWTON_EQUIV_DT, mass=gv)[1].T

    y_st = run(1.0)
    y_g = run(gamma)
    h_st = y_st[1] ** 2 / 2.0 + pot.value(y_st[0])
    h_g = y_g[1] ** 2 / (2.0 * gamma) + gamma * pot.value(y_g[0])
    return NewtonEquivReport(
        gamma=gamma,
        max_q_diff=float(np.max(np.abs(y_g[0] - y_st[0]))),
        max_p_scaled_diff=float(np.max(np.abs(y_g[1] - gamma * y_st[1]))),
        max_energy_relation_dev=float(np.max(np.abs(h_g - gamma * h_st))),
    )


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenvalues of the boxed H_gamma with a grid-halving error."""

    energies: np.ndarray
    error_estimate: np.ndarray
    box_halfwidth: float
    count: int


def ground_width(pot: MonomialPotential, gamma: float, hbar: float) -> float:
    """Length where kinetic and potential scales balance for H_gamma."""
    n = _bound_orbit_exponent(pot)
    return (hbar**2 * n / (2.0 * gamma**2 * pot.g)) ** (1.0 / (n + 2.0))


def eigensolve_newton_equiv(
    pot: MonomialPotential,
    gamma: float,
    hbar: float,
    k: int,
    *,
    count: int = 2048,
) -> EigenResult:
    """Finite-difference spectrum of -hbar^2/(2 gamma) d^2 + gamma V.

    Dirichlet box of 8 ground widths, second-order three-point stencil,
    discretization error estimated by re-solving at half the grid count."""
    if gamma <= 0 or hbar <= 0:
        raise ValueError("gamma and hbar must be positive")
    if k < 1:
        raise ValueError("need k >= 1 levels")
    box = 8.0 * ground_width(pot, gamma, hbar)

    def solve(m_count):
        h = 2.0 * box / (m_count + 1)
        x = -box + h * np.arange(1, m_count + 1)
        kin = hbar**2 / (2.0 * gamma * h**2)
        diag = 2.0 * kin + gamma * pot.value(x)
        off = np.full(m_count - 1, -kin)
        vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))[0]
        return vals

    fine = solve(count)
    coarse = solve(count // 2)
    return EigenResult(
        energies=fine,
        error_estimate=np.abs(fine - coarse),
        box_halfwidth=box,
        count=count,
    )
