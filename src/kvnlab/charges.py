"""Conserved charges of monomial motion on the extended phase space.

The generator of the extended flow is

    H_ext(x) = lq * p - lp * V'(q)

and for V(q) = g q^n / n with n != 2 the similarity charge

    D(x, t) = t * H_ext - (2/(2-n)) lq q - (n/(2-n)) lp p

is conserved along trajectories. Its t = 0 part D0 satisfies
{H_ext, D0} = H_ext under the extended bracket, which closes the whole
one-parameter family L_m = H_ext * (t + D0/H_ext)**(1+m) into a Witt-type
tower: L_{-1} is the generator itself and L_0 is D.
"""

from __future__ import annotations

import numpy as np

from .core import ExtendedPoint, MonomialPotential
from .errors import (
    HarmonicCaseError,
    NegativeBaseError,
    NonFiniteGradient,
    NullLiouvillianError,
)

EPS_LIOUVILLIAN = 1e-10


def liouvillian_value(x: ExtendedPoint, pot: MonomialPotential):
    """Evaluate H_ext = lq*p - lp*V'(q).

    Like every charge here it takes a point whose fields are floats, or
    arrays of samples such as ``ExtendedPoint(*traj.states.T)``.
    """
    v1, _ = pot.derivs(x.q)
    return x.lq * x.p - x.lp * v1


def lms_charge0(x: ExtendedPoint, pot: MonomialPotential):
    """The explicit-time-free part of the similarity charge (n != 2)."""
    n = pot.n
    if n == 2.0:
        raise HarmonicCaseError("use lms_charge_harmonic for n = 2")
    return -(2.0 / (2.0 - n)) * x.lq * x.q - (n / (2.0 - n)) * x.lp * x.p


def lms_charge(x: ExtendedPoint, pot: MonomialPotential, t):
    """Similarity charge D = t*H_ext + D0 for n != 2."""
    return t * liouvillian_value(x, pot) + lms_charge0(x, pot)


def lms_charge_harmonic(x: ExtendedPoint):
    """Harmonic variant lq*q + p*lp, conserved for n = 2 (normalization 1)."""
    return x.lq * x.q + x.p * x.lp


def virasoro_charge(x: ExtendedPoint, pot: MonomialPotential, t, m):
    """Member L_m = H_ext * (t + D0/H_ext)**(1+m) of the conserved tower.

    m = -1 and m = 0 reduce algebraically to H_ext and D; those branches
    are returned directly so the identities hold without roundoff. The
    tower needs |H_ext| above EPS_LIOUVILLIAN at every sample, and a
    negative base is only accepted for integer exponents.
    """
    h = liouvillian_value(x, pot)
    if np.any(np.abs(h) <= EPS_LIOUVILLIAN):
        raise NullLiouvillianError(
            f"|H_ext|={np.min(np.abs(h))!r} <= {EPS_LIOUVILLIAN}; tower undefined"
        )
    if m == -1:
        return h
    d0 = lms_charge0(x, pot)
    if m == 0:
        return t * h + d0
    u = t + d0 / h
    if not float(m).is_integer():
        if np.any(u < 0):
            raise NegativeBaseError(
                f"base {np.min(u)!r} < 0 with non-integer exponent {1 + m!r}"
            )
        return h * u ** (1.0 + m)
    return h * u ** (1 + int(m))


def fd_gradient(fn, x: ExtendedPoint) -> np.ndarray:
    """Central-difference 4-gradient at x of ``fn``, any callable of an
    ExtendedPoint: the oracle for the analytic gradients below."""
    base = x.as_array()
    out = np.empty(4)
    for i in range(4):
        h = 1e-6 * max(1.0, abs(base[i]))
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            fn(ExtendedPoint.from_array(up)) - fn(ExtendedPoint.from_array(dn))
        ) / (2.0 * h)
    return out


def epb(df, dg) -> float:
    """Extended Poisson bracket {f, g} from the 4-gradients of f and g.

    Gradients are ordered (d/dq, d/dp, d/dlq, d/dlp), and the canonical
    pairs are (q, lq) and (p, lp):
    {f,g} = f_q g_lq - f_lq g_q + f_p g_lp - f_lp g_p.
    """
    if not np.isfinite([df, dg]).all():
        raise NonFiniteGradient(f"gradients {df}, {dg} have non-finite components")
    return df[0] * dg[2] - df[2] * dg[0] + df[1] * dg[3] - df[3] * dg[1]


def liouvillian_gradient(x: ExtendedPoint, pot: MonomialPotential) -> np.ndarray:
    """Analytic 4-gradient of H_ext at x."""
    v1, v2 = pot.derivs(x.q)
    return np.array([-x.lp * v2, x.lq, x.p, -v1])


def lms_charge0_gradient(x: ExtendedPoint, pot: MonomialPotential) -> np.ndarray:
    """Analytic 4-gradient of D0 at x (n != 2)."""
    n = pot.n
    if n == 2.0:
        raise HarmonicCaseError("use the harmonic charge for n = 2")
    a = 2.0 / (2.0 - n)
    b = n / (2.0 - n)
    return np.array([-a * x.lq, -b * x.lp, -a * x.q, -b * x.p])
