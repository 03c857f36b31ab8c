"""Shared value types for monomial mechanics in extended phase space.

The configuration space is one-dimensional. A point of the extended phase
space carries the classical pair (q, p) together with the auxiliary pair
(lq, lp) conjugate to them, so that states and observables of the operational
formulation of classical mechanics live on a 4-dimensional manifold with
canonical pairs (q, lq) and (p, lp). Mass is 1 throughout; the
rescaled-mass (Newton-equivalent) family in :mod:`kvnlab.semiclassics`
scales it by gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedError


def _is_positive_integer(n: float) -> bool:
    return float(n).is_integer() and n >= 1


@dataclass(frozen=True)
class MonomialPotential:
    """Power-law potential V(q) = g * q**n / n.

    g is finite and nonzero, n is finite and nonzero. When n is not a
    positive integer the admissible position domain is q > 0; for negative
    integer n the origin is excluded as well, which the same rule covers.
    """

    g: float
    n: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g != 0.0):
            raise UndefinedError("coupling g must be finite and nonzero")
        if not math.isfinite(self.n):
            raise UndefinedError("exponent n must be finite")
        if self.n == 0:
            raise UndefinedError("exponent n = 0 leaves V undefined")

    def admissible(self, q):
        """Whether q lies in the domain of V; elementwise for arrays."""
        # Plain comparisons (NaN fails them) keep float calls as cheap as
        # math.isfinite, where np.isfinite costs microseconds per scalar.
        if _is_positive_integer(self.n):
            return abs(q) < math.inf
        return (q > 0.0) & (q < math.inf)

    def _require(self, q):
        ok = self.admissible(q)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise DomainError(
                f"q={q!r} outside the domain of q**{self.n} (need q > 0)"
            )

    def value(self, q):
        """Evaluate V(q) = g * q**n / n for a float or an array of them."""
        self._require(q)
        return self.g * _power(q, self.n) / self.n

    def derivs(self, q):
        """Return (V'(q), V''(q)) = (g q**(n-1), g (n-1) q**(n-2))."""
        self._require(q)
        return self.force(q), self.curvature(q)

    # The unchecked pair below gives a NaN outside the domain rather than an
    # exception, for callers that have checked the domain already.

    def force(self, q):
        """V'(q) = g q**(n-1), without the domain check."""
        return self.g * _power(q, self.n - 1.0)

    def curvature(self, q):
        """V''(q) = g (n-1) q**(n-2), without the domain check."""
        if self.n == 1.0:
            # q**0.0 is exactly 1 for every q, where q**-1.0 is inf at 0.
            return 0.0 * _power(q, 0.0)
        return self.g * (self.n - 1.0) * _power(q, self.n - 2.0)


def _power(q, e: float):
    """q**e, on the fast path numpy has for arrays.

    numpy's float ``**`` takes a vectorised loop only when every base is
    positive; a mixed-sign array of 16,384 bases to the power 3.0 costs
    over ten times as much. So for an array and an integral e the power is
    taken of |q| and the sign restored for odd e, which keeps the signed
    zeros and infinities and stays within 1 ulp of the scalar power.
    Scalars and non-integral e keep the literal ``q ** e``: libm pow, and a
    NaN for a negative base."""
    if isinstance(q, np.ndarray) and float(e).is_integer():
        r = np.abs(q) ** e
        return np.copysign(r, q) if e % 2 else r
    return q ** e


@dataclass(frozen=True)
class PhasePoint:
    """Classical phase-space point (q, p)."""

    q: float
    p: float


@dataclass(frozen=True)
class ExtendedPoint:
    """Extended phase-space point (q, p, lq, lp)."""

    q: float
    p: float
    lq: float
    lp: float

    def as_array(self):
        return np.array([self.q, self.p, self.lq, self.lp], dtype=float)

    @staticmethod
    def from_array(x) -> "ExtendedPoint":
        return ExtendedPoint(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


@dataclass(frozen=True)
class HbarContext:
    """Validated scale parameter for the operator-level constructions."""

    hbar: float

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise UndefinedError("hbar must be finite and positive")


@dataclass(frozen=True)
class LmsParams:
    """Finite similarity parameters for a fixed exponent n.

    alpha = exp(beta) is the position rescale factor; alpha_tilde =
    beta * (n - 2) / 2 is the matching infinitesimal parameter. n = 2 is
    kept (alpha_tilde = 0) but flagged, because several downstream formulas
    divide by (2 - n) and use a dedicated harmonic variant instead.
    """

    alpha: float
    beta: float
    alpha_tilde: float
    n: float

    @property
    def harmonic(self) -> bool:
        return self.n == 2.0


def lms_params_from_beta(beta: float, n: float) -> LmsParams:
    """Build LmsParams from the log-scale parameter beta."""
    if not math.isfinite(beta):
        raise UndefinedError("beta must be finite")
    if not math.isfinite(n) or n == 0:
        raise UndefinedError("exponent n must be finite and nonzero")
    alpha = math.exp(beta)
    return LmsParams(alpha=alpha, beta=beta, alpha_tilde=beta * (n - 2.0) / 2.0, n=n)


def lms_params_from_alpha(alpha: float, n: float) -> LmsParams:
    """Build LmsParams from the rescale factor alpha > 0."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise UndefinedError("alpha must be finite and positive")
    return lms_params_from_beta(math.log(alpha), n)
