"""Exact operator algebra of the auxiliary-pair (KvN) formulation.

Operators are finite combinations of normally ordered monomials in four
generators with exact coefficients. A coefficient is a Laurent polynomial
in (i, hbar, t, alpha, E) over the rationals, E = exp(alpha), held as a
plain dict {(ei, eh, et, ea, ee): value} with i^2 = -1 reduced on multiply
(ei is 0 or 1), eh < 0 for the powers of 1/hbar that the split basis
introduces and ee the k of exp(k alpha) that a finite adjoint introduces.
A value is an int or a Fraction. The monomials alpha^j exp(k alpha) are
linearly independent, so two normal forms are equal exactly when their
dicts are. Every computation is in this ring; sympy only reads values in
(the constructor and scale also take Rational or Expr, cosh and sinh
rewritten through exp; sympy observables C(q, p), over symbols named q_c
and p_c with real=True; a non-integral float as a coupling or exponent)
and out (coefficient(), str()), and it is imported on those routes alone.
The symbols hbar, t_sym and alpha_sym are module attributes built on first
access, so importing this module loads no sympy. q_c and p_c are the ring's
commuting q and p, so writing and building an observable in them loads no
sympy either. Floating point only proposes the eigenvalues of a finite
adjoint, which an exact test then accepts.
Coefficients are accumulated in one way, _cmul(x, y, out), and every
linear combination of operators (sum, difference, negation, scaling,
adjoint, change of basis, series) is one _sum_scaled call, which works on
integer numerators and leaves a whole value as an int.
Two instances of the same engine are used:

* the position algebra with generators q, p, lq, lp, canonical pairs
  [q, lq] = i and [p, lp] = i, all other pairs commuting;
* the split basis with generators Q, Qbar, P, Pbar, [Q, P] = i*hbar and
  [Qbar, Pbar] = -i*hbar, bars commuting with unbarred.

The split basis is reached through the shifts

    Q = q - (hbar/2) lp,   P    = p + (hbar/2) lq,
    Qbar = q + (hbar/2) lp,   Pbar = p - (hbar/2) lq,

which embed a Heisenberg pair and its opposite-sign copy inside the
classical operator algebra. The shifts are ring constants (no sympy). The
images of monomials under the shifts and their inverse are memoised and
only read through a scaling into fresh dicts; the symmetric ordering is a
closed-form sum over those images.
hbar and t stay formal symbols; no result is computed in floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .core import MonomialPotential, _is_positive_integer
from .errors import (
    HarmonicCaseError,
    InexactHbarDivision,
    NonPolynomialPotential,
    NonQuadraticGenerator,
    SingularHbarLimit,
    UndefinedError,
)

if TYPE_CHECKING:
    import sympy as sp

#: The sympy symbols of the boundary: the ring's hbar, t and alpha, in key order.
_SYMBOL_NAMES = ("hbar", "t_sym", "alpha_sym")


@functools.cache
def _symbols() -> tuple:
    """The symbols named by _SYMBOL_NAMES, then the q_c and p_c that sympy
    observables C(q, p) are read over, built once, on first use."""
    import sympy as sp

    return (sp.Symbol("hbar", positive=True), sp.Symbol("t", real=True),
            sp.Symbol("alpha", real=True), sp.Symbol("q_c", real=True),
            sp.Symbol("p_c", real=True))


def __getattr__(name):
    if name in _SYMBOL_NAMES:
        return _symbols()[_SYMBOL_NAMES.index(name)]
    if name in ("q_c", "p_c"):  # q and p commute: C(q, p) is written in the ring
        return OperatorPoly.generator(KVN, ("q_c", "p_c").index(name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Algebra:
    """Four generators in normal order; slots (0,2) and (1,3) are the
    canonical pairs, with central commutators [g0, g2] = s02 i hbar^h02
    and [g1, g3] = s13 i hbar^h13, given as c02 = (s02, h02) and
    c13 = (s13, h13). Every other pair of generators commutes."""

    names: tuple
    c02: tuple
    c13: tuple


KVN = Algebra(("q", "p", "lq", "lp"), (1, 0), (1, 0))
BOPP = Algebra(("Q", "Qbar", "P", "Pbar"), (1, 1), (-1, 1))


# -- coefficients: Laurent polynomials in (i, hbar, t, alpha, exp(alpha)) --

_UNIT = (0, 0, 0, 0, 0)
_ONE = {_UNIT: 1}
_MINUS_ONE = {_UNIT: -1}
_HALF = {_UNIT: Fraction(1, 2)}
_HALF_HBAR = {(0, 1, 0, 0, 0): Fraction(1, 2)}
_INV_HBAR = {(0, -1, 0, 0, 0): 1}


def _rational(x: sp.Rational):
    return int(x.p) if x.q == 1 else Fraction(x.p, x.q)


def _exact(x):
    """x as an int or Fraction: an integral float is the int it equals, so
    the ring holds the coupling the integrators use, and any other value is
    read as sp.nsimplify(x, rational=True) reads it: 0.1 is 1/10."""
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return int(x)
    import sympy as sp

    return _rational(sp.nsimplify(x, rational=True))


def _not_laurent(value) -> TypeError:
    return TypeError(
        f"coefficient {value} is not a Laurent polynomial in (i, hbar, t, alpha, exp(alpha))"
    )


def _coeff(value) -> dict:
    """Coefficient dict of an int, a Fraction, a coefficient dict, a sympy
    Rational or a sympy expression."""
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():  # each value is read as a scalar
            _cmul({key: 1}, _coeff(v), out)
        return out
    if isinstance(value, (int, Fraction)):
        value = int(value) if value.denominator == 1 else value
        return {_UNIT: value} if value else {}
    import sympy as sp

    if isinstance(value, sp.Rational):
        return {_UNIT: _rational(value)} if value else {}
    expr = sp.sympify(value)
    if expr.has(sp.Float):
        raise TypeError(f"floating-point coefficient {value!r}; use an exact number")
    if expr.has(sp.cosh, sp.sinh):
        expr = expr.rewrite(sp.exp)
    ring = _symbols()[:3]  # hbar, t, alpha: key slots 1 to 3
    out = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        num, rest = term.as_coeff_Mul()
        key = [0, 0, 0, 0, 0]
        for factor in sp.Mul.make_args(rest):
            base, e = factor.as_base_exp()
            if factor == sp.I:
                key[0] = 1
            elif base in ring and e.is_Integer:
                key[1 + ring.index(base)] += int(e)
            elif isinstance(factor, sp.exp) and (k := e / ring[2]).is_Integer:
                key[4] += int(k)
            elif factor != 1:
                raise _not_laurent(value)
        if not isinstance(num, sp.Rational):  # oo, -oo or nan
            raise _not_laurent(value)
        if num:  # _cmul would store a zero entry
            _cmul({tuple(key): _rational(num)}, _ONE, out)
    return out


def _expr(c: dict) -> sp.Expr:
    """The sympy expression of a coefficient dict, expanded."""
    import sympy as sp

    hbar, t, alpha = _symbols()[:3]
    return sp.expand(sp.Add(*(
        sp.sympify(v) * sp.I**ei * hbar**eh * t**et * alpha**ea * sp.exp(ee * alpha)
        for (ei, eh, et, ea, ee), v in c.items()
    )))


def _cmul(x: dict, y: dict, out=None) -> dict:
    """x * y, added into out when it is given; out must not be shared."""
    out = {} if out is None else out
    for (i1, h1, t1, a1, e1), u in x.items():
        for (i2, h2, t2, a2, e2), v in y.items():
            w = u * v
            i = i1 + i2
            if i == 2:
                i, w = 0, -w
            key = (i, h1 + h2, t1 + t2, a1 + a2, e1 + e2)
            s = out.get(key)
            if s is None:
                out[key] = w
            elif s := s + w:
                out[key] = s
            else:
                del out[key]
    return out


def _cconj(x: dict) -> dict:
    """Complex conjugate; hbar, t, alpha and exp(alpha) are real."""
    return {key: -v if key[0] else v for key, v in x.items()}


class OperatorPoly:
    """Normally ordered operator polynomial over a fixed algebra.

    terms maps exponent keys (a, b, c, d) for g0^a g1^b g2^c g3^d to
    nonzero coefficient dicts (see the module docstring). Coefficient dicts
    are never mutated once stored, so results may share them. A whole value
    is stored as an int: sums and scalings go through _sum_scaled, and a
    product converts its whole values once it is done.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        acc = {}
        for key, coeff in (terms or {}).items():
            if len(key) != 4 or not all(float(e).is_integer() and e >= 0 for e in key):
                raise ValueError(f"exponent key {key!r} is not four non-negative integers")
            _cmul(_coeff(coeff), _ONE, acc.setdefault(tuple(int(e) for e in key), {}))
        self.terms = {key: c for key, c in acc.items() if c}

    def _scaled(self, f: dict) -> "OperatorPoly":
        return _sum_scaled(self.algebra, [(f, self)])

    # -- constructors -------------------------------------------------

    @staticmethod
    def scalar(algebra: Algebra, value) -> "OperatorPoly":
        return OperatorPoly(algebra, {(0, 0, 0, 0): value})

    @staticmethod
    def generator(algebra: Algebra, slot: int) -> "OperatorPoly":
        key = [0, 0, 0, 0]
        key[slot] = 1
        return OperatorPoly(algebra, {tuple(key): 1})

    # -- ring structure -----------------------------------------------

    def _check_same(self, other) -> "OperatorPoly":
        """other, a scalar read as an operator, in this algebra."""
        if not isinstance(other, OperatorPoly):
            return OperatorPoly.scalar(self.algebra, other)
        if self.algebra is not other.algebra:
            raise ValueError("operands live in different algebras")
        return other

    def __add__(self, other):
        return _sum_scaled(self.algebra, [(_ONE, self), (_ONE, self._check_same(other))])

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(_MINUS_ONE)

    def __sub__(self, other):
        return _sum_scaled(self.algebra, [(_ONE, self), (_MINUS_ONE, self._check_same(other))])

    def __rsub__(self, other):
        return OperatorPoly.scalar(self.algebra, other) - self

    def scale(self, factor) -> "OperatorPoly":
        return self._scaled(_coeff(factor))

    def __mul__(self, other):
        if not isinstance(other, OperatorPoly):
            return self.scale(other)
        self._check_same(other)
        acc = {}
        # Contracting j (g2, g0) and l (g3, g1) pairs multiplies by
        # nj * nl * (-[g0, g2])^j (-[g1, g3])^l: an int times the monomial
        # i^(j+l) hbar^(h02 j + h13 l), with i^2 = -1 folded into the int.
        (s02, h02), (s13, h13) = self.algebra.c02, self.algebra.c13
        for (a1, b1, c1, d1), x in self.terms.items():
            for (a2, b2, c2, d2), y in other.terms.items():
                _cmul(x, y, acc.setdefault((a1 + a2, b1 + b2, c1 + c2, d1 + d2), {}))
                if not (c1 and a2 or d1 and b2):  # no contraction, the common case
                    continue
                xy = _cmul(x, y)
                for j in range(min(c1, a2) + 1):
                    nj = math.comb(c1, j) * math.comb(a2, j) * math.factorial(j) * (-s02) ** j
                    for l in range(min(d1, b2) + 1):
                        if j == l == 0:
                            continue
                        nl = math.comb(d1, l) * math.comb(b2, l) * math.factorial(l) * (-s13) ** l
                        m = nj * nl * (-1) ** ((j + l) // 2)
                        _cmul(xy, {((j + l) % 2, h02 * j + h13 * l, 0, 0, 0): m},
                              acc.setdefault((a1 + a2 - j, b1 + b2 - l, c1 + c2 - j, d1 + d2 - l), {}))
        out = OperatorPoly(self.algebra)
        out.terms = {key: {m: int(v) if v.denominator == 1 else v for m, v in c.items()}
                     for key, c in acc.items() if c}
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError(f"operator power {n!r} is not a non-negative int")
        out = OperatorPoly.scalar(self.algebra, 1)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            raise TypeError(f"operator divisor {other!r} is not an int or a Fraction")
        return self.scale(1 / Fraction(other))

    # -- involution and coefficient maps --------------------------------

    def dagger(self) -> "OperatorPoly":
        """Adjoint: conjugate coefficients, reverse factor order.

        All four generators are self-adjoint, so each monomial reverses to
        g3^d g2^c g1^b g0^a, which is re-normal-ordered by the product."""
        return _sum_scaled(self.algebra, [
            (_cconj(coeff), OperatorPoly(self.algebra, {(0, 0, c, d): 1})
             * OperatorPoly(self.algebra, {(a, b, 0, 0): 1}))
            for (a, b, c, d), coeff in self.terms.items()])

    def hbar_limit(self) -> "OperatorPoly":
        """Coefficient-wise hbar -> 0 part; a negative hbar power raises."""
        out = OperatorPoly(self.algebra)
        for key, coeff in self.terms.items():
            if any(m[1] < 0 for m in coeff):
                raise SingularHbarLimit(
                    f"coefficient {_expr(coeff)} of {key} diverges as hbar -> 0"
                )
            if c := {m: v for m, v in coeff.items() if m[1] == 0}:
                out.terms[key] = c
        return out

    def coefficient(self, key) -> sp.Expr:
        return _expr(self.terms.get(tuple(key), {}))

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def equals(self, other) -> bool:
        """Exact equality of normal forms: their coefficient dicts agree."""
        return self.terms == self._check_same(other).terms

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.algebra is other.algebra and self.equals(other)

    # -- display --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        import sympy as sp

        names = self.algebra.names
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            coeff = _expr(self.terms[key])
            factors = "*".join(
                name if e == 1 else f"{name}**{e}"
                for name, e in zip(names, key)
                if e > 0
            )
            cs = sp.sstr(coeff)
            fenced = ("+" in cs) or ("-" in cs[1:]) or (" " in cs)
            if factors:
                if coeff == 1:
                    parts.append(factors)
                elif coeff == -1:
                    parts.append(f"-{factors}")
                else:
                    parts.append(f"({cs})*{factors}" if fenced else f"{cs}*{factors}")
            else:
                parts.append(f"({cs})" if fenced else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"OperatorPoly[{self}]"


def commutator(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    return a * b - b * a


# Generator shorthands for the position algebra.
def q_op():
    return OperatorPoly.generator(KVN, 0)


def p_op():
    return OperatorPoly.generator(KVN, 1)


def lq_op():
    return OperatorPoly.generator(KVN, 2)


def lp_op():
    return OperatorPoly.generator(KVN, 3)


def bopp_operators():
    """The shifted pairs (Q, P, Qbar, Pbar) as position-algebra operators."""
    q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
    Q = q - lp._scaled(_HALF_HBAR)
    P = p + lq._scaled(_HALF_HBAR)
    Qbar = q + lp._scaled(_HALF_HBAR)
    Pbar = p - lq._scaled(_HALF_HBAR)
    return Q, P, Qbar, Pbar


# -- conversions between the two bases ----------------------------------


def kvn_to_bopp(x: OperatorPoly) -> OperatorPoly:
    """Rewrite a position-algebra operator over (Q, Qbar, P, Pbar).

    Uses q = (Q+Qbar)/2, p = (P+Pbar)/2, lq = (P-Pbar)/hbar,
    lp = (Qbar-Q)/hbar; coefficients may pick up powers of 1/hbar."""
    if x.algebra is not KVN:
        raise ValueError("expected a position-algebra operator")
    return _sum_scaled(BOPP, [(c, _monomial_image(BOPP, key)) for key, c in x.terms.items()])


def bopp_to_kvn(x: OperatorPoly) -> OperatorPoly:
    """Inverse rewrite, back over (q, p, lq, lp)."""
    if x.algebra is not BOPP:
        raise ValueError("expected a split-basis operator")
    return _sum_scaled(KVN, [(c, _monomial_image(KVN, key)) for key, c in x.terms.items()])


@functools.cache
def _generator_images(target: Algebra) -> tuple:
    """The four generators of the other basis written over target."""
    if target is KVN:
        Q, P, Qb, Pb = bopp_operators()
        return Q, Qb, P, Pb
    Q, Qb, P, Pb = (OperatorPoly.generator(BOPP, slot) for slot in range(4))
    return ((Q + Qb)._scaled(_HALF), (P + Pb)._scaled(_HALF),
            (P - Pb)._scaled(_INV_HBAR), (Qb - Q)._scaled(_INV_HBAR))


@functools.cache
def _monomial_image(target: Algebra, key: tuple) -> OperatorPoly:
    """Image over target of the other basis's monomial key: the image without
    its last factor times that factor's image. Only read by _sum_scaled."""
    if not any(key):
        return OperatorPoly.scalar(target, 1)
    slot = max(s for s, e in enumerate(key) if e)
    rest = tuple(e - (s == slot) for s, e in enumerate(key))
    return _monomial_image(target, rest) * _generator_images(target)[slot]


def _sum_scaled(algebra: Algebra, pairs: list) -> OperatorPoly:
    """Sum of coeff * image over (coeff, image) pairs, reading the images only,
    on integer numerators over the common denominators of the two sides; a
    whole value stays an int, as _coeff stores it."""
    dc = math.lcm(*(v.denominator for c, _ in pairs for v in c.values()))
    di = math.lcm(*(v.denominator for _, x in pairs for c in x.terms.values() for v in c.values()))
    d = dc * di
    acc = {}
    for coeff, image in pairs:
        cn = {m: v.numerator * (dc // v.denominator) for m, v in coeff.items()}
        for key, c in image.terms.items():
            _cmul({m: v.numerator * (di // v.denominator) for m, v in c.items()}, cn,
                  acc.setdefault(key, {}))
    out = OperatorPoly(algebra)
    out.terms = {k: {m: n // d if n % d == 0 else Fraction(n, d) for m, n in c.items()}
                 for k, c in acc.items() if c}
    return out


# -- polynomial observables and their operator versions ------------------


@functools.lru_cache(maxsize=256)
def _qp_terms(expr) -> tuple:
    """The terms (a, b, coeff dict) of C(q, p); callers never mutate them."""
    import sympy as sp

    expr = sp.sympify(expr)
    try:
        poly = sp.Poly(expr, *_symbols()[3:])
    except sp.PolynomialError as exc:
        raise NonPolynomialPotential(f"not polynomial in (q, p): {expr}") from exc
    return tuple((a, b, _coeff(c)) for (a, b), c in poly.terms())


def _observable_terms(expr) -> tuple:
    """The terms (a, b, coeff dict) of C(q, p), given as such a tuple, as a
    position-algebra operator in q and p alone or as a sympy expression."""
    if isinstance(expr, tuple):
        return expr
    if not isinstance(expr, OperatorPoly):
        return _qp_terms(expr)
    if expr.algebra is not KVN or any(c or d for _, _, c, d in expr.terms):
        raise NonPolynomialPotential(f"not polynomial in (q, p) alone: {expr}")
    return tuple((a, b, c) for (a, b, _, _), c in expr.terms.items())


def _require_monomial_exponent(pot: MonomialPotential) -> int:
    if not _is_positive_integer(pot.n):
        raise NonPolynomialPotential(f"operator constructions need integer n >= 1, got {pot.n}")
    return int(pot.n)


@functools.cache
def _hamiltonian(pot: MonomialPotential) -> tuple:
    """The terms of H(q, p) = p^2/2 + g q^n / n, g read exactly (see _exact)."""
    n = _require_monomial_exponent(pot)
    return ((n, 0, _coeff(Fraction(_exact(pot.g), n))), (0, 2, _HALF))


def _divide_by_hbar(x: OperatorPoly) -> OperatorPoly:
    out = OperatorPoly(x.algebra)
    for key, coeff in x.terms.items():
        if any(m[1] < 1 for m in coeff):
            raise InexactHbarDivision(
                f"coefficient {_expr(coeff)} of {key} is not divisible by hbar"
            )
        out.terms[key] = {(i, h - 1, t, a, e): v for (i, h, t, a, e), v in coeff.items()}
    return out


def build_G(pot: MonomialPotential) -> OperatorPoly:
    """Evolution generator [H(Q, P) - H(Qbar, Pbar)] / hbar.

    H(q, p) = p^2/2 + g q^n / n is ordering-unambiguous (separable), the
    difference is divisible by hbar exactly, and the hbar -> 0 part is the
    classical generator lq p - lp V'(q)."""
    return build_C_hbar(_hamiltonian(pot))


def c_hbar_series(expr, jmax: int) -> OperatorPoly:
    """Odd-order derivative series for a polynomial observable C(q, p),
    the route that cross-validates build_C_hbar.

    Term j carries hbar^(2j) / (2^(2j) (2j+1)!) times the (2j+1)-fold
    contraction of the auxiliary pair with the symplectic-dual derivatives
    of C, with the auxiliary factors ordered to the left:

        sum_k C(2j+1, k) (-1)^k lq^(2j+1-k) lp^k d_p^(2j+1-k) d_q^k C.

    The k-th summand pairs each lq with a d_p and each lp with a -d_q.
    The derivatives are taken on the exponents of the terms of C, which
    may also be given as a tuple (a, b, coeff dict), as by _hamiltonian."""
    terms = _observable_terms(expr)
    pairs = []
    for j in range(jmax + 1):
        order = 2 * j + 1
        pref = Fraction(1, 2 ** (2 * j) * math.factorial(order))
        for k in range(order + 1):
            # d_p^(order-k) d_q^k of C, q before p
            deriv = OperatorPoly(KVN)
            deriv.terms = {  # distinct keys, nonzero multiples
                (a - k, b - order + k, 0, 0): {
                    key: v * math.perm(a, k) * math.perm(b, order - k) for key, v in c.items()}
                for a, b, c in terms if a >= k and b >= order - k}
            if deriv.is_zero():
                continue
            lam = OperatorPoly(KVN, {(0, 0, order - k, k): 1})
            weight = pref * math.comb(order, k) * (-1) ** k
            pairs.append(({(0, 2 * j, 0, 0, 0): weight}, lam * deriv))
    return _sum_scaled(KVN, pairs)


def build_series_G(pot: MonomialPotential, jmax: int) -> OperatorPoly:
    """Series route to the evolution generator; terminates for monomials.

    Every term with 2j+1 > n vanishes because the (2j+1)-th derivatives
    of H are zero, so any jmax of at least floor((n-1)/2) reproduces
    build_G exactly."""
    return c_hbar_series(_hamiltonian(pot), jmax)


def build_C_hbar(expr) -> OperatorPoly:
    """Operator version [C(Q, P) - C(Qbar, Pbar)] / hbar of a polynomial
    observable, with symmetric-ordered substitution; equals its own
    odd-derivative series and reduces to the classical vector field of C
    as hbar -> 0. expr may also be a tuple of terms, as for c_hbar_series."""
    terms = _observable_terms(expr)
    pairs = []
    for a, b, c in terms:
        for j in range(min(a, b) + 1):
            # McCoy: symmetric-ordered X^a Y^b is sum_j j! C(a,j) C(b,j)
            # (-[X, Y]/2)^j X^(a-j) Y^(b-j), where [Q, P] = i hbar = -[Qbar, Pbar]
            w = Fraction(math.factorial(j) * math.comb(a, j) * math.comb(b, j), 2**j)
            unbarred = {(j % 2, j, 0, 0, 0): w * (-1) ** ((j + 1) // 2)}
            barred = {(j % 2, j, 0, 0, 0): -w * (-1) ** (j // 2)}
            pairs.append((_cmul(c, unbarred), _monomial_image(KVN, (a - j, 0, b - j, 0))))
            pairs.append((_cmul(c, barred), _monomial_image(KVN, (0, a - j, 0, b - j))))
    return _divide_by_hbar(_sum_scaled(KVN, pairs))


def classical_vector_field(expr) -> OperatorPoly:
    """lq dC/dp - lp dC/dq with auxiliary factors ordered to the left."""
    return c_hbar_series(expr, 0)


# -- similarity generator and adjoints -----------------------------------


def lms_quantum_generator(pot: MonomialPotential) -> OperatorPoly:
    """Hermitian generator of the similarity transformation.

    For n != 2:  t*G - (lq q + q lq)/(2-n) - n (lp p + p lp)/(2(2-n)).
    For n = 2 the time-free harmonic form lq q + p lp is returned."""
    n = _require_monomial_exponent(pot)
    q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
    if n == 2:
        return lq * q + p * lp
    return (build_G(pot)._scaled({(0, 0, 1, 0, 0): 1})
            - (lq * q + q * lq).scale(Fraction(1, 2 - n))
            - (lp * p + p * lp).scale(Fraction(n, 2 * (2 - n))))


def adjoint_infinitesimal(A: OperatorPoly, X: OperatorPoly) -> OperatorPoly:
    """First-order adjoint X + i alpha [A, X] in the symbol alpha."""
    return X + commutator(A, X)._scaled({(1, 0, 0, 1, 0): 1})


@dataclass(frozen=True)
class LeakReport:
    """Split-basis decomposition of an operator.

    converted is the operator over (Q, Qbar, P, Pbar); barred collects the
    monomials with at least one barred factor; leaks is True when barred
    is nonzero, i.e. the operator does not stay in the unbarred
    observable algebra."""

    converted: OperatorPoly
    barred: OperatorPoly
    leaks: bool


def leak_detect(x: OperatorPoly) -> LeakReport:
    conv = kvn_to_bopp(x)
    barred = OperatorPoly(BOPP)
    for key, coeff in conv.terms.items():
        if key[1] > 0 or key[3] > 0:
            barred.terms[key] = coeff
    return LeakReport(converted=conv, barred=barred, leaks=not barred.is_zero())


_LINEAR_KEYS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))


def _linear_coords(x: OperatorPoly) -> list:
    """Coefficient dicts of an affine-linear operator over (q, p, lq, lp, 1)."""
    if x.total_degree() > 1:
        raise NonQuadraticGenerator(f"operator {x} is not affine-linear")
    return [x.terms.get(key, {}) for key in _LINEAR_KEYS]


def _putzer_step(f: dict, lam: int) -> dict:
    """Solve r' = lam r + f with r(0) = 0 in closed form.

    Functions of s = alpha are ring coefficients, sums of c s^j exp(mu s)
    at keys (0, 0, 0, j, mu) with rational c. A term with mu = lam
    integrates to c s^(j+1)/(j+1) exp(lam s); any other term has the
    particular solution P(s) exp(mu s) with
    P = c sum_i (-1)^i j!/(j-i)! s^(j-i) / d^(i+1), d = mu - lam, and the
    homogeneous part C exp(lam s) sets r(0) = 0."""
    r = {}
    for key, c in f.items():
        # each piece of r is the term c s^j exp(mu s) times a Laurent factor
        j, mu = key[3], key[4]
        if mu == lam:
            factor = {(0, 0, 0, 1, 0): Fraction(1, j + 1)}
        else:  # P(s) exp(mu s) and the homogeneous part C exp(lam s)
            d = Fraction(mu - lam)
            factor = {(0, 0, 0, -i, 0): (-1) ** i * math.perm(j, i) / d ** (i + 1)
                      for i in range(j + 1)}
            factor[0, 0, 0, -j, lam - mu] = -(-1) ** j * math.factorial(j) / d ** (j + 1)
        _cmul({key: c}, factor, r)
    return r


def _exp_apply(cols: list, x: list) -> list:
    """exp(alpha m) x by Putzer's algorithm (Amer. Math. Monthly 73 (1966) 2),
    for a matrix m given by its columns and a vector x of coefficient dicts.

    With guesses lam_1..lam_N for the eigenvalues, v_0 = x,
    v_k = (m - lam_k) v_(k-1), r_1 = exp(lam_1 s) and
    r_(k+1)' = lam_(k+1) r_(k+1) + r_k, r_(k+1)(0) = 0, the sum
    y = sum_k r_(k+1) v_k has y(0) = x and y' - m y = -r_K v_K. So y is
    exp(s m) x exactly once some v_K is 0, whatever the guesses were. The
    guesses are the rounded eigenvalues of m with every symbol set to 1;
    repeated ones give the s^j exp(mu s) terms of a defective m. The ring
    holds exp(k alpha) only for integer k, so a matrix with any other
    eigenvalue raises the ring's TypeError."""
    num = [[sum(v * (1j if key[0] else 1) for key, v in c.items()) for c in col] for col in cols]
    ev = np.linalg.eigvals(np.array(num, dtype=complex))  # those of m transposed
    total = [{} for _ in x]
    r, v = {}, x
    for k, lam in enumerate(round(z.real) for z in ev):
        r = _putzer_step(r, lam) if k else {(0, 0, 0, 0, lam): 1}
        for out, c in zip(total, v):
            _cmul(r, c, out)
        shift = {_UNIT: -lam} if lam else {}  # _cmul would store a zero entry
        w = [_cmul(shift, c, {}) for c in v]
        for col, c in zip(cols, v):
            for out, mij in zip(w, col):
                _cmul(mij, c, out)
        v = w
        if not any(v):
            return total
    raise _not_laurent(f"of exp(alpha m), m with eigenvalues {np.round(ev, 6).tolist()},")


def adjoint_finite_quadratic(A: OperatorPoly, X: OperatorPoly) -> OperatorPoly:
    """Exact finite adjoint exp(i alpha A) X exp(-i alpha A) in the symbol alpha.

    A must be quadratic so that i[A, .] closes on affine-linear operators;
    the exponential of the 5x5 matrix of that map, whose columns are the
    images of (q, p, lq, lp, 1), is applied in closed form on coefficient
    dicts (Putzer's algorithm, see _exp_apply)."""
    A._check_same(X)
    if A.total_degree() > 2:
        raise NonQuadraticGenerator(f"generator degree {A.total_degree()} > 2")
    i_a = A._scaled({(1, 0, 0, 0, 0): 1})  # i[A, x] = [iA, x]
    cols = [_linear_coords(commutator(i_a, OperatorPoly(KVN, {key: 1}))) for key in _LINEAR_KEYS]
    return OperatorPoly(KVN, dict(zip(_LINEAR_KEYS, _exp_apply(cols, _linear_coords(X)))))


@dataclass(frozen=True)
class NoGoResult:
    """Outcome of the square-bracket consistency conditions.

    alpha_tilde is the common solution when both conditions agree (only at
    n = -2); gap = n/(2-n) + 2/(2-n) is the obstruction otherwise."""

    alpha_tilde: Fraction | None
    gap: Fraction
    consistent: bool


def no_go_standard_qm(n) -> NoGoResult:
    """Solve the two closure conditions for a pure (qhat, phat) generator.

    The candidate A0 = c qhat phat must satisfy
    (i/hbar) [A0, qhat] = -(2/(2-n)) qhat  and
    (i/hbar) [A0, phat] = -(n/(2-n)) phat.
    Both are taken on the unbarred Heisenberg pair of the split basis,
    where (i/hbar) [qhat phat, X] is the exact ring multiple +X for
    X = qhat and -X for X = phat. Each condition is linear in c, so c is
    its right-hand side over that factor; the two agree only at n = -2.
    n is read exactly (see _exact), and the results are Fractions."""
    if not math.isfinite(n):
        raise UndefinedError("exponent n must be finite")
    ns = _exact(n)
    if ns == 2:
        raise HarmonicCaseError("n = 2 has its own similarity generator")
    q_key, p_key = (1, 0, 0, 0), (0, 0, 1, 0)
    qh, ph = OperatorPoly(BOPP, {q_key: 1}), OperatorPoly(BOPP, {p_key: 1})
    qp, i_over_hbar = qh * ph, {(1, -1, 0, 0, 0): 1}
    c_q = Fraction(-2) / (2 - ns) / commutator(qp, qh)._scaled(i_over_hbar).terms[q_key][_UNIT]
    c_p = Fraction(-ns) / (2 - ns) / commutator(qp, ph)._scaled(i_over_hbar).terms[p_key][_UNIT]
    gap = c_p - c_q
    if gap == 0:
        return NoGoResult(alpha_tilde=c_q, gap=gap, consistent=True)
    return NoGoResult(alpha_tilde=None, gap=gap, consistent=False)
