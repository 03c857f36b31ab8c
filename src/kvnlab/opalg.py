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
(constructors, scale and _accumulate also take Rational or Expr, cosh and
sinh rewritten through exp; observables C(q, p)) and out (coefficient(),
str()). Floating point only proposes the eigenvalues of a finite adjoint,
which an exact test then accepts.
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
images of monomials under the shifts, their inverse and the symmetric
ordering are memoised and only read through a scaling into fresh dicts.
hbar and t stay formal symbols; no result is computed in floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from .core import MonomialPotential
from .errors import (
    HarmonicCaseError,
    InexactHbarDivision,
    NonPolynomialPotential,
    NonQuadraticGenerator,
    SingularHbarLimit,
    UndefinedError,
)

hbar = sp.Symbol("hbar", positive=True)
t_sym = sp.Symbol("t", real=True)
alpha_sym = sp.Symbol("alpha", real=True)

# Commuting stand-ins for writing polynomial observables C(q, p).
q_c = sp.Symbol("q_c", real=True)
p_c = sp.Symbol("p_c", real=True)


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

_RING_SYMBOLS = (hbar, t_sym, alpha_sym)
_UNIT = (0, 0, 0, 0, 0)
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
    return _rational(sp.nsimplify(x, rational=True))


def _not_laurent(value) -> TypeError:
    return TypeError(
        f"coefficient {value} is not a Laurent polynomial in (i, hbar, t, alpha, exp(alpha))"
    )


def _coeff(value) -> dict:
    """Coefficient dict of an int, a Fraction, a coefficient dict, a sympy
    Rational or a sympy expression."""
    if isinstance(value, dict):
        return {key: v for key, v in value.items() if v}
    if isinstance(value, (int, Fraction)):
        value = int(value) if value.denominator == 1 else value
        return {_UNIT: value} if value else {}
    if isinstance(value, sp.Rational):
        return {_UNIT: _rational(value)} if value else {}
    expr = sp.sympify(value)
    if expr.has(sp.Float):
        raise TypeError(f"floating-point coefficient {value!r}; use an exact number")
    if expr.has(sp.cosh, sp.sinh):
        expr = expr.rewrite(sp.exp)
    out = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        num, rest = term.as_coeff_Mul()
        key = [0, 0, 0, 0, 0]
        for factor in sp.Mul.make_args(rest):
            base, e = factor.as_base_exp()
            if factor == sp.I:
                key[0] = 1
            elif base in _RING_SYMBOLS and e.is_Integer:
                key[1 + _RING_SYMBOLS.index(base)] += int(e)
            elif isinstance(factor, sp.exp) and (k := e / alpha_sym).is_Integer:
                key[4] += int(k)
            elif factor != 1:
                raise _not_laurent(value)
        if not isinstance(num, sp.Rational):  # oo, -oo or nan
            raise _not_laurent(value)
        out = _cadd(out, {tuple(key): _rational(num)})
    return out


def _expr(c: dict) -> sp.Expr:
    """The sympy expression of a coefficient dict, expanded."""
    return sp.expand(sp.Add(*(
        sp.sympify(v) * sp.I**ei * hbar**eh * t_sym**et * alpha_sym**ea * sp.exp(ee * alpha_sym)
        for (ei, eh, et, ea, ee), v in c.items()
    )))


def _cadd(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, v in y.items():
        s = out.get(key, 0) + v
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


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
    are never mutated once stored, so copies may share them.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(tuple(int(e) for e in key), coeff)

    def _accumulate(self, key, coeff):
        """Add a coefficient at key, in any form _coeff takes."""
        self._add(key, _coeff(coeff))

    def _add(self, key, c: dict):
        if not c:
            return
        old = self.terms.get(key)
        if old is None:
            self.terms[key] = c
            return
        s = _cadd(old, c)
        if s:
            self.terms[key] = s
        else:
            del self.terms[key]

    def _add_poly(self, other: "OperatorPoly"):
        for key, c in other.terms.items():
            self._add(key, c)

    def _scaled(self, f: dict) -> "OperatorPoly":
        out = OperatorPoly(self.algebra)
        for key, c in self.terms.items():
            out._add(key, _cmul(c, f))
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(algebra: Algebra) -> "OperatorPoly":
        return OperatorPoly(algebra)

    @staticmethod
    def scalar(algebra: Algebra, value) -> "OperatorPoly":
        return OperatorPoly(algebra, {(0, 0, 0, 0): value})

    @staticmethod
    def generator(algebra: Algebra, slot: int) -> "OperatorPoly":
        key = [0, 0, 0, 0]
        key[slot] = 1
        return OperatorPoly(algebra, {tuple(key): 1})

    def copy(self) -> "OperatorPoly":
        out = OperatorPoly(self.algebra)
        out.terms = dict(self.terms)
        return out

    # -- ring structure -----------------------------------------------

    def _check_same(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("operands live in different algebras")

    def __add__(self, other):
        if not isinstance(other, OperatorPoly):
            other = OperatorPoly.scalar(self.algebra, other)
        self._check_same(other)
        out = self.copy()
        out._add_poly(other)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = OperatorPoly(self.algebra)
        out.terms = {k: {m: -v for m, v in c.items()} for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, OperatorPoly):
            other = OperatorPoly.scalar(self.algebra, other)
        return self + (-other)

    def __rsub__(self, other):
        return OperatorPoly.scalar(self.algebra, other) - self

    def scale(self, factor) -> "OperatorPoly":
        return self._scaled(_coeff(factor))

    def __mul__(self, other):
        if not isinstance(other, OperatorPoly):
            return self.scale(other)
        self._check_same(other)
        out = OperatorPoly(self.algebra)
        # Contracting j (g2, g0) and l (g3, g1) pairs multiplies by
        # nj * nl * (-[g0, g2])^j (-[g1, g3])^l: an int times the monomial
        # i^(j+l) hbar^(h02 j + h13 l), with i^2 = -1 folded into the int.
        (s02, h02), (s13, h13) = self.algebra.c02, self.algebra.c13
        for (a1, b1, c1, d1), x in self.terms.items():
            for (a2, b2, c2, d2), y in other.terms.items():
                xy = _cmul(x, y)
                for j in range(min(c1, a2) + 1):
                    nj = math.comb(c1, j) * math.comb(a2, j) * math.factorial(j) * (-s02) ** j
                    for l in range(min(d1, b2) + 1):
                        key = (a1 + a2 - j, b1 + b2 - l, c1 + c2 - j, d1 + d2 - l)
                        if j == l == 0:  # no contraction, the common case
                            out._add(key, xy)
                            continue
                        nl = math.comb(d1, l) * math.comb(b2, l) * math.factorial(l) * (-s13) ** l
                        m = nj * nl * (-1) ** ((j + l) // 2)
                        out._add(key, _cmul(xy, {((j + l) % 2, h02 * j + h13 * l, 0, 0, 0): m}))
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def power(self, k: int) -> "OperatorPoly":
        if k < 0:
            raise ValueError("negative operator power")
        out = OperatorPoly.scalar(self.algebra, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- involution and coefficient maps --------------------------------

    def dagger(self) -> "OperatorPoly":
        """Adjoint: conjugate coefficients, reverse factor order.

        All four generators are self-adjoint, so each monomial reverses to
        g3^d g2^c g1^b g0^a, which is re-normal-ordered by the product."""
        out = OperatorPoly.zero(self.algebra)
        for (a, b, c, d), coeff in self.terms.items():
            left = OperatorPoly(self.algebra, {(0, 0, c, d): 1})
            right = OperatorPoly(self.algebra, {(a, b, 0, 0): 1})
            out._add_poly((left * right)._scaled(_cconj(coeff)))
        return out

    def hbar_limit(self) -> "OperatorPoly":
        """Coefficient-wise hbar -> 0 part; a negative hbar power raises."""
        out = OperatorPoly(self.algebra)
        for key, coeff in self.terms.items():
            if any(m[1] < 0 for m in coeff):
                raise SingularHbarLimit(
                    f"coefficient {_expr(coeff)} of {key} diverges as hbar -> 0"
                )
            out._add(key, {m: v for m, v in coeff.items() if m[1] == 0})
        return out

    def coefficient(self, key) -> sp.Expr:
        return _expr(self.terms.get(tuple(key), {}))

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def equals(self, other) -> bool:
        """Exact equality of normal forms: their coefficient dicts agree."""
        if not isinstance(other, OperatorPoly):
            other = OperatorPoly.scalar(self.algebra, other)
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.algebra is other.algebra and self.equals(other)

    def __hash__(self):
        raise TypeError("OperatorPoly is mutable-by-construction; not hashable")

    # -- display --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
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
    on integer numerators over the common denominators of the two sides."""
    dc = math.lcm(*(v.denominator for c, _ in pairs for v in c.values()))
    di = math.lcm(*(v.denominator for _, x in pairs for c in x.terms.values() for v in c.values()))
    acc = {}
    for coeff, image in pairs:
        cn = {m: v.numerator * (dc // v.denominator) for m, v in coeff.items()}
        for key, c in image.terms.items():
            _cmul({m: v.numerator * (di // v.denominator) for m, v in c.items()}, cn,
                  acc.setdefault(key, {}))
    out = OperatorPoly(algebra)
    out.terms = {k: {m: Fraction(n, dc * di) for m, n in c.items()} for k, c in acc.items() if c}
    return out


# -- polynomial observables and their operator versions ------------------


@functools.lru_cache(maxsize=256)
def _qp_terms(expr) -> tuple:
    """The terms (a, b, coeff dict) of C(q, p); callers never mutate them."""
    expr = sp.sympify(expr)
    try:
        poly = sp.Poly(expr, q_c, p_c)
    except sp.PolynomialError as exc:
        raise NonPolynomialPotential(f"not polynomial in (q, p): {expr}") from exc
    return tuple((a, b, _coeff(c)) for (a, b), c in poly.terms())


def weyl_substitute(expr, X: OperatorPoly, Y: OperatorPoly) -> OperatorPoly:
    """Symmetric-ordered substitution of (X, Y) into C(q, p).

    Each monomial q^a p^b maps to 2^(-a) * sum_k C(a,k) X^k Y^b X^(a-k),
    the symmetric ordering in closed form (see _weyl_step)."""
    X._check_same(Y)

    @functools.cache
    def image(a, b):
        return _weyl_step(a, b, X, Y, image)

    return _weyl_terms(_qp_terms(expr), image, X.algebra)


def _weyl_step(a: int, b: int, X: OperatorPoly, Y: OperatorPoly, image) -> OperatorPoly:
    """Symmetric-ordered image W(a, b) of q^a p^b from image() of lower degree:
    X^a or Y^b for a pure power, else (X W + W X)/2 with W = W(a-1, b), which
    Pascal's rule turns into McCoy's 2^(-a) sum_k C(a,k) X^k Y^b X^(a-k)."""
    if a == 0:
        return image(0, b - 1) * Y if b else OperatorPoly.scalar(X.algebra, 1)
    w = image(a - 1, b)
    return w * X if b == 0 else (X * w + w * X)._scaled(_HALF)


@functools.cache
def _weyl_image(a: int, b: int, bar: bool) -> OperatorPoly:
    """W(a, b) over (Q, P), or (Qbar, Pbar) when bar is set; read by _sum_scaled."""
    Q, P, Qb, Pb = bopp_operators()
    X, Y = (Qb, Pb) if bar else (Q, P)
    return _weyl_step(a, b, X, Y, lambda a, b: _weyl_image(a, b, bar))


def _weyl_terms(terms, image, algebra: Algebra) -> OperatorPoly:
    """Sum of coeff * image(a, b) over the (a, b, coeff) terms of C."""
    return _sum_scaled(algebra, [(c, image(a, b)) for a, b, c in terms])


def _require_monomial_exponent(pot: MonomialPotential) -> int:
    n = pot.n
    if not (float(n).is_integer() and n >= 1):
        raise NonPolynomialPotential(f"operator constructions need integer n >= 1, got {n}")
    return int(n)


@functools.cache
def _hamiltonian(pot: MonomialPotential) -> tuple:
    """The terms of H(q, p) = p^2/2 + g q^n / n, g read exactly (see _exact)."""
    n = _require_monomial_exponent(pot)
    return ((n, 0, _coeff(Fraction(_exact(pot.g), n))), (0, 2, _HALF))


def _divide_by_hbar(x: OperatorPoly) -> OperatorPoly:
    out = OperatorPoly.zero(x.algebra)
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
    terms = expr if isinstance(expr, tuple) else _qp_terms(expr)
    out = OperatorPoly.zero(KVN)
    for j in range(jmax + 1):
        order = 2 * j + 1
        pref = Fraction(1, 2 ** (2 * j) * math.factorial(order))
        for k in range(order + 1):
            # d_p^(order-k) d_q^k of C, q before p
            deriv = OperatorPoly(KVN)
            for a, b, c in terms:
                if a >= k and b >= order - k:
                    m = math.perm(a, k) * math.perm(b, order - k)
                    deriv._add((a - k, b - order + k, 0, 0), _cmul(c, {_UNIT: m}))
            if deriv.is_zero():
                continue
            lam = OperatorPoly(KVN, {(0, 0, order - k, k): 1})
            weight = pref * math.comb(order, k) * (-1) ** k
            out._add_poly((lam * deriv)._scaled({(0, 2 * j, 0, 0, 0): weight}))
    return out


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
    terms = expr if isinstance(expr, tuple) else _qp_terms(expr)
    plain = _weyl_terms(terms, lambda a, b: _weyl_image(a, b, False), KVN)
    barred = _weyl_terms(terms, lambda a, b: _weyl_image(a, b, True), KVN)
    return _divide_by_hbar(plain - barred)


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
    barred = OperatorPoly.zero(BOPP)
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

    def add(j, mu, c):
        r[0, 0, 0, j, mu] = r.get((0, 0, 0, j, mu), 0) + c

    for (_, _, _, j, mu), c in f.items():
        if mu == lam:
            add(j + 1, lam, Fraction(c, j + 1))
            continue
        d = Fraction(mu - lam)
        for i in range(j + 1):
            add(j - i, mu, c * (-1) ** i * math.perm(j, i) / d ** (i + 1))
        add(0, lam, -c * (-1) ** j * math.factorial(j) / d ** (j + 1))
    return _coeff(r)


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
