"""Operator algebra: normal ordering, generators, adjoints, obstruction."""

import importlib.util
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from kvnlab.core import MonomialPotential
from kvnlab.errors import (
    HarmonicCaseError,
    InexactHbarDivision,
    KvnLabError,
    NonPolynomialPotential,
    NonQuadraticGenerator,
    SingularHbarLimit,
    UndefinedError,
)
from kvnlab.opalg import (
    BOPP,
    KVN,
    OperatorPoly,
    adjoint_finite_quadratic,
    adjoint_infinitesimal,
    alpha_sym,
    bopp_operators,
    bopp_to_kvn,
    build_C_hbar,
    build_G,
    build_series_G,
    c_hbar_series,
    classical_vector_field,
    commutator,
    hbar,
    kvn_to_bopp,
    leak_detect,
    lms_quantum_generator,
    lq_op,
    lp_op,
    no_go_standard_qm,
    p_c,
    p_op,
    q_c,
    q_op,
    t_sym,
)

REPO = Path(__file__).resolve().parents[1]


def _bench_workloads():
    """bench/workloads.py, which seeds the benchmark's polynomial observables."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _rand_poly(rng, algebra, max_deg=2, terms=3):
    out = OperatorPoly(algebra)
    for _ in range(terms):
        key = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(4))
        coeff = int(rng.integers(-3, 4))
        if coeff:
            out = out + OperatorPoly(algebra, {key: sp.Integer(coeff)})
    return out


class TestRingAxioms:
    def test_associativity_random(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for algebra in (KVN, BOPP):
            for _ in range(100):
                a = _rand_poly(rng, algebra)
                b = _rand_poly(rng, algebra)
                c = _rand_poly(rng, algebra)
                assert ((a * b) * c).equals(a * (b * c))

    def test_jacobi_identity_random(self):
        import numpy as np

        rng = np.random.default_rng(1)
        for algebra in (KVN, BOPP):
            for _ in range(60):
                a = _rand_poly(rng, algebra, max_deg=1)
                b = _rand_poly(rng, algebra, max_deg=1)
                c = _rand_poly(rng, algebra, max_deg=2)
                total = (
                    commutator(a, commutator(b, c))
                    + commutator(b, commutator(c, a))
                    + commutator(c, commutator(a, b))
                )
                assert total.is_zero()

    def test_distributivity(self):
        q, p, lq = q_op(), p_op(), lq_op()
        assert ((q + p) * lq).equals(q * lq + p * lq)

    def test_mixed_algebra_rejected(self):
        with pytest.raises(ValueError):
            q_op() * OperatorPoly.generator(BOPP, 0)

    def test_dagger_is_involution(self):
        import numpy as np

        rng = np.random.default_rng(2)
        for _ in range(20):
            a = _rand_poly(rng, KVN)
            assert a.dagger().dagger().equals(a)

    def test_dagger_reverses_products(self):
        q, lq = q_op(), lq_op()
        assert (q * lq).dagger().equals(lq.dagger() * q.dagger())

    def test_hash_refused(self):
        with pytest.raises(TypeError):
            hash(q_op())

    def test_dagger_conjugates_coefficients(self):
        # (i t q)^dagger = -i t q; (i t q lq)^dagger = -i t lq q = -i t q lq - t
        it = sp.I * t_sym
        assert q_op().scale(it).dagger().coefficient((1, 0, 0, 0)) == -it
        moved = (q_op() * lq_op()).scale(it).dagger()
        assert moved.coefficient((1, 0, 1, 0)) == -it
        assert moved.coefficient((0, 0, 0, 0)) == -t_sym


class TestCoefficientBoundary:
    def test_constructor_takes_sympy_integers(self):
        x = OperatorPoly(KVN, {(1, 0, 2, 0): sp.Integer(3)})
        x = x + OperatorPoly(KVN, {(1, 0, 2, 0): sp.Integer(-1)})
        assert x.equals((q_op() * lq_op() * lq_op()).scale(2))
        x = x + OperatorPoly(KVN, {(1, 0, 2, 0): -2})
        assert x.is_zero()

    @pytest.mark.parametrize("key", [(1.5, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0), (1, 0, 0, 0, 0)])
    def test_exponent_keys_are_four_non_negative_integers(self, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            OperatorPoly(KVN, {key: 1})

    def test_integral_float_exponents_read_as_ints(self):
        assert OperatorPoly(KVN, {(2.0, 0, 0, 0): 1}).terms == {(2, 0, 0, 0): {(0, 0, 0, 0, 0): 1}}

    def test_sympy_input_lands_in_the_ring(self):
        x = OperatorPoly.scalar(KVN, sp.I * t_sym / hbar + hbar / 2 + 3)
        assert x.terms == {(0, 0, 0, 0): {
            (1, -1, 1, 0, 0): 1, (0, 1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0, 0): 3,
        }}
        assert not any(isinstance(v, sp.Basic) for v in x.terms[(0, 0, 0, 0)].values())
        # cosh(alpha) and its exponential form land on the same exp(+-alpha) keys
        exp_form = (sp.exp(alpha_sym) + sp.exp(-alpha_sym)) / 2
        assert q_op().scale(sp.cosh(alpha_sym)).terms == q_op().scale(exp_form).terms
        for outside in (sp.exp(hbar), sp.sqrt(2), sp.pi, sp.exp(alpha_sym / 3),
                        sp.oo, -sp.oo, sp.nan):
            with pytest.raises(TypeError, match="Laurent"):
                OperatorPoly.scalar(KVN, outside)

    def test_laurent_coefficient_round_trip(self):
        got = leak_detect(q_op() * lq_op()).converted.coefficient((1, 0, 1, 0))
        assert isinstance(got, sp.Expr)
        assert got == 1 / (2 * hbar)

    def test_whole_values_stay_ints(self):
        # the seeded observables of bench/'s operator batch, at seed 602:
        # 448 of the 672 coefficient values of these results were once
        # Fraction(k, 1), which costs more in every later product than an int
        workloads = _bench_workloads()
        results = []
        for terms in workloads.observables(602):
            expr = sum(c * q_c**a * p_c**b for c, a, b in terms)
            results += [(expr, build_C_hbar(expr)),
                        (expr, c_hbar_series(expr, workloads.series_order(terms)))]
        # and the sums, scalings and adjoints of the opalg suite
        half = OperatorPoly.scalar(KVN, Fraction(1, 2))
        results += [("sum", half + OperatorPoly.scalar(KVN, Fraction(3, 2))),
                    ("scale", half.scale(2)),
                    ("product", q_op().scale(Fraction(1, 2)) * lq_op().scale(2))]
        Q = bopp_operators()[0]
        for n in (1, 3, 4):
            a = lms_quantum_generator(MonomialPotential(1.0, float(n)))
            results += [(n, a), (n, a.dagger()), (n, commutator(a, Q))]
        for name, x in results:
            whole = [v for c in x.terms.values() for v in c.values()
                     if isinstance(v, Fraction) and v.denominator == 1]
            assert whole == [], name

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError, match="0.5"):
            OperatorPoly.scalar(KVN, 0.5)
        with pytest.raises(TypeError, match="0.25"):
            q_op().scale(sp.Float(0.25) * hbar)

    def test_float_in_coefficient_dict_rejected(self):
        with pytest.raises(TypeError, match="0.5"):
            OperatorPoly(KVN, {(1, 0, 0, 0): {(0, 0, 0, 0, 0): 0.5}})

    def test_hbar_limit_of_negative_power_raises(self):
        with pytest.raises(SingularHbarLimit, match=r"\(\d, \d, \d, \d\)"):
            leak_detect(q_op() * lq_op()).converted.hbar_limit()
        assert issubclass(SingularHbarLimit, KvnLabError)

    def test_quartic_generator_prints_in_normal_order(self):
        got = str(build_G(MonomialPotential(1, 4)))
        assert got == "p*lq - hbar**2/4*q*lp**3 - q**3*lp"


class TestCanonicalPairs:
    def test_position_algebra_commutators(self):
        q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
        i_one = OperatorPoly.scalar(KVN, sp.I)
        assert commutator(q, lq).equals(i_one)
        assert commutator(p, lp).equals(i_one)
        for a, b in ((q, p), (q, lp), (p, lq), (lq, lp)):
            assert commutator(a, b).is_zero()

    def test_shifted_pairs_close_two_heisenberg_copies(self):
        Q, P, Qb, Pb = bopp_operators()
        i_hb = OperatorPoly.scalar(KVN, sp.I * hbar)
        assert commutator(Q, P).equals(i_hb)
        assert commutator(Qb, Pb).equals(i_hb.scale(-1))
        for a, b in ((Q, Qb), (Q, Pb), (P, Qb), (P, Pb)):
            assert commutator(a, b).is_zero()

    def test_basis_roundtrip(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(20):
            a = _rand_poly(rng, KVN)
            assert bopp_to_kvn(kvn_to_bopp(a)).equals(a)

    def test_abstract_split_roundtrip(self):
        import numpy as np

        rng = np.random.default_rng(4)
        for _ in range(20):
            a = _rand_poly(rng, BOPP)
            assert kvn_to_bopp(bopp_to_kvn(a)).equals(a)

    def test_position_is_not_unbarred(self):
        rep = leak_detect(q_op())
        assert rep.leaks
        # q = (Q + Qbar)/2
        half = sp.Rational(1, 2)
        assert rep.converted.coefficient((1, 0, 0, 0)) == half
        assert rep.converted.coefficient((0, 1, 0, 0)) == half


class TestGeneratorConstruction:
    def test_quartic_generator_closed_form(self):
        G = build_G(MonomialPotential(1.0, 4.0))
        q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
        expected = (
            lq * p
            - lp * q * q * q
            - (lp * lp * lp * q).scale(hbar**2 * sp.Rational(1, 4))
        )
        assert G.equals(expected)

    def test_harmonic_generator_is_classical(self):
        G = build_G(MonomialPotential(1.0, 2.0))
        assert G.equals(G.hbar_limit())

    @pytest.mark.parametrize("n,jmax", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)])
    def test_series_terminates(self, n, jmax):
        pot = MonomialPotential(1.0, float(n))
        assert build_G(pot).equals(build_series_G(pot, jmax))

    def test_series_stable_past_termination(self):
        pot = MonomialPotential(1.0, 4.0)
        assert build_series_G(pot, 1).equals(build_series_G(pot, 5))

    @pytest.mark.parametrize("g,expected", [
        (0.1, sp.Rational(-1, 10)),
        (1 / 3, sp.Rational(-1, 3)),
        # an integral float is the int it equals, every digit of it
        (2.0**52 + 1, -4503599627370497),
        (2.0**60, -1152921504606846976),
    ])
    def test_coupling_is_read_exactly(self, g, expected):
        assert build_G(MonomialPotential(g, 4.0)).coefficient((3, 0, 0, 1)) == expected

    def test_fractional_exponent_rejected(self):
        with pytest.raises(NonPolynomialPotential):
            build_G(MonomialPotential(1.0, 2.5))
        with pytest.raises(NonPolynomialPotential):
            build_G(MonomialPotential(1.0, -2.0))

    def test_observable_qp_needs_symmetric_ordering(self):
        # C = qp: plain QP-ordered substitution leaves a spurious constant;
        # the symmetric route lands exactly on q lq - p lp
        got = build_C_hbar(q_c * p_c)
        q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
        assert got.equals(q * lq - p * lp)

    def test_observable_q_moves_lp(self):
        assert build_C_hbar(q_c).equals(lp_op().scale(-1))

    def test_observable_p_moves_lq(self):
        assert build_C_hbar(p_c).equals(lq_op())

    def test_chbar_equals_own_series(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(30):
            expr = sum(
                int(rng.integers(-2, 3)) * q_c ** int(rng.integers(0, 4))
                * p_c ** int(rng.integers(0, 3))
                for _ in range(3)
            )
            if expr.is_zero():
                continue
            jmax = max(0, (expr.total_degree() - 1) // 2)
            assert build_C_hbar(expr).equals(c_hbar_series(expr, jmax))

    def test_chbar_equals_own_series_quartic_q(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(30):
            expr = sum(
                int(rng.integers(-3, 4)) * q_c ** int(rng.integers(0, 5))
                * p_c ** int(rng.integers(0, 3))
                for _ in range(3)
            )
            if expr.is_zero():
                continue
            jmax = max(0, (expr.total_degree() - 1) // 2)
            assert build_C_hbar(expr).equals(c_hbar_series(expr, jmax))

    def test_hbar_limit_is_classical_field(self):
        import numpy as np

        rng = np.random.default_rng(6)
        for _ in range(30):
            expr = sum(
                int(rng.integers(-2, 3)) * q_c ** int(rng.integers(0, 4))
                * p_c ** int(rng.integers(0, 3))
                for _ in range(3)
            )
            if expr.is_zero():
                continue
            lhs = build_C_hbar(expr).hbar_limit()
            assert lhs.equals(classical_vector_field(expr))

    def test_inexact_division_raises(self):
        # q alone is not divisible by hbar
        with pytest.raises(InexactHbarDivision):
            from kvnlab.opalg import _divide_by_hbar

            _divide_by_hbar(q_op())


class TestMemoisedImages:
    """The monomial images behind build_C_hbar, kvn_to_bopp and bopp_to_kvn
    are built once per process; these pin that reuse and that no caller can
    reach a cached coefficient dict."""

    def test_same_monomials_need_no_operator_product(self, monkeypatch):
        build_C_hbar(3 * q_c**3 * p_c**2 - 2 * q_c * p_c + 5 * p_c**3)
        # writing C multiplies operators, so it is written before the count
        expr = -7 * q_c**3 * p_c**2 + 4 * q_c * p_c - p_c**3 / 3
        calls = []
        mul = OperatorPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(OperatorPoly, "__mul__", counting)
        got = build_C_hbar(expr)
        assert calls == []
        monkeypatch.undo()
        assert got.equals(c_hbar_series(expr, 2))

    def test_returned_operators_do_not_alias_the_caches(self):
        expr = 2 * q_c**2 * p_c - 3 * p_c**2 + q_c**4 / 4

        def results():
            built = build_C_hbar(expr)
            return built, kvn_to_bopp(built), leak_detect(built).converted

        first = results()
        expected = [{key: dict(c) for key, c in x.terms.items()} for x in first]
        for x in first:
            for c in x.terms.values():
                for m in c:
                    c[m] = 99
                c[(1, 5, 0, 0, 0)] = 7
            x.terms[(9, 9, 9, 9)] = {(0, 0, 0, 0, 0): 1}
        assert [x.terms for x in results()] == expected

    @pytest.mark.parametrize("b", range(4))
    @pytest.mark.parametrize("a", range(7))
    def test_monomial_equals_its_series(self, a, b):
        expr = q_c**a * p_c**b
        jmax = max(0, (a + b - 1) // 2)
        assert build_C_hbar(expr).equals(c_hbar_series(expr, jmax))

    @pytest.mark.parametrize("algebra", [KVN, BOPP], ids=["kvn", "bopp"])
    def test_every_low_monomial_round_trips(self, algebra):
        there, back = (kvn_to_bopp, bopp_to_kvn) if algebra is KVN else (bopp_to_kvn, kvn_to_bopp)
        for key in itertools.product(range(5), repeat=4):
            if sum(key) <= 4:
                m = OperatorPoly(algebra, {key: 1})
                assert back(there(m)) == m

    def test_every_call_on_a_bad_observable_raises(self):
        q, p = sp.symbols("q_c p_c", real=True)
        for _ in range(2):
            with pytest.raises(NonPolynomialPotential):
                build_C_hbar(1 / q)
            with pytest.raises(NonPolynomialPotential):
                c_hbar_series(sp.sin(p), 1)
        # the ring holds no such observable, so writing one fails at once
        for write in (lambda: q_c ** -1, lambda: q_c ** 0.5, lambda: 1 / q_c):
            with pytest.raises(TypeError):
                write()


class TestObservablesInTheRing:
    """q_c and p_c are the ring's commuting q and p; a sympy observable over
    symbols named q_c and p_c is still read at the boundary. Both routes
    give one result."""

    @pytest.mark.parametrize("seed", range(30))
    def test_native_and_sympy_observables_agree(self, seed):
        q, p = sp.symbols("q_c p_c", real=True)
        workloads = _bench_workloads()
        for terms in workloads.observables(seed):
            native = sum(c * q_c**a * p_c**b for c, a, b in terms)
            symbolic = sum(c * q**a * p**b for c, a, b in terms)
            x, y = build_C_hbar(native), build_C_hbar(symbolic)
            assert x.terms == y.terms
            assert str(x) == str(y)
            jmax = workloads.series_order(terms)
            assert c_hbar_series(native, jmax).terms == c_hbar_series(symbolic, jmax).terms

    def test_ring_coefficients_multiply_from_either_side(self):
        q = sp.Symbol("q_c", real=True)
        expected = OperatorPoly(KVN, {(1, 0, 0, 0): hbar})
        assert (hbar * q_c).equals(expected)
        assert (q_c * hbar).equals(expected)
        assert build_C_hbar(hbar * q_c).terms == build_C_hbar(hbar * q).terms

    def test_division_keeps_whole_values_ints(self):
        third = p_c**3 / 3
        assert third.terms == {(0, 3, 0, 0): {(0, 0, 0, 0, 0): Fraction(1, 3)}}
        whole = (6 * p_c**3) / Fraction(3)
        assert whole.terms == {(0, 3, 0, 0): {(0, 0, 0, 0, 0): 2}}
        assert type(whole.terms[0, 3, 0, 0][0, 0, 0, 0, 0]) is int
        assert build_C_hbar(third).terms == build_C_hbar(sp.Symbol("p_c", real=True)**3 / 3).terms

    def test_float_coefficient_is_refused_when_c_is_written(self):
        with pytest.raises(TypeError, match="floating-point"):
            0.5 * q_c  # noqa: B018

    @pytest.mark.parametrize("x", [lq_op(), lp_op() * q_op(), OperatorPoly.generator(BOPP, 0)],
                             ids=["lq", "q-lp", "bopp"])
    def test_operand_outside_the_q_p_ring_raises(self, x):
        with pytest.raises(NonPolynomialPotential):
            build_C_hbar(x)
        with pytest.raises(NonPolynomialPotential):
            c_hbar_series(x, 1)


class TestSimilarityGenerator:
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_hermitian(self, n):
        a = lms_quantum_generator(MonomialPotential(1.0, float(n)))
        assert a.equals(a.dagger())

    def test_harmonic_variant_hermitian_commutes(self):
        harm = MonomialPotential(1.0, 2.0)
        a = lms_quantum_generator(harm)
        assert a.equals(a.dagger())
        assert commutator(a, build_G(harm)).is_zero()

    def test_harmonic_variant_form(self):
        a = lms_quantum_generator(MonomialPotential(1.0, 2.0))
        q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
        # lq q + p lp = q lq + p lp - i
        expected = q * lq + p * lp - OperatorPoly.scalar(KVN, sp.I)
        assert a.equals(expected)

    @pytest.mark.parametrize("n,qbar_coeff", [
        (1, sp.Rational(-3, 2)),
        (3, sp.Rational(5, 2)),
        (4, sp.Rational(3, 2)),
        (5, sp.Rational(7, 6)),
    ])
    def test_position_adjoint_leaks(self, n, qbar_coeff):
        pot = MonomialPotential(1.0, float(n))
        a = lms_quantum_generator(pot)
        Q = bopp_operators()[0]
        moved = kvn_to_bopp(adjoint_infinitesimal(a, Q))
        got = sp.expand(moved.coefficient((0, 1, 0, 0)))
        assert sp.expand(got - qbar_coeff * alpha_sym) == 0
        rep_barred = [k for k in moved.terms if k[1] > 0 or k[3] > 0]
        assert rep_barred

    def test_unbarred_observables_stay_unbarred_under_G(self):
        # the evolution generator maps the (Q, P) algebra into itself
        pot = MonomialPotential(1.0, 4.0)
        G = build_G(pot)
        Q, P = bopp_operators()[0], bopp_operators()[1]
        obs = Q * Q + P.scale(sp.Integer(2))
        moved = commutator(G, obs)
        assert not leak_detect(moved).leaks

    def test_finite_harmonic_adjoint_hyperbolic(self):
        harm = MonomialPotential(1.0, 2.0)
        a = lms_quantum_generator(harm)
        Q, P, Qb, Pb = bopp_operators()
        ch, sh = sp.cosh(alpha_sym), sp.sinh(alpha_sym)

        movedQ = kvn_to_bopp(adjoint_finite_quadratic(a, Q))
        qa = OperatorPoly.generator(BOPP, 0)
        qba = OperatorPoly.generator(BOPP, 1)
        assert movedQ.equals(qa.scale(ch) + qba.scale(sh))

        movedP = kvn_to_bopp(adjoint_finite_quadratic(a, P))
        pa = OperatorPoly.generator(BOPP, 2)
        pba = OperatorPoly.generator(BOPP, 3)
        assert movedP.equals(pa.scale(ch) + pba.scale(sh))

    def test_finite_matches_infinitesimal_to_second_order(self):
        harm = MonomialPotential(1.0, 2.0)
        a = lms_quantum_generator(harm)
        Q = bopp_operators()[0]
        fin = adjoint_finite_quadratic(a, Q)
        lin = adjoint_infinitesimal(a, Q)
        for key in set(fin.terms) | set(lin.terms):
            diff = sp.expand(fin.coefficient(key) - lin.coefficient(key))
            series = sp.series(diff.rewrite(sp.exp), alpha_sym, 0, 2).removeO()
            assert sp.simplify(series) == 0, key

    @pytest.mark.parametrize("name", ["harmonic", "n1", "nilpotent", "jordan"])
    def test_finite_adjoint_matches_matrix_exponential(self, name):
        # The reference exponentiates the 5x5 matrix through its Jordan
        # form; "n1" has t off the diagonal, "nilpotent" and "jordan" are
        # defective (s^j exp(mu s) terms).
        q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
        A = {
            "harmonic": lms_quantum_generator(MonomialPotential(1.0, 2.0)),
            "n1": lms_quantum_generator(MonomialPotential(1.0, 1.0)),
            "nilpotent": lq * p,
            "jordan": lq * q + lq * p + lp * p + lp.scale(3),
        }[name]
        X = q + p.scale(2) - lq + lp.scale(sp.Rational(3, 2)) + OperatorPoly.scalar(KVN, 5)
        keys = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
        cols = [commutator(A, OperatorPoly(KVN, {key: 1})).scale(sp.I) for key in keys]
        m = sp.Matrix([[col.coefficient(key) for col in cols] for key in keys])
        ref = (alpha_sym * m).exp() * sp.Matrix([X.coefficient(key) for key in keys])
        got = adjoint_finite_quadratic(A, X)
        assert got.equals(OperatorPoly(KVN, dict(zip(keys, ref))))
        assert all(type(v) in (int, Fraction) for c in got.terms.values() for v in c.values())

    @pytest.mark.parametrize("name", ["rotation", "half"])
    def test_eigenvalues_outside_the_ring_raise(self, name):
        # i[A, .] has eigenvalues +-i or +-1/2, so exp(alpha m) needs
        # exp(+-i alpha) or exp(+-alpha/2), which are not ring coefficients
        q, p, lq, lp = q_op(), p_op(), lq_op(), lp_op()
        A = {"rotation": q * lp - p * lq,
             "half": (lq * q + q * lq).scale(sp.Rational(1, 4))}[name]
        with pytest.raises(TypeError, match="Laurent"):
            adjoint_finite_quadratic(A, q + p.scale(2) - lq)

    def test_nonquadratic_generator_rejected(self):
        quart = lms_quantum_generator(MonomialPotential(1.0, 4.0))
        with pytest.raises(NonQuadraticGenerator):
            adjoint_finite_quadratic(quart, bopp_operators()[0])


class TestLinearBasis:
    def test_rejects_quadratic(self):
        # the finite adjoint acts on the affine-linear span of (q, p, lq, lp, 1)
        harm = lms_quantum_generator(MonomialPotential(1.0, 2.0))
        with pytest.raises(NonQuadraticGenerator):
            adjoint_finite_quadratic(harm, q_op() * q_op())


class TestNoGo:
    def test_inverse_square_is_the_exception(self):
        res = no_go_standard_qm(-2)
        assert res.consistent
        assert res.gap == 0
        assert sp.simplify(res.alpha_tilde - sp.Rational(-1, 2)) == 0

    @pytest.mark.parametrize("n,gap", [(1, 3), (3, -5), (4, -3), (2.5, -9)])
    def test_generic_exponents_obstructed(self, n, gap):
        res = no_go_standard_qm(n)
        assert not res.consistent
        assert sp.simplify(res.gap - gap) == 0
        assert res.alpha_tilde is None

    def test_harmonic_not_covered(self):
        with pytest.raises(HarmonicCaseError):
            no_go_standard_qm(2)

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_exponent_rejected(self, n):
        with pytest.raises(UndefinedError, match="finite"):
            no_go_standard_qm(n)

    def test_printed_values_are_the_report_strings(self):
        # the op-no-go check of the report records str(gap) and str(alpha_tilde)
        got = {n: (str(res.gap), str(res.alpha_tilde))
               for n in (-2, 1, 3, 4) for res in [no_go_standard_qm(float(n))]}
        assert got == {-2: ("0", "-1/2"), 1: ("3", "None"), 3: ("-5", "None"),
                       4: ("-3", "None")}
