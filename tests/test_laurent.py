import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laurent_ideal_member, random_code, random_poly, span_words
from shared_codes import c8, e2
from starshift import codes, laurent
from starshift.codes import code_from_generators
from starshift.errors import DegenerateCodeError, GuardExceededError
from starshift.gf2 import F2Matrix, F2Vector
from starshift.laurent import (
    LaurentPoly,
    LinearFormIdeal,
    annihilator_ideal,
    collapse_to_univariate,
    ideal_contains,
    linear_form,
    membership_cofactors,
    verify_cofactors,
)


def polys(max_arity=4, max_terms=8, exp_bound=3):
    return st.integers(1, max_arity).flatmap(
        lambda d: st.lists(
            st.tuples(*([st.integers(-exp_bound, exp_bound)] * d)),
            max_size=max_terms,
        ).map(lambda ts: LaurentPoly.from_terms(d, ts))
    )


def generator_codes(d, max_gens=3):
    """Codes of length d from any rows: zero codes and unit ideals included."""
    rows = st.lists(st.integers(0, (1 << d) - 1), max_size=max_gens)
    return rows.map(lambda rs: code_from_generators(F2Matrix(tuple(rs), d)))


def binomial_cases(max_arity=4, exp_bound=2):
    """(generator code, a, b) with a != b, for the binomial u^a + u^b."""

    def build(d):
        exps = st.tuples(*([st.integers(-exp_bound, exp_bound)] * d))
        return st.tuples(generator_codes(d), exps, exps).filter(lambda t: t[1] != t[2])

    return st.integers(1, max_arity).flatmap(build)


def poly_triples(max_arity=3, max_terms=5, exp_bound=2):
    def build(d):
        one = st.lists(
            st.tuples(*([st.integers(-exp_bound, exp_bound)] * d)), max_size=max_terms
        ).map(lambda ts: LaurentPoly.from_terms(d, ts))
        return st.tuples(one, one, one)

    return st.integers(1, max_arity).flatmap(build)


class TestRingLaws:
    @given(poly_triples())
    def test_associativity_and_commutativity(self, triple):
        p, q, r = triple
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(poly_triples())
    def test_distributivity(self, triple):
        p, q, r = triple
        assert p * (q + r) == p * q + p * r

    @given(polys())
    def test_characteristic_two(self, p):
        assert (p + p).is_zero
        assert p + LaurentPoly.zero(p.arity) == p
        assert p * LaurentPoly.one(p.arity) == p

    @given(polys(max_terms=5))
    def test_square_is_self_product(self, p):
        assert p.square() == p * p

    @given(polys(max_terms=4, exp_bound=2), st.integers(0, 5))
    def test_pow_matches_repeated_product(self, p, n):
        expected = LaurentPoly.one(p.arity)
        for _ in range(n):
            expected = expected * p
        assert p**n == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.variable(2, 0) ** -1

    @given(polys())
    def test_shift_round_trip(self, p):
        m = tuple(range(1, p.arity + 1))
        assert p.shifted(m).shifted(tuple(-e for e in m)) == p

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LaurentPoly.monomial([0.9, 1]),
            lambda: LaurentPoly.from_terms(2, [(1.5, 0)]),
            lambda: LaurentPoly.one(2).shifted((0.5, 2)),
            lambda: LaurentPoly.one(2).shifted((1.0, 0)),
            lambda: LaurentPoly.monomial([Fraction(1), 0]),
            lambda: LaurentPoly.from_terms(2, [("1", 0)]),
        ],
    )
    def test_non_integral_exponent_rejected(self, build):
        with pytest.raises(ValueError, match="integers"):
            build()

    def test_integer_like_exponents_are_accepted(self):
        assert LaurentPoly.monomial([True, 0]) == LaurentPoly.variable(2, 0)
        assert LaurentPoly.one(2).shifted([False, True]) == LaurentPoly.variable(2, 1)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.one(2) + LaurentPoly.one(3)
        with pytest.raises(ValueError):
            LaurentPoly.one(2) * LaurentPoly.one(3)


class TestRendering:
    def test_cases(self):
        assert str(LaurentPoly.zero(3)) == "0"
        assert str(LaurentPoly.one(3)) == "1"
        assert str(LaurentPoly.variable(3, 0)) == "u1"
        p = LaurentPoly.from_terms(3, [(2, 0, 1)])
        assert str(p) == "u1^2*u3"
        # term order is lexicographic on exponent tuples
        q = LaurentPoly.from_terms(2, [(1, 0), (0, 1), (0, 0)])
        assert str(q) == "1 + u2 + u1"
        neg = LaurentPoly.from_terms(1, [(-2,)])
        assert str(neg) == "u1^-2"


class TestLinearForms:
    def test_linear_form_terms(self):
        v = F2Vector.from_string("1010")
        p = linear_form(v)
        assert p == LaurentPoly.from_terms(4, [(1, 0, 0, 0), (0, 0, 1, 0)])

    def test_annihilator_generators_are_dual_forms(self):
        ideal = annihilator_ideal(c8())
        assert ideal.generator_code == codes.dual(c8())
        gens = ideal.generators
        assert len(gens) == 4
        for g, row in zip(gens, ideal.generator_code.basis.row_vectors()):
            assert g == linear_form(row)

    def test_ideal_validation(self):
        with pytest.raises(ValueError):
            LinearFormIdeal(4, codes.even_weight_code(3))


class TestMembershipOracle:
    """ideal_contains versus the independent cofactor-search oracle."""

    def test_random_queries_agree_with_oracle(self):
        rng = random.Random(17)
        checked_true = 0
        for _ in range(120):
            d = rng.randint(1, 4)
            gcode = random_code(rng, d, max_dim=min(3, d))
            ideal = LinearFormIdeal(d, gcode)
            if rng.random() < 0.5:
                q = random_poly(rng, d, max_terms=4, exp_bound=1)
            else:
                # combinations of the generators hit the member side
                q = LaurentPoly.zero(d)
                for g in ideal.generators:
                    q = q + random_poly(rng, d, max_terms=2, exp_bound=1) * g
            got = ideal_contains(ideal, q)
            expected = laurent_ideal_member(gcode, q)
            assert got == expected, f"d={d} gens={gcode.basis.rows} q={q}"
            if got:
                cof = membership_cofactors(ideal, q)
                assert cof is not None
                assert verify_cofactors(ideal, q, cof)
                checked_true += 1
        assert checked_true >= 20

    def test_membership_is_shift_invariant(self):
        # Laurent ideals absorb monomial units, so membership must not
        # depend on clearing denominators one way or another
        rng = random.Random(23)
        for _ in range(60):
            d = rng.randint(1, 3)
            gcode = random_code(rng, d, max_dim=min(3, d))
            ideal = LinearFormIdeal(d, gcode)
            q = random_poly(rng, d, max_terms=3, exp_bound=1)
            base = ideal_contains(ideal, q)
            for _ in range(3):
                shift = tuple(rng.randint(-2, 2) for _ in range(d))
                assert ideal_contains(ideal, q.shifted(shift)) == base

    def test_span_consistency_brute_force(self):
        # for proper ideals (no single-variable generator, which would be
        # a Laurent unit) a linear form is a member iff its vector lies
        # in the generator span; swept exhaustively in small dimension
        rng = random.Random(31)
        done = 0
        while done < 25:
            d = rng.randint(2, 6)
            gcode = random_code(rng, d, max_dim=d - 1)
            if any(r.bit_count() == 1 for r in gcode.basis.rows):
                continue
            done += 1
            ideal = LinearFormIdeal(d, gcode)
            for bits in range(1, 1 << d):
                v = F2Vector(d, bits)
                expected = codes.contains_vector(gcode, v)
                assert ideal_contains(ideal, linear_form(v)) == expected

    def test_zero_poly_and_zero_ideal(self):
        zero_ideal = LinearFormIdeal(3, codes.dual(codes.full_code(3)))
        assert ideal_contains(zero_ideal, LaurentPoly.zero(3))
        assert not ideal_contains(zero_ideal, LaurentPoly.one(3))
        some = LinearFormIdeal(3, codes.even_weight_code(3))
        assert ideal_contains(some, LaurentPoly.zero(3))

    def test_unit_ideal_contains_everything(self):
        unit = LinearFormIdeal(2, code_from_generators(["10"]))
        assert ideal_contains(unit, LaurentPoly.one(2))
        assert ideal_contains(unit, LaurentPoly.from_terms(2, [(3, -2)]))

    def test_monomials_never_members_of_proper_ideals(self):
        ideal = annihilator_ideal(e2())
        assert not ideal_contains(ideal, LaurentPoly.one(2))
        assert not ideal_contains(ideal, LaurentPoly.from_terms(2, [(5, -7)]))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            ideal_contains(annihilator_ideal(e2()), LaurentPoly.one(3))


class TestBinomialRule:
    """u^a + u^b against the cofactor-search oracle and the codeword span."""

    @given(binomial_cases())
    def test_binomials_agree_with_oracle(self, case):
        gcode, a, b = case
        q = LaurentPoly.from_terms(gcode.length, [a, b])
        assert ideal_contains(LinearFormIdeal(gcode.length, gcode), q) == laurent_ideal_member(gcode, q)

    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(generator_codes(d, max_gens=4), st.tuples(*([st.integers(-2, 2)] * d)))
        )
    )
    def test_annihilator_binomials_follow_the_codewords(self, case):
        # u^n + 1 annihilates X_C exactly when c has a zero column (a unit
        # generator in the dual) or no codeword of c separates n
        c, n = case
        words = span_words(c.basis.rows)
        zero_column = any(not any((w >> j) & 1 for w in words) for j in range(c.length))
        separated = any(sum(x for j, x in enumerate(n) if (w >> j) & 1) for w in words)
        q = LaurentPoly.from_terms(c.length, [n, (0,) * c.length])
        assert ideal_contains(annihilator_ideal(c), q) == (zero_column or not separated)


class TestFrozenMembershipFacts:
    def test_laurent_binomial_in_even2_annihilator(self):
        ideal = annihilator_ideal(e2())
        q = LaurentPoly.from_terms(2, [(1, -1), (0, 0)])
        assert ideal_contains(ideal, q)
        cof = membership_cofactors(ideal, q)
        assert cof is not None and verify_cofactors(ideal, q, cof)

    def test_unit_shift_binomial_not_in_reference_annihilator(self):
        ideal = annihilator_ideal(c8())
        q = LaurentPoly.from_terms(8, [(1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8])
        assert not ideal_contains(ideal, q)
        assert membership_cofactors(ideal, q) is None

    def test_generator_forms_are_members(self):
        ideal = annihilator_ideal(c8())
        for g in ideal.generators:
            assert ideal_contains(ideal, g)
            cof = membership_cofactors(ideal, g)
            assert cof is not None and verify_cofactors(ideal, g, cof)

    def test_huge_exponent_binomials_fast(self):
        ideal = annihilator_ideal(c8())
        rng = random.Random(47)
        for _ in range(50):
            n = tuple(rng.randint(-(10**6), 10**6) for _ in range(8))
            if not any(n):
                continue
            q = LaurentPoly.from_terms(8, [n, (0,) * 8])
            assert not ideal_contains(ideal, q)

    def test_huge_member_binomial(self):
        # u1^k + u2^k collapses into the even-weight annihilator
        ideal = annihilator_ideal(e2())
        k = 10**6
        q = LaurentPoly.from_terms(2, [(k, 0), (0, k)])
        assert ideal_contains(ideal, q)


class TestCofactors:
    def test_zero_poly_has_empty_certificate(self):
        assert membership_cofactors(annihilator_ideal(e2()), LaurentPoly.zero(2)) == []

    def test_zero_ideal_rejects_nonzero(self):
        zero_ideal = LinearFormIdeal(2, codes.dual(codes.full_code(2)))
        assert membership_cofactors(zero_ideal, LaurentPoly.one(2)) is None

    def test_unit_generator_certificate(self):
        unit = LinearFormIdeal(2, code_from_generators(["01"]))
        q = LaurentPoly.from_terms(2, [(2, 1), (0, 1)])
        cof = membership_cofactors(unit, q)
        assert cof is not None and len(cof) == 1
        assert verify_cofactors(unit, q, cof)

    def test_laurent_cofactors_carry_negative_exponents(self):
        ideal = annihilator_ideal(e2())
        q = LaurentPoly.from_terms(2, [(0, -3), (-3, 0)])
        cof = membership_cofactors(ideal, q)
        assert cof is not None and verify_cofactors(ideal, q, cof)
        assert any(
            any(e < 0 for t in poly.terms for e in t) for _, poly in cof
        )

    def test_verify_rejects_wrong_certificate(self):
        ideal = annihilator_ideal(e2())
        q = LaurentPoly.from_terms(2, [(1, -1), (0, 0)])
        wrong = [(ideal.generator_code.basis.row_vectors()[0], LaurentPoly.one(2))]
        assert not verify_cofactors(ideal, q, wrong)

    @settings(max_examples=40)
    @given(st.integers(0, 10**9))
    def test_round_trip_on_constructed_members(self, seed):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        gcode = random_code(rng, d, max_dim=min(3, d))
        ideal = LinearFormIdeal(d, gcode)
        q = LaurentPoly.zero(d)
        for g in ideal.generators:
            q = q + random_poly(rng, d, max_terms=3, exp_bound=2) * g
        assert ideal_contains(ideal, q)
        cof = membership_cofactors(ideal, q)
        assert cof is not None
        assert verify_cofactors(ideal, q, cof)
        for vec, _ in cof:
            assert codes.contains_vector(gcode, vec)


class TestBudgetGuards:
    def test_too_many_terms(self):
        ideal = annihilator_ideal(e2())
        terms = [(i, 0) for i in range(65)]
        with pytest.raises(GuardExceededError):
            ideal_contains(ideal, LaurentPoly.from_terms(2, terms))

    def test_degree_too_high_after_clearing(self):
        ideal = annihilator_ideal(e2())
        q = LaurentPoly.from_terms(2, [(100, 0), (0, 1), (0, 0)])
        with pytest.raises(GuardExceededError):
            ideal_contains(ideal, q)
        with pytest.raises(GuardExceededError):
            membership_cofactors(ideal, q)

    def test_the_budget_admits_its_bounds(self):
        # one query at the term bound (degree 63), one at the degree bound
        # (4 terms); both are members of (u1 + u2)
        ideal = annihilator_ideal(e2())
        g = linear_form(F2Vector.from_string("11"))
        half = laurent.MAX_EXPANSION_TERMS // 2
        at_terms = g * LaurentPoly.from_terms(2, [(2 * i, 0) for i in range(half)])
        at_degree = g * LaurentPoly.from_terms(2, [(laurent.MAX_EXPANSION_DEGREE - 1, 0), (0, 0)])
        assert len(at_terms.terms) == laurent.MAX_EXPANSION_TERMS
        assert at_degree.total_degree() == laurent.MAX_EXPANSION_DEGREE
        for q in (at_terms, at_degree):
            assert ideal_contains(ideal, q)
            assert verify_cofactors(ideal, q, membership_cofactors(ideal, q))

    def test_binomials_bypass_the_budget(self):
        ideal = annihilator_ideal(c8())
        q = LaurentPoly.from_terms(8, [(10**6,) + (0,) * 7, (0,) * 8])
        assert not ideal_contains(ideal, q)


class TestCollapse:
    @given(poly_triples(max_arity=3), st.integers(0, 7))
    def test_ring_homomorphism(self, triple, wbits):
        p, q, _ = triple
        w = F2Vector(p.arity, wbits & ((1 << p.arity) - 1))
        fp, fq = collapse_to_univariate(p, w), collapse_to_univariate(q, w)
        assert collapse_to_univariate(p + q, w) == fp + fq
        assert collapse_to_univariate(p * q, w) == fp * fq

    def test_monomial_lands_on_support_sum_power(self):
        rng = random.Random(3)
        for _ in range(100):
            d = rng.randint(1, 6)
            n = tuple(rng.randint(-9, 9) for _ in range(d))
            w = F2Vector(d, rng.getrandbits(d))
            img = collapse_to_univariate(LaurentPoly.from_terms(d, [n]), w)
            assert img == LaurentPoly.monomial([codes.support_sum(n, w)])

    def test_dual_forms_collapse_to_zero_on_codewords(self):
        # with the all-ones vector in the code, every codeword has even
        # overlap with every dual vector, so the collapse cancels pairwise
        for c in (c8(), codes.even_weight_code(6)):
            for v in codes.dual(c).basis.row_vectors():
                p = linear_form(v)
                for w in codes.codewords(c):
                    assert collapse_to_univariate(p, w).is_zero

    def test_zero_vector_collapses_to_coefficient_parity(self):
        p = LaurentPoly.from_terms(3, [(1, 2, 3), (4, 5, 6), (0, 0, 0)])
        img = collapse_to_univariate(p, F2Vector(3, 0))
        assert img == LaurentPoly.one(1)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            collapse_to_univariate(LaurentPoly.one(2), F2Vector(3, 0))


class TestMixingCertificate:
    def test_reference_code_unit_vector(self):
        w = laurent.mixing_certificate(c8(), (1, 0, 0, 0, 0, 0, 0, 0))
        assert str(w) == "11110000"

    def test_even8_sign_pair(self):
        w = laurent.mixing_certificate(codes.even_weight_code(8), (1, -1) + (0,) * 6)
        assert len({0, 1} & set(w.support())) == 1

    def test_degenerate_code_errors_with_witness(self):
        with pytest.raises(DegenerateCodeError) as exc:
            laurent.mixing_certificate(e2(), (1, -1))
        assert exc.value.kernel_witness == (1, -1)

    @pytest.mark.parametrize("entry", [1.5, 0.5, Fraction(1, 2), Fraction(2, 1)])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="^entries of n must be integers$"):
            laurent.mixing_certificate(c8(), (entry,) + (0,) * 7)

    def test_missing_all_ones_rejected(self):
        c = code_from_generators(["1100", "0110"])
        assert not codes.contains_all_ones(c)
        with pytest.raises(ValueError):
            laurent.mixing_certificate(c, (1, 0, 0, 0))

    def test_all_ones_decided_once_per_code(self, monkeypatch):
        calls = []
        real = codes.contains_all_ones
        monkeypatch.setattr(codes, "contains_all_ones", lambda c: calls.append(c) or real(c))
        codes.codewords_by_weight.cache_clear()
        missing = code_from_generators(["1100", "0110"])
        try:
            for n in [(1,) + (0,) * 7, (0, 1) + (0,) * 6, (1, 1) + (0,) * 5 + (-1,)]:
                laurent.mixing_certificate(c8(), n)
            for _ in range(2):
                with pytest.raises(ValueError):
                    laurent.mixing_certificate(missing, (1, 0, 0, 0))
        finally:
            codes.codewords_by_weight.cache_clear()
        assert calls == [c8(), missing]

    def test_certificate_collapses_to_nonzero_binomial(self):
        rng = random.Random(29)
        for _ in range(50):
            n = tuple(rng.randint(-(10**6), 10**6) for _ in range(8))
            if not any(n):
                continue
            w = laurent.mixing_certificate(c8(), n)
            q = LaurentPoly.from_terms(8, [n, (0,) * 8])
            img = collapse_to_univariate(q, w)
            assert not img.is_zero
            assert img == LaurentPoly.from_terms(1, [(0,), (codes.support_sum(n, w),)])


class TestEntropyVerdict:
    def test_verdicts(self):
        assert laurent.entropy_verdict(c8()) == laurent.ZERO_ENTROPY
        assert laurent.entropy_verdict(codes.even_weight_code(5)) == laurent.ZERO_ENTROPY
        assert laurent.entropy_verdict(codes.full_code(5)) == laurent.POSITIVE_ENTROPY
