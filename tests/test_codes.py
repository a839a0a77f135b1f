import dataclasses
import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import canonical_basis_error, random_code, rational_support_rank, span_words
from shared_codes import c8
from test_acceptance import budget
from starshift import codes, gf2
from starshift.codes import BinaryCode, code_from_generators
from starshift.errors import CodeFileError, DegenerateCodeError, GuardExceededError
from starshift.gf2 import F2Matrix, F2Vector


# (length, canonical basis rows, kernel witness) for seeded random
# generator matrices with planted zero and duplicated columns, plus the
# zero code.  The witness has one character per coordinate, '+' for 1
# and '-' for -1, and is None when the verdict is True.  Recorded from
# the earlier implementation, which eliminated every codeword support in
# exact fractions.
PINNED_NONDEGENERACY = [
    (7, "1000010 0100010 0010010 0001000 0000100 0000001", None),
    (3, "100 001", "0+0"),
    (1, "1", None),
    (4, "0101 0010", "+000"),
    (4, "1000 0100 0010 0001", None),
    (10, "1000000001 0100010001 0010010010 0001010010 0000110011 0000001011", "0000000+00"),
    (10, "1000000000 0100000000 0010000000 0001000000 0000100000 0000010001 0000001000"
         " 0000000100 0000000010", "00000+000-"),
    (6, "100110 010100 000001", "00+000"),
    (4, "1010 0110 0001", None),
    (8, "10000000 01000000 00100000 00010000 00001000 00000100 00000010", "0000000+"),
    (10, "1000111110 0100110101 0010101101 0001110000", "+0000000-0"),
    (8, "10000001 01000000 00100011 00001000 00000101", "000+0000"),
    (8, "10000000 01001000 00101000 00011000 00000101 00000011", None),
    (5, "10000 00101 00011", "0+000"),
    (2, "11", "+-"),
    (4, "1001 0010", "0+00"),
    (6, "100000 010001 001000 000101 000011", None),
    (9, "100000000 010000000 001000000 000100010 000001010 000000110 000000001", "0000+0000"),
    (3, "101 010", "+0-"),
    (11, "10000010111 01001111101 00100011110 00010101101", "0+00-000000"),
    (12, "100001101010 010001001001 001000100110 000100001101 000011001010 000000011100", None),
    (3, "100 001", "0+0"),
    (3, "101 010", "+0-"),
    (5, "10000 01100 00010", "0+-00"),
    (12, "100000001001 010000001001 001000001000 000100001001 000010001001 000001001001"
         " 000000100001 000000011001 000000000100 000000000010", None),
    (7, "1001011 0101010 0010011", "0000+00"),
    (12, "100001000111 010001000000 001000010011 000100010100 000011000000 000000110011"
         " 000000001111", "0000000000+-"),
    (11, "10000000000 01000000000 00100000000 00010000000 00000110000 00000001000 00000000100"
         " 00000000010 00000000001", "0000+000000"),
    (2, "10 01", None),
    (9, "010000101 001001001 000101110 000011010", "+00000000"),
    (9, "100101000 010101000 001001100 000011000 000000010 000000001", "00+000-00"),
    (1, "", "+"),
    (2, "10 01", None),
    (10, "1001001000 0101001010 0010001100 0000101110 0000011010", "000000000+"),
    (9, "100000011 010000110 001000010 000100010 000010010 000001011", "0+0000-00"),
    (9, "010000000 001000000 000100010 000010001 000001010 000000100", "+00000000"),
    (6, "100110 010101 001111", None),
    (11, "10000010000 01000011011 00100101000 00010110001 00001100010", "00000000+00"),
    (11, "10000000100 01000000100 00100000001 00010000110 00001000110 00000100000 00000010100"
         " 00000001100", "00+0000000-"),
    (4, "1010 0100", "+0-0"),
    (5, "", "+0000"),
]


def small_codes(max_len=10, max_gens=4):
    return st.integers(1, max_len).flatmap(
        lambda d: st.lists(
            st.integers(1, (1 << d) - 1), min_size=1, max_size=max_gens
        ).map(lambda rows: code_from_generators(F2Matrix(tuple(rows), d)))
    )


def codes_with_zero(max_len=8, max_gens=4):
    """Codes from any rows, zero rows and none at all included, so zero codes too."""
    return st.integers(1, max_len).flatmap(
        lambda d: st.lists(st.integers(0, (1 << d) - 1), max_size=max_gens).map(
            lambda rows: code_from_generators(F2Matrix(tuple(rows), d))
        )
    )


@st.composite
def basis_candidates(draw):
    """(width, rows): canonical bases and random rows, then a few edits.

    The edits plant zero rows, repeated or unordered pivots and
    unreduced rows.
    """
    width = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
    if draw(st.booleans()):
        rows = list(code_from_generators(F2Matrix(tuple(rows), width)).basis.rows)
    kinds = st.sampled_from(["zero", "repeat", "swap", "add"])
    edits = st.lists(st.tuples(kinds, st.integers(0, 5), st.integers(0, 5)), max_size=2)
    for kind, i, j in draw(edits):
        if kind == "zero":
            rows.insert(i % (len(rows) + 1), 0)
        elif rows:
            i, j = i % len(rows), j % len(rows)
            if kind == "repeat":
                rows.insert(j, rows[i])
            elif kind == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif i != j:
                rows[j] ^= rows[i]
    return width, tuple(rows)


class TestReferenceCode:
    def test_dimension(self):
        assert c8().length == 8
        assert c8().dim == 4

    def test_self_dual(self):
        assert codes.dual(c8()) == c8()

    def test_doubly_even_and_self_orthogonal(self):
        assert codes.weight_class(c8()) == "doubly-even"
        assert codes.is_self_orthogonal(c8())

    def test_contains_all_ones(self):
        assert codes.contains_all_ones(c8())

    def test_every_codeword_weight_divisible_by_four(self):
        for v in codes.codewords(c8()):
            assert gf2.weight(v) % 4 == 0

    def test_generator_rows_span_the_code(self):
        made = code_from_generators(codes.HAMMING8_GENERATORS)
        assert made == c8()
        assert span_words(made.basis.rows) == span_words(
            F2Matrix.from_strings(codes.HAMMING8_GENERATORS).rows
        )


class TestConstruction:
    def test_dependent_rows_collapse(self):
        c = code_from_generators(["110", "110"])
        assert c.dim == 1

    @pytest.mark.parametrize("rows", [[F2Vector(2, 3)], [3], 3])
    def test_rows_are_a_matrix_or_strings(self, rows):
        with pytest.raises(TypeError):
            code_from_generators(rows)

    def test_rows_sharing_a_low_pivot_take_one_step_each(self):
        # e_0 + e_j in increasing j: row j would walk the j - 1 pivots found
        # before it, unless the rows are taken in decreasing bit length
        n = 8000
        rows = F2Matrix(tuple(1 | 1 << j for j in range(1, n)), n)
        expected = codes.even_weight_code(n)
        with budget("code_from_generators on e_0 + e_j, n = 8000", 1.0):
            assert code_from_generators(rows) == expected

    def test_even_weight_code(self):
        for d in range(2, 9):
            e = codes.even_weight_code(d)
            assert e.dim == d - 1
            assert all(gf2.weight(v) % 2 == 0 for v in codes.codewords(e))
        with pytest.raises(ValueError):
            codes.even_weight_code(1)

    def test_full_and_repetition(self):
        assert codes.full_code(5).dim == 5
        rep = codes.repetition_code(3)
        assert {v.bits for v in codes.codewords(rep)} == {0, 7}

    def test_canonical_basis_enforced(self):
        with pytest.raises(ValueError):
            BinaryCode(F2Matrix((0b011, 0b110), 3))  # not reduced
        with pytest.raises(ValueError):
            BinaryCode(F2Matrix((0,), 3))  # zero row

    @given(basis_candidates())
    def test_canonical_check_matches_the_pairwise_oracle(self, case):
        width, rows = case
        basis = F2Matrix(rows, width)
        error = canonical_basis_error(rows)
        if error is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                BinaryCode(basis)
            return
        c = BinaryCode(basis)
        # equality, hashing and repr read only the basis
        assert c == BinaryCode(F2Matrix(rows, width))
        assert hash(c) == hash((basis,))
        assert repr(c) == f"BinaryCode(basis={basis!r})"
        assert c.length == width

    @given(st.integers(1, 12), st.lists(st.integers(0, (1 << 12) - 1)))
    def test_generator_output_is_canonical(self, width, rows):
        rows = tuple(r & ((1 << width) - 1) for r in rows)
        c = code_from_generators(F2Matrix(rows, width))
        assert canonical_basis_error(c.basis.rows) is None

    @given(small_codes(max_len=12, max_gens=6))
    def test_pivots_are_the_lowest_set_bits(self, c):
        # the echelon keys each row by its lowest set bit and shifts it down there
        pivots = [min(j for j in range(c.length) if r >> j & 1) for r in c.basis.rows]
        assert list(c.echelon) == pivots
        assert list(c.echelon.values()) == [r // (1 << p) for r, p in zip(c.basis.rows, pivots)]

    def test_direct_sum(self):
        s = codes.direct_sum(c8(), codes.full_code(2))
        assert s.length == 10
        assert s.dim == 6
        # first block stays the reference code, second block is free
        for v in c8().basis.row_vectors():
            assert codes.contains_vector(s, F2Vector(10, v.bits))
        assert codes.contains_vector(s, F2Vector(10, 1 << 8))
        assert codes.contains_vector(s, F2Vector(10, 1 << 9))


class TestDuality:
    def test_dual_of_even_is_repetition(self):
        for d in range(2, 13):
            assert codes.dual(codes.even_weight_code(d)) == codes.repetition_code(d)

    def test_dual_of_a_long_repetition_code_is_linear(self):
        # kernel rows in increasing free-column order all share pivot 0,
        # which made the elimination quadratic (8.6 s at this length)
        expected = codes.even_weight_code(8000)
        with budget("dual of repetition_code(8000)", 1.0):
            assert codes.dual(codes.repetition_code(8000)) == expected

    def test_dual_eliminates_only_its_kernel_rows(self, eliminations):
        # the canonical basis is already reduced: its kernel rows are read
        # straight off it, and only they are eliminated
        c = code_from_generators(["110100", "011010", "000111"])
        eliminations.clear()
        d = codes.dual(c)
        assert len(eliminations) == 1 and eliminations[0] != list(c.basis.rows)
        assert d.dim == 3
        assert all(gf2.dot(v, w) == 0 for v in c.basis.row_vectors() for w in d.basis.row_vectors())

    def test_a_code_reduces_its_dual_once(self, eliminations):
        c = code_from_generators(["110100", "011010", "000111"])
        eliminations.clear()
        first = codes.dual(c)
        assert codes.dual(c) is first
        assert len(eliminations) == 1

    def test_dual_size_guard_refuses_before_any_elimination(self, monkeypatch, eliminations):
        # a one-row code of length L has a dual of (L - 1) x L generator bits
        c = codes.repetition_code(8193)
        eliminations.clear()
        with pytest.raises(
            GuardExceededError,
            match=f"^dual of a code of length 8193 and dimension 1 has {8192 * 8193} generator bits, "
            f"guard is {codes.MAX_CODE_BITS}$",
        ):
            codes.dual(c)
        assert eliminations == []
        monkeypatch.setattr(codes, "MAX_CODE_BITS", 12)
        assert codes.dual(code_from_generators(["1001"])).dim == 3
        c = code_from_generators(["10001"])
        eliminations.clear()
        with pytest.raises(
            GuardExceededError, match="^dual of a code of length 5 and dimension 1 has 20 generator bits, guard is 12$"
        ):
            codes.dual(c)
        assert eliminations == []

    def test_dual_of_full_is_zero(self):
        z = codes.dual(codes.full_code(4))
        assert z.dim == 0

    @given(small_codes(max_len=16, max_gens=6))
    def test_dim_sum_and_double_dual(self, c):
        dc = codes.dual(c)
        assert c.dim + dc.dim == c.length
        assert codes.dual(dc) == c

    @given(small_codes(max_len=10, max_gens=4))
    def test_dual_orthogonality_exhaustive(self, c):
        dc = codes.dual(c)
        for v in codes.codewords(c):
            for w in dc.basis.row_vectors():
                assert gf2.dot(v, w) == 0


class TestMembership:
    def test_contains_vector(self):
        assert codes.contains_vector(c8(), F2Vector.from_string("11111111"))
        assert not codes.contains_vector(c8(), F2Vector.from_string("10000000"))
        with pytest.raises(ValueError):
            codes.contains_vector(c8(), F2Vector(7, 0))

    def test_is_subcode(self):
        rep = codes.repetition_code(8)
        assert codes.is_subcode(rep, c8())
        assert codes.is_subcode(c8(), codes.even_weight_code(8))
        assert not codes.is_subcode(codes.full_code(8), c8())
        with pytest.raises(ValueError):
            codes.is_subcode(rep, codes.full_code(4))

    @given(small_codes())
    def test_codeword_enumeration_matches_span(self, c):
        words = {v.bits for v in codes.codewords(c)}
        assert words == span_words(c.basis.rows)
        assert len(list(codes.codewords(c))) == 1 << c.dim

    def test_enumeration_guard(self):
        big = codes.full_code(25)
        with pytest.raises(GuardExceededError):
            list(codes.codewords(big))


class TestWeightClass:
    def test_examples(self):
        assert codes.weight_class(c8()) == "doubly-even"
        assert codes.weight_class(codes.even_weight_code(5)) == "even"
        assert codes.weight_class(code_from_generators(["1110"])) == "neither"

    @given(small_codes())
    def test_agrees_with_exhaustive_oracle(self, c):
        weights = [gf2.weight(v) for v in codes.codewords(c)]
        if all(w % 4 == 0 for w in weights):
            expected = "doubly-even"
        elif all(w % 2 == 0 for w in weights):
            expected = "even"
        else:
            expected = "neither"
        assert codes.weight_class(c) == expected

    def test_doubly_even_rows_that_meet_once_are_only_even(self):
        # two weight-4 rows sharing one site sum to a word of weight 6
        c = code_from_generators(["10111000", "01010110"])
        assert sorted(gf2.weight(v) for v in codes.codewords(c)) == [0, 4, 4, 6]
        assert codes.weight_class(c) == "even"

    def test_doubly_even_orthogonal_basis_theorem(self):
        # a doubly even pairwise-orthogonal basis forces every codeword
        # to doubly even weight and the code to be self-orthogonal
        cases = [
            c8(),
            code_from_generators(["11110000", "00001111"]),
            codes.direct_sum(c8(), c8()),
            codes.repetition_code(4),
        ]
        for c in cases:
            rows = c.basis.row_vectors()
            assert all(gf2.weight(v) % 4 == 0 for v in rows)
            assert all(
                gf2.dot(v, w) == 0 for i, v in enumerate(rows) for w in rows[i + 1 :]
            )
            assert all(gf2.weight(v) % 4 == 0 for v in codes.codewords(c))
            assert codes.is_self_orthogonal(c)
            assert codes.weight_class(c) == "doubly-even"

    def test_enumerates_no_codewords(self, monkeypatch):
        def refuse(c):
            raise AssertionError("codeword enumeration")

        monkeypatch.setattr(codes, "codewords", refuse)
        assert codes.weight_class(c8()) == "doubly-even"
        assert codes.weight_class(codes.even_weight_code(26)) == "even"
        assert codes.weight_class(codes.direct_sum(c8(), code_from_generators(["1100"]))) == "even"
        assert codes.weight_class(codes.full_code(30)) == "neither"
        assert codes.weight_class(codes.dual(codes.full_code(3))) == "doubly-even"

    def test_self_orthogonality_examples(self):
        assert codes.is_self_orthogonal(codes.even_weight_code(2))
        assert not codes.is_self_orthogonal(codes.full_code(2))


class TestSupportSum:
    def test_examples(self):
        r1 = F2Vector.from_string("11110000")
        assert codes.support_sum((3, -1, 2, 0, 0, 0, 0, 0), r1) == 4
        assert codes.support_sum((5,) * 8, F2Vector(8, 0)) == 0
        n = tuple(range(-20, 20))
        assert codes.support_sum(n, F2Vector.ones(40)) == sum(n)
        assert codes.support_sum(n, F2Vector(40, 1 << 39)) == 19
        with pytest.raises(ValueError):
            codes.support_sum((1, 2), F2Vector(3, 0))

    @given(
        st.integers(1, 12).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.integers(-(10**6), 10**6), min_size=d, max_size=d
                ),
                st.integers(0, (1 << d) - 1),
                st.integers(0, (1 << d) - 1),
            )
        )
    )
    def test_b_identity(self, data):
        m, xb, yb = data
        d = len(m)
        x, y = F2Vector(d, xb), F2Vector(d, yb)
        lhs = 2 * codes.support_sum(m, gf2.cw_product(x, y))
        rhs = (
            codes.support_sum(m, x)
            + codes.support_sum(m, y)
            - codes.support_sum(m, x + y)
        )
        assert lhs == rhs

    @given(
        st.integers(1, 40).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d),
                st.one_of(
                    st.just(0), st.just((1 << d) - 1), st.integers(0, (1 << d) - 1)
                ),
            )
        )
    )
    def test_agrees_with_the_site_oracle(self, data):
        n, bits = data
        v = F2Vector(len(n), bits)
        expected = sum(n[j] for j in range(len(n)) if v.bits >> j & 1)
        assert codes.support_sum(n, v) == expected
        with pytest.raises(ValueError, match="length mismatch"):
            codes.support_sum(n + [0], v)


class TestCodeHash:
    @given(small_codes(max_len=12, max_gens=5), st.randoms(use_true_random=False))
    def test_equal_codes_share_a_hash_and_a_weight_stream(self, c, rng):
        rows = list(c.basis.rows)
        # redundant rows: a zero row, a repeated row and sums of two rows
        extra = [0] + [rows[rng.randrange(len(rows))] for _ in range(2)]
        extra += [rows[rng.randrange(len(rows))] ^ rows[rng.randrange(len(rows))] for _ in range(2)]
        permuted = rows + extra
        rng.shuffle(permuted)
        twin = code_from_generators(F2Matrix(tuple(permuted), c.length))
        assert twin == c and twin is not c
        assert hash(twin) == hash(c) == hash((c.basis,))
        assert codes.codewords_by_weight(c) is codes.codewords_by_weight(twin)

    @given(codes_with_zero(max_len=10, max_gens=5))
    def test_the_hash_does_not_change_after_dual(self, c):
        before = hash(c)
        codes.dual(c)
        assert hash(c) == before == hash((c.basis,))
        assert hash(codes.dual(c)) == hash((codes.dual(c).basis,))

    def test_the_hash_is_not_a_field(self):
        c = codes.hamming8_code()
        fresh = BinaryCode(c.basis)
        hash(c)
        assert "_hash" in vars(c) and "_hash" not in vars(fresh)
        assert "_hash" not in {f.name for f in dataclasses.fields(c)}
        assert repr(c) == repr(fresh) == f"BinaryCode(basis={c.basis!r})"
        # equality reads the basis alone, not a held hash
        vars(fresh)["_hash"] = hash(c) + 1
        assert c == fresh


class TestNondegeneracy:
    @pytest.mark.parametrize("witness", [None, (1, -1), (0, 1), (0,) * 8 + (1, -1)])
    def test_verdict_is_the_absence_of_a_witness(self, witness):
        assert codes.NondegeneracyCertificate(witness).verdict is (witness is None)
        assert codes.NondegeneracyCertificate().verdict is True

    def test_reference_code_is_nondegenerate(self):
        cert = codes.is_integrally_nondegenerate(c8())
        assert cert.verdict and cert.kernel_witness is None

    def test_even2_is_degenerate_with_witness(self):
        cert = codes.is_integrally_nondegenerate(codes.even_weight_code(2))
        assert not cert.verdict
        assert cert.kernel_witness == (1, -1)
        for v in codes.codewords(codes.even_weight_code(2)):
            assert codes.support_sum(cert.kernel_witness, v) == 0

    def test_full_code_nondegenerate(self):
        assert codes.is_integrally_nondegenerate(codes.full_code(6)).verdict

    @given(small_codes(max_len=8))
    def test_degenerate_witness_annihilates_all_codewords(self, c):
        cert = codes.is_integrally_nondegenerate(c)
        if not cert.verdict:
            assert any(cert.kernel_witness)
            for v in codes.codewords(c):
                assert codes.support_sum(cert.kernel_witness, v) == 0

    @given(small_codes(max_len=8))
    def test_verdict_is_full_rational_support_rank(self, c):
        full = rational_support_rank(c) == c.length
        assert codes.is_integrally_nondegenerate(c).verdict == full

    def test_pinned_verdicts_and_witnesses(self):
        signs = {"+": 1, "-": -1, "0": 0}
        for length, rows, witness in PINNED_NONDEGENERACY:
            bits = tuple(F2Vector.from_string(r).bits for r in rows.split())
            c = code_from_generators(F2Matrix(bits, length))
            assert [str(v) for v in c.basis.row_vectors()] == rows.split()
            cert = codes.is_integrally_nondegenerate(c)
            expected = None if witness is None else tuple(signs[ch] for ch in witness)
            assert (cert.verdict, cert.kernel_witness) == (witness is None, expected), rows

    def test_verdict_enumerates_no_codewords(self, monkeypatch):
        def refuse(c):
            raise AssertionError("codeword enumeration")

        monkeypatch.setattr(codes, "codewords", refuse)
        monkeypatch.setattr(codes, "codewords_by_weight", refuse)
        check = codes.is_integrally_nondegenerate.__wrapped__
        assert check(c8()).verdict
        c = codes.direct_sum(c8(), codes.even_weight_code(2))
        assert check(c).kernel_witness == (0,) * 8 + (1, -1)

    def test_verdict_above_the_enumeration_guard(self):
        assert codes.full_code(30).dim > codes.ENUMERATION_GUARD_DIM
        assert codes.is_integrally_nondegenerate(codes.full_code(30)).verdict
        c = codes.direct_sum(codes.full_code(26), codes.even_weight_code(2))
        cert = codes.is_integrally_nondegenerate(c)
        assert not cert.verdict
        assert cert.kernel_witness == (0,) * 26 + (1, -1)

    def test_witness_for_unit_vector(self):
        w = codes.nondegeneracy_witness(c8(), (1, 0, 0, 0, 0, 0, 0, 0))
        assert str(w) == "11110000"
        assert codes.support_sum((1, 0, 0, 0, 0, 0, 0, 0), w) == 1

    def test_witness_separates_sign_pair(self):
        n = (1, -1, 0, 0, 0, 0, 0, 0)
        w = codes.nondegeneracy_witness(c8(), n)
        hits = len({0, 1} & set(w.support()))
        assert hits == 1
        assert codes.support_sum(n, w) in (1, -1)

    def test_witness_on_full_code(self):
        n = (0, 0, -7, 0)
        w = codes.nondegeneracy_witness(codes.full_code(4), n)
        assert codes.support_sum(n, w) != 0

    def test_witness_enumeration_order(self):
        # increasing weight, then numeric bit pattern
        rng = random.Random(3)
        for _ in range(50):
            n = tuple(rng.randint(-50, 50) for _ in range(8))
            if not any(n):
                continue
            w = codes.nondegeneracy_witness(c8(), n)
            b = codes.support_sum(n, w)
            assert b != 0
            for v in codes.codewords_by_weight(c8()):
                if v == w:
                    break
                assert codes.support_sum(n, v) == 0

    def test_witness_errors(self):
        with pytest.raises(ValueError):
            codes.nondegeneracy_witness(c8(), (0,) * 8)
        with pytest.raises(ValueError):
            codes.nondegeneracy_witness(c8(), (1, 2))
        with pytest.raises(DegenerateCodeError) as exc:
            codes.nondegeneracy_witness(codes.even_weight_code(2), (1, -1))
        assert exc.value.kernel_witness == (1, -1)

    @pytest.mark.parametrize(
        "n",
        [[1.5, 0], [0.5, 0], [Fraction(1, 2), 0], [1, Fraction(3, 2)], [0, 1.0], ["1", 0]],
    )
    def test_witness_rejects_non_integer_entries(self, n):
        # int() would read 1.5 as 1 and 0.5 as 0, the zero vector
        with pytest.raises(ValueError, match="^entries of n must be integers$"):
            codes.nondegeneracy_witness(codes.full_code(2), n)

    def test_length_2000_codes(self):
        # 2,000 columns of about 2,000 bits each, read in one transpose
        even = codes.even_weight_code(2000)
        assert codes.is_integrally_nondegenerate(even) == codes.NondegeneracyCertificate()
        # no word has weight 1, and e_0 + e_1 is the first of weight 2
        assert codes.nondegeneracy_witness(even, (1,) + (0,) * 1999).support() == (0, 1)
        assert codes.nondegeneracy_witness(even, (1, -1) + (0,) * 1998).support() == (0, 2)
        split = codes.direct_sum(codes.full_code(1998), codes.even_weight_code(2))
        kernel = (0,) * 1998 + (1, -1)
        assert codes.is_integrally_nondegenerate(split) == codes.NondegeneracyCertificate(kernel)
        with pytest.raises(DegenerateCodeError) as exc:
            codes.nondegeneracy_witness(split, kernel)
        assert exc.value.kernel_witness == kernel
        assert codes.nondegeneracy_witness(split, (3,) + (0,) * 1999).support() == (0,)


class TestSeparable:
    @given(
        codes_with_zero().flatmap(
            lambda c: st.tuples(st.just(c), st.lists(st.integers(-2, 2), min_size=c.length, max_size=c.length))
        )
    )
    def test_agrees_with_every_codeword(self, case):
        c, n = case
        expected = any(_bits_support_sum(n, w) != 0 for w in span_words(c.basis.rows))
        assert codes.separable(c, n) == expected

    def test_zero_codes_and_length_one(self):
        for length in (1, 3):
            assert not codes.separable(code_from_generators(F2Matrix((), length)), (5,) * length)
        assert codes.separable(codes.full_code(1), (-1,))
        assert not codes.separable(codes.full_code(1), (0,))
        # the even-weight code of length 2 has the one class {0, 1}; that of
        # length 3 has the columns 10, 01 and 11, three classes
        assert not codes.separable(codes.even_weight_code(2), (4, -4))
        assert codes.separable(codes.even_weight_code(3), (4, -4, 0))

    @pytest.mark.parametrize("n", [(1, 0, 0), (1,), [1.5, 0], [0, Fraction(1, 2)], ["1", 0]])
    def test_refusals(self, n):
        with pytest.raises(ValueError):
            codes.separable(codes.full_code(2), n)


def _oracle_order(c):
    return sorted(span_words(c.basis.rows), key=lambda w: (bin(w).count("1"), w))


def _bits_support_sum(n, w):
    return sum(x for j, x in enumerate(n) if (w >> j) & 1)


def long_thin_codes():
    """Length 16..24 and dimension at most 3, so the stream falls back at weight 1."""
    random_rows = st.integers(16, 24).flatmap(
        lambda d: st.lists(st.integers(1, (1 << d) - 1), min_size=1, max_size=3).map(
            lambda rows: code_from_generators(F2Matrix(tuple(rows), d))
        )
    )
    repetitions = st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
        lambda parts: sum(parts) >= 16
    ).map(lambda parts: functools.reduce(codes.direct_sum, map(codes.repetition_code, parts)))
    return st.one_of(random_rows, repetitions)


def _refuse(c):
    raise AssertionError("codeword enumeration")


class TestWitnessStream:
    @given(
        st.one_of(small_codes(max_len=12, max_gens=10), long_thin_codes()).flatmap(
            lambda c: st.tuples(st.just(c), st.lists(st.integers(-2, 2), min_size=c.length, max_size=c.length))
        )
    )
    def test_order_and_witness_match_the_sorted_enumeration(self, case):
        c, n = case
        order = _oracle_order(c)
        expected = next((w for w in order if _bits_support_sum(n, w) != 0), None)
        codes.codewords_by_weight.cache_clear()
        for _ in range(2):  # the first query streams, the second reads the memo
            if not any(n):
                with pytest.raises(ValueError):
                    codes.nondegeneracy_witness(c, n)
            elif expected is None:
                with pytest.raises(DegenerateCodeError) as exc:
                    codes.nondegeneracy_witness(c, n)
                assert exc.value.kernel_witness == codes.is_integrally_nondegenerate(c).kernel_witness
            else:
                assert codes.nondegeneracy_witness(c, n).bits == expected
            assert [v.bits for v in codes.codewords_by_weight(c)] == order

    def test_iterations_share_one_stream(self):
        codes.codewords_by_weight.cache_clear()
        words = codes.codewords_by_weight(c8())
        first = iter(words)
        assert [next(first).bits for _ in range(3)] == _oracle_order(c8())[:3]
        assert [v.bits for v in words] == _oracle_order(c8())
        assert [v.bits for v in first] == _oracle_order(c8())[3:]
        assert codes.codewords_by_weight(c8()) is words

    def test_benchmark_shaped_code_enumerates_nothing(self, monkeypatch):
        rng = random.Random(20)
        c = code_from_generators(F2Matrix(tuple(rng.getrandbits(24) for _ in range(20)), 24))
        assert (c.length, c.dim) == (24, 20)
        monkeypatch.setattr(codes, "codewords", _refuse)
        codes.codewords_by_weight.cache_clear()
        for _ in range(50):
            n = tuple(rng.randint(-(10**6), 10**6) for _ in range(24))
            w = codes.nondegeneracy_witness(c, n)
            assert codes.contains_vector(c, w) and codes.support_sum(n, w) != 0

    def test_witness_above_the_enumeration_guard(self, monkeypatch):
        monkeypatch.setattr(codes, "codewords", _refuse)
        c = codes.full_code(26)
        assert c.dim > codes.ENUMERATION_GUARD_DIM
        n = (0,) * 7 + (-3,) + (0,) * 17 + (1,)
        assert codes.nondegeneracy_witness(c, n).support() == (7,)

    def test_inseparable_n_raises_without_enumerating(self, monkeypatch):
        monkeypatch.setattr(codes, "codewords", _refuse)
        for head in (c8(), codes.full_code(26)):
            c = codes.direct_sum(head, codes.even_weight_code(2))
            k = head.length
            with pytest.raises(DegenerateCodeError) as exc:
                codes.nondegeneracy_witness(c, (0,) * k + (1, -1))
            assert exc.value.kernel_witness == (0,) * k + (1, -1)

    def test_stream_stops_at_the_guard(self, monkeypatch):
        # dim 6 over a guard of 4: the 16 candidates allowed cover weights 0
        # and 1 only, and the first witness for e_0 has weight 2
        guard = codes.ENUMERATION_GUARD_DIM
        monkeypatch.setattr(codes, "ENUMERATION_GUARD_DIM", 4)
        codes.codewords_by_weight.cache_clear()
        c, n = codes.even_weight_code(7), (1,) + (0,) * 6
        for _ in range(2):  # the refusal does not end the memoised stream
            with pytest.raises(GuardExceededError):
                codes.nondegeneracy_witness(c, n)
        monkeypatch.setattr(codes, "ENUMERATION_GUARD_DIM", guard)
        assert codes.nondegeneracy_witness(c, n).support() == (0, 1)
        assert [v.bits for v in codes.codewords_by_weight(c)] == _oracle_order(c)


class TestStarClosure:
    def test_reference_pair(self):
        assert codes.star_closure_check(c8(), codes.even_weight_code(8))
        assert not codes.star_closure_check(codes.full_code(2), codes.even_weight_code(2))
        with pytest.raises(ValueError):
            codes.star_closure_check(c8(), codes.even_weight_code(4))

    @given(small_codes(max_len=8), st.randoms(use_true_random=False))
    def test_fast_path_agrees_with_exhaustive_pairs(self, c, rng):
        other = random_code(random.Random(rng.randint(0, 10**9)), c.length)
        expected = all(
            codes.contains_vector(other, gf2.cw_product(v, w))
            for v, w in itertools.product(codes.codewords(c), repeat=2)
        )
        assert codes.star_closure_check(c, other) == expected

    def test_subcode_and_closure_agree_with_spans(self):
        # the outer code often holds the inner rows and some of their
        # products, so each verdict comes out either way; closure implies
        # containment, as a * a = a
        rng = random.Random(14)
        verdicts = set()
        for _ in range(300):
            length = rng.randint(1, 7)
            inner = random_code(rng, length)
            rows = [r for r in inner.basis.rows if rng.random() < 0.9]
            rows += [a & b for a in inner.basis.rows for b in inner.basis.rows if rng.random() < 0.6]
            rows += [rng.getrandbits(length) for _ in range(rng.randint(0, 2))]
            outer = code_from_generators(F2Matrix(tuple(r for r in rows if r) or (1,), length))
            inner_words = span_words(inner.basis.rows)
            outer_words = span_words(outer.basis.rows)
            subcode = inner_words <= outer_words
            closed = all(a & b in outer_words for a in inner_words for b in inner_words)
            assert codes.is_subcode(inner, outer) == subcode
            assert codes.star_closure_check(inner, outer) == closed
            verdicts.add((subcode, closed))
        assert verdicts == {(False, False), (True, False), (True, True)}

    def test_closure_with_all_ones_forces_containment(self):
        rng = random.Random(9)
        found = 0
        while found < 20:
            c = random_code(rng, 6)
            if not codes.contains_all_ones(c):
                continue
            other = random_code(rng, 6)
            if codes.star_closure_check(c, other):
                assert codes.is_subcode(c, other)
                found += 1


class TestGeneratorFiles:
    def test_round_trip(self):
        text = codes.render_generator_file(c8(), header="reference code")
        assert text.startswith("# reference code\n")
        assert codes.parse_generator_file(text) == c8()

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n11\n# mid comment\n\n"
        c = codes.parse_generator_file(text)
        assert c == codes.even_weight_code(2)

    def test_ragged_rows_name_the_line(self):
        with pytest.raises(CodeFileError, match="line 3"):
            codes.parse_generator_file("# ok\n110\n1100\n")

    def test_invalid_characters_name_the_line(self):
        with pytest.raises(CodeFileError, match="line 2"):
            codes.parse_generator_file("101\n1x1\n")

    def test_file_guard_refuses_before_any_elimination(self, monkeypatch, eliminations):
        # rows x length, counted as parsed: 3 x 4 passes a guard of 12, 3 x 5 does not
        monkeypatch.setattr(codes, "MAX_CODE_BITS", 12)
        assert codes.parse_generator_file("1100\n0110\n0011\n").dim == 3
        eliminations.clear()
        with pytest.raises(GuardExceededError, match="^code file has 15 generator bits, guard is 12$"):
            codes.parse_generator_file("11000\n01100\n00110\n")
        assert eliminations == []

    def test_empty_file_rejected(self):
        with pytest.raises(CodeFileError):
            codes.parse_generator_file("# nothing here\n")

    def test_zero_code_renders_parseably(self):
        z = codes.dual(codes.full_code(3))
        text = codes.render_generator_file(z)
        parsed = codes.parse_generator_file(text)
        assert parsed.dim == 0 and parsed.length == 3

    @given(small_codes())
    def test_round_trip_random(self, c):
        assert codes.parse_generator_file(codes.render_generator_file(c)) == c
