import importlib
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import SpanSolver, span_words
import starshift
from starshift import gf2
from starshift.gf2 import F2Matrix, F2Vector


def vectors(min_len=1, max_len=16):
    return st.integers(min_len, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda b: F2Vector(n, b))
    )


def vector_pairs(max_len=16):
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(
            st.integers(0, (1 << n) - 1).map(lambda b: F2Vector(n, b)),
            st.integers(0, (1 << n) - 1).map(lambda b: F2Vector(n, b)),
        )
    )


def matrices(max_rows=6, max_cols=12):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1), max_size=max_rows).map(
            lambda rows: F2Matrix(tuple(rows), c)
        )
    )


class TestF2Vector:
    def test_string_round_trip(self):
        v = F2Vector.from_string("11110000")
        assert str(v) == "11110000"
        assert v.support() == (0, 1, 2, 3)
        assert gf2.weight(v) == 4

    def test_ones_and_units(self):
        assert F2Vector(3, 1 << 2).support() == (2,)
        assert F2Vector.ones(4).bits == 15
        assert F2Vector(4, 0).is_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            F2Vector(0, 0)
        with pytest.raises(ValueError):
            F2Vector(2, 4)
        with pytest.raises(ValueError):
            F2Vector.from_string("10x")
        with pytest.raises(ValueError):
            F2Vector.from_string("")
        with pytest.raises(ValueError):
            F2Vector(3, 1) + F2Vector(4, 1)

    def test_non_integer_bits_rejected(self):
        # 0 <= 1.5 < 2^3 holds, so a range test alone would let it through
        with pytest.raises(ValueError):
            F2Vector(3, 1.5)

    @given(vector_pairs())
    def test_addition_is_xor(self, pair):
        v, w = pair
        s = v + w
        assert s.bits == v.bits ^ w.bits
        assert (s + w).bits == v.bits


class TestElementaryOps:
    def test_weight_examples(self):
        assert gf2.weight(F2Vector.from_string("11110000")) == 4
        assert gf2.weight(F2Vector.from_string("10101010")) == 4
        assert gf2.weight(F2Vector(9, 0)) == 0

    def test_dot_examples(self):
        r1 = F2Vector.from_string("11110000")
        r4 = F2Vector.from_string("10101010")
        assert gf2.dot(r1, r4) == 0
        assert gf2.dot(r1, F2Vector(8, 0)) == 0
        assert gf2.dot(F2Vector.from_string("11"), F2Vector.from_string("10")) == 1

    def test_cw_product_examples(self):
        r1 = F2Vector.from_string("11110000")
        r4 = F2Vector.from_string("10101010")
        assert str(gf2.cw_product(r1, r4)) == "10100000"
        assert gf2.cw_product(r1, r1) == r1
        assert gf2.cw_product(r1, F2Vector.ones(8)) == r1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gf2.dot(F2Vector(2, 0), F2Vector(3, 0))
        with pytest.raises(ValueError):
            gf2.cw_product(F2Vector(2, 0), F2Vector(3, 0))

    @given(vector_pairs())
    def test_weight_identity(self, pair):
        v, w = pair
        lhs = gf2.weight(v + w)
        rhs = gf2.weight(v) + gf2.weight(w) - 2 * gf2.weight(gf2.cw_product(v, w))
        assert lhs == rhs

    @given(vector_pairs())
    def test_dot_is_overlap_parity(self, pair):
        v, w = pair
        assert gf2.dot(v, w) == gf2.weight(gf2.cw_product(v, w)) % 2


class TestRowReduce:
    @given(matrices())
    def test_rref_spans_the_same_space(self, m):
        rows, _ = gf2.reduced_rows(m.rows)
        assert span_words(tuple(rows)) == span_words(m.rows)

    @given(matrices())
    def test_rref_shape(self, m):
        rows, cols = gf2.reduced_rows(m.rows)
        assert all(rows) and len(rows) == len(cols) <= m.num_rows
        pivots = [(r & -r).bit_length() - 1 for r in rows]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        assert pivots == cols
        # full reduction: a pivot column is set in its own row only
        for p, r in zip(pivots, rows):
            assert sum((other >> p) & 1 for other in rows) == 1

    @given(matrices())
    def test_rank_matches_span_size(self, m):
        rows, _ = gf2.reduced_rows(m.rows)
        assert 1 << len(rows) == len(span_words(m.rows))

    @given(matrices())
    def test_idempotent(self, m):
        once = gf2.reduced_rows(m.rows)
        assert gf2.reduced_rows(once[0]) == once

    def test_known_ranks(self):
        m = F2Matrix.from_strings(["11110000", "00111100", "00001111", "10101010"])
        assert len(gf2.reduced_rows(m.rows)[0]) == 4
        assert gf2.reduced_rows((0, 0)) == ([], [])
        assert len(gf2.reduced_rows(F2Matrix.identity(7).rows)[0]) == 7

    @given(matrices(), st.integers(0, (1 << 12) - 1))
    def test_reduce_bits_decides_span_membership(self, m, probe_bits):
        probe = probe_bits & ((1 << m.cols) - 1)
        rows, cols = gf2.reduced_rows(m.rows)
        residue = gf2.reduce_bits(probe, dict(zip(cols, rows)))
        assert (residue == 0) == (probe in span_words(m.rows))

    @pytest.mark.deadline(1.0)
    def test_echelon_rows_are_shifted_to_their_pivots(self):
        # seeded cases, not hypothesis: a reduction that never ends must
        # fail at the deadline rather than on a replay with no timer
        rng = random.Random(0)
        for _ in range(300):
            width = rng.randint(1, 40)
            rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
            pivots = gf2.echelon_pivots(rows)
            span = span_words(tuple(rows))
            assert 1 << len(pivots) == len(span)
            # bit 0 of a stored row is its pivot column c, and the row
            # shifted back up by c lies in the span
            assert all(r & 1 and r << c in span for c, r in pivots.items())

    @given(matrices())
    def test_back_substitution_leaves_the_echelon_as_it_was(self, m):
        # a window space keeps its echelon and back-substitutes it on demand
        pivots = gf2.echelon_pivots(m.rows)
        before = dict(pivots)
        parts, cols = gf2.back_substitute(pivots)
        # bit j of a part is the j-th free column
        free = [f for f in range(m.cols) if f not in cols]
        spread = [sum(1 << f for j, f in enumerate(free) if part >> j & 1) for part in parts]
        assert ([1 << c | s for c, s in zip(cols, spread)], cols) == gf2.reduced_rows(m.rows)
        assert pivots == before


class TestKernel:
    @given(matrices())
    def test_kernel_dimension_and_membership(self, m):
        kb = gf2.kernel_basis(m)
        rows = SpanSolver()
        for r in m.rows:
            rows.add(r)
        assert kb.num_rows == m.cols - len(rows.pivots)
        for k in kb.rows:
            for r in m.rows:
                assert (r & k).bit_count() % 2 == 0
        # independence: the kernel rows alone have full rank
        kernel = SpanSolver()
        for k in kb.rows:
            kernel.add(k)
        assert len(kernel.pivots) == kb.num_rows

    @given(matrices())
    def test_kernel_basis_is_canonical(self, m):
        # sampling indexes these rows by position, so their order and
        # shape are part of every seeded sample stream
        rows = SpanSolver()
        for r in m.rows:
            rows.add(r)
        free = [f for f in range(m.cols) if f not in rows.pivots]
        free_mask = sum(1 << f for f in free)
        kb = gf2.kernel_basis(m)
        assert [k & free_mask for k in kb.rows] == [1 << f for f in free]
        kernel = SpanSolver()
        for x in range(1 << m.cols):
            if all((r & x).bit_count() % 2 == 0 for r in m.rows):
                kernel.add(x)
        assert all(kernel.member(k) for k in kb.rows)
        assert len(kernel.pivots) == kb.num_rows

    def test_known_kernels(self):
        assert gf2.kernel_basis(F2Matrix.identity(3)).num_rows == 0
        kb = gf2.kernel_basis(F2Matrix((0b11,), 2))
        assert kb.rows == (0b11,)


class TestMatrixConstruction:
    def test_from_strings(self):
        m = F2Matrix.from_strings(["101", "010"])
        assert m.cols == 3 and m.num_rows == 2
        assert str(m.row(0)) == "101"
        assert m.row_vectors()[1] == F2Vector.from_string("010")

    def test_empty_needs_width(self):
        with pytest.raises(ValueError, match="^empty matrix needs an explicit column count$"):
            F2Matrix.from_strings([])
        assert F2Matrix((), 4).num_rows == 0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="^rows have mixed lengths$"):
            F2Matrix.from_strings(["10", "100"])
        with pytest.raises(ValueError):
            F2Matrix((4,), 2)

    def test_non_integer_rows_rejected(self):
        with pytest.raises(ValueError):
            F2Matrix((2.5,), 3)
        with pytest.raises(ValueError):
            F2Matrix((1, -1), 3)

    def test_oracle_solver_agrees_with_library(self):
        # sanity-check the test-side span solver against known spans
        rng = random.Random(11)
        for _ in range(100):
            cols = rng.randint(1, 10)
            rows = tuple(rng.getrandbits(cols) for _ in range(rng.randint(0, 5)))
            solver = SpanSolver()
            for r in rows:
                solver.add(r)
            words = span_words(rows)
            probe = rng.getrandbits(cols)
            assert solver.member(probe) == (probe in words)


def test_every_exported_name_resolves():
    # a function removed from a module must leave its __all__ too
    names = [m.name for m in pkgutil.iter_modules(starshift.__path__) if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(f"starshift.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"starshift.{name}.__all__ names missing {attr!r}"
