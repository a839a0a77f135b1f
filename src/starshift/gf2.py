"""Exact linear algebra over GF(2).

Vectors and matrix rows are bit-packed into Python ints (bit ``j`` holds
column ``j``), so XOR-based elimination runs at word speed even for
window systems with thousands of variables.  Nothing in this module
touches floating point.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "IntVector",
    "int_tuple",
    "F2Vector",
    "F2Matrix",
    "weight",
    "bits_at",
    "dot",
    "cw_product",
    "kernel_basis",
    "kernel_rows",
    "pivot_pairs",
    "echelon_pivots",
    "back_substitute",
    "reduced_rows",
    "reduce_bits",
]

IntVector = tuple[int, ...]


def int_tuple(values: Iterable[int], what: str) -> IntVector:
    """The entries of ``values`` read through ``operator.index``.

    A float, fraction, string or other non-integer entry raises
    ``ValueError("<what> must be integers")``; it is never truncated.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def _lowest_set_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class F2Vector:
    """A vector over GF(2); bit ``j`` of ``bits`` is coordinate ``j``."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("vector length must be at least 1")
        bits = self.bits
        if not isinstance(bits, int) or bits < 0 or bits.bit_length() > self.length:
            raise ValueError("bits must be an int with no bit outside the declared length")

    @classmethod
    def from_string(cls, text: str) -> F2Vector:
        """Parse a row of '0'/'1' characters; character ``i`` is coordinate ``i``."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a 0/1 row: {text!r}")
        return cls(len(text), int(text[::-1], 2))

    @classmethod
    def ones(cls, length: int) -> F2Vector:
        return cls(length, (1 << length) - 1)

    def support(self) -> IntVector:
        """Sorted indices of the nonzero coordinates."""
        out: list[int] = []
        b = self.bits
        while b:
            j = _lowest_set_bit(b)
            out.append(j)
            b &= b - 1
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: F2Vector) -> F2Vector:
        if self.length != other.length:
            raise ValueError("length mismatch")
        return F2Vector(self.length, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]


@dataclass(frozen=True)
class F2Matrix:
    """A matrix over GF(2); each row is a bit-packed int."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if self.cols < 1:
            raise ValueError("matrix must have at least one column")
        cols = self.cols
        for r in self.rows:
            if not isinstance(r, int) or r < 0 or r.bit_length() > cols:
                raise ValueError("rows must be ints with no bit outside the declared width")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> F2Matrix:
        vecs = [F2Vector.from_string(s) for s in rows]
        if not vecs:
            raise ValueError("empty matrix needs an explicit column count")
        width = vecs[0].length
        if any(v.length != width for v in vecs):
            raise ValueError("rows have mixed lengths")
        return cls(tuple(v.bits for v in vecs), width)

    @classmethod
    def identity(cls, n: int) -> F2Matrix:
        return cls(tuple(1 << j for j in range(n)), n)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> F2Vector:
        return F2Vector(self.cols, self.rows[i])

    def row_vectors(self) -> tuple[F2Vector, ...]:
        return tuple(F2Vector(self.cols, r) for r in self.rows)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.num_rows))


def weight(v: F2Vector) -> int:
    """Hamming weight."""
    return v.bits.bit_count()


def dot(v: F2Vector, w: F2Vector) -> int:
    """GF(2) inner product."""
    if v.length != w.length:
        raise ValueError("length mismatch")
    return (v.bits & w.bits).bit_count() & 1


def cw_product(v: F2Vector, w: F2Vector) -> F2Vector:
    """Coordinatewise product (logical AND of the two rows)."""
    if v.length != w.length:
        raise ValueError("length mismatch")
    return F2Vector(v.length, v.bits & w.bits)


def bits_at(positions: Sequence[int]) -> int:
    """The int whose set bits are ``positions``, each written once into a byte buffer."""
    buf = bytearray((max(positions, default=-1) >> 3) + 1)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def pivot_pairs(rows: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Bit-packed rows in the pair form of :func:`echelon_pivots`.

    A nonzero row r becomes ``(c, r >> c)``, c its lowest set bit, so the
    short row is odd; a zero row is dropped.
    """
    for r in rows:
        if r:
            c = _lowest_set_bit(r)
            yield c, r >> c


def echelon_pivots(rows: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Row-echelon pivots of rows given as pairs, each row shifted to its pivot.

    Each row is a pair ``(c, r)`` that stands for ``r << c``, with r odd,
    so that c is its lowest set bit; :func:`pivot_pairs` puts int rows in
    that form, and ``StencilPlan.rows`` yields it.  Returns a map from
    pivot column c to an echelon row with lowest set bit c, stored as
    ``row >> c``.  Rows are inserted in order, each reduced against the
    pivots found so far, so the result is deterministic.  A row under
    reduction stays shifted to its lowest set bit: look up c, XOR, shift
    down past the cleared low bits, repeat.  So an XOR costs the span of
    two rows, not their column, and a row that is a new pivot at once
    costs one lookup.
    """
    pivots: dict[int, int] = {}
    get = pivots.get
    for c, cur in rows:
        while cur:
            p = get(c)
            if p is None:
                pivots[c] = cur
                break
            cur ^= p
            # cur ^ (cur - 1) sets the lowest set bit and those below it,
            # and is -1, of bit length 1, once cur is zero
            k = (cur ^ (cur - 1)).bit_length() - 1
            cur >>= k
            c += k
    return pivots


def reduce_bits(bits: int, echelon: dict[int, int]) -> int:
    """Residue of a bit-packed row after elimination against echelon rows.

    ``echelon`` maps each pivot column c to a row with lowest set bit c,
    shifted down to it, as :func:`echelon_pivots` returns; the residue
    is zero exactly when ``bits`` lies in their row space.
    """
    cur = scan = bits
    while scan:
        low = scan & -scan
        col = low.bit_length() - 1
        row = echelon.get(col)
        if row is None:
            scan ^= low
        else:
            # clears this bit and toggles only columns above it, so the
            # scan resumes there instead of at the lowest bit
            cur ^= row << col
            scan = cur & -(low << 1)
    return cur


def back_substitute(pivots: dict[int, int]) -> tuple[list[int], list[int]]:
    """Reduced rows in free coordinates and their pivot columns, from echelon pivots.

    ``pivots`` is left unchanged.  Returns ``(parts, pivot_cols)``, both
    sorted by pivot column.  The part of pivot c is its reduced row without
    bit c, packed onto the free columns: bit j is the j-th free column.
    The pivots are walked from the highest column down, each over the set
    bits of its shifted echelon row.  A bit on another pivot XORs in that
    pivot's part, and one on free column f sets bit f - (number of pivots
    below f), so the cost is the set bits of the echelon, not its width.
    """
    cols = sorted(pivots)
    parts: dict[int, int] = {}
    for c in reversed(cols):
        row, part = pivots[c] ^ 1, 0
        while row:
            b = row.bit_length() - 1
            row ^= 1 << b
            col = c + b
            other = parts.get(col)
            if other is None:
                part ^= 1 << (col - bisect.bisect_left(cols, col))
            else:
                part ^= other
        parts[c] = part
    return [parts[c] for c in cols], cols


def _free_columns(pivot_cols: Iterable[int], cols: int) -> list[int]:
    """The columns below ``cols`` that are no pivot, in increasing order.

    One byte per column marks it free, so no set of every column is built.
    """
    free = bytearray(b"\x01") * cols
    for p in pivot_cols:
        free[p] = 0
    return list(itertools.compress(range(cols), free))


def reduced_rows(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon rows and their pivot columns.

    Returns ``(rref_rows, pivot_cols)`` with both lists sorted by pivot
    column; zero rows are dropped.  Pivot choice is the lowest column
    index with a nonzero entry, which makes the output the canonical
    reduced basis of the row space.  One :func:`echelon_pivots` pass over
    the rows' :func:`pivot_pairs`, then the echelon is walked from the
    highest pivot down: each row's tail, its bits above the pivot, is
    reduced by :func:`reduce_bits` against the higher rows, which are
    already reduced and so carry no other pivot's bit.
    """
    pivots = echelon_pivots(pivot_pairs(rows))
    reduced: dict[int, int] = {}
    for c in sorted(pivots, reverse=True):
        reduced[c] = reduce_bits((pivots[c] ^ 1) << c, reduced) >> c | 1
    cols = sorted(reduced)
    return [reduced[c] << c for c in cols], cols


def kernel_rows(parts: Sequence[int], pivot_cols: Sequence[int], cols: int) -> tuple[int, ...]:
    """Basis rows of the right kernel of reduced rows over ``cols`` columns.

    ``parts`` and ``pivot_cols`` are reduced rows in free coordinates, as
    :func:`back_substitute` returns.  One row per free column, in
    increasing order: the row of the j-th free column f is f plus the
    pivot of every part with bit j set.  The parts are transposed in one
    pass over their set bits, and each row is written once.
    """
    free = _free_columns(pivot_cols, cols)
    hits: list[list[int]] = [[] for _ in free]
    for part, p in zip(parts, pivot_cols):
        while part:
            j = part.bit_length() - 1
            part ^= 1 << j
            hits[j].append(p)
    return tuple(1 << f | bits_at(h) if h else 1 << f for h, f in zip(hits, free))


def kernel_basis(m: F2Matrix) -> F2Matrix:
    """A basis of the right kernel ``{x : m x = 0}`` as matrix rows.

    One basis row per free column, in increasing free-column order; a
    full-rank matrix yields a matrix with no rows.  :func:`echelon_pivots`
    of the rows' :func:`pivot_pairs`, :func:`back_substitute`, then
    :func:`kernel_rows`.
    """
    pivots = echelon_pivots(pivot_pairs(m.rows))
    return F2Matrix(kernel_rows(*back_substitute(pivots), m.cols), m.cols)
