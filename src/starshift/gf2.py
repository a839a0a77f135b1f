"""Exact linear algebra over GF(2).

Vectors and matrix rows are bit-packed into Python ints (bit ``j`` holds
column ``j``), so XOR-based elimination runs at word speed even for
window systems with thousands of variables.  Nothing in this module
touches floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "IntVector",
    "int_tuple",
    "F2Vector",
    "F2Matrix",
    "weight",
    "dot",
    "cw_product",
    "kernel_basis",
    "kernel_rows",
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
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.length))


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


def echelon_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Row-echelon pivots of bit-packed rows.

    Returns a map from pivot column to an echelon row whose lowest set
    bit is that column.  Rows are inserted in order, each reduced against
    the pivots found so far, so the result is deterministic.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        cur = r
        while cur:
            c = _lowest_set_bit(cur)
            p = pivots.get(c)
            if p is None:
                pivots[c] = cur
                break
            cur ^= p
    return pivots


def reduce_bits(bits: int, pivots: dict[int, int]) -> int:
    """Residue of a bit-packed row after elimination against echelon pivots.

    The residue is zero exactly when ``bits`` lies in the row space of the
    pivot rows.
    """
    cur = scan = bits
    while scan:
        low = scan & -scan
        row = pivots.get(low.bit_length() - 1)
        if row is None:
            scan ^= low
        else:
            # clears this bit and toggles only columns above it, so the
            # scan resumes there instead of at the lowest bit
            cur ^= row
            scan = cur & -(low << 1)
    return cur


def back_substitute(pivots: dict[int, int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon rows and their pivot columns, from echelon pivots.

    ``pivots`` maps pivot column to an echelon row whose lowest set bit is
    that column, as :func:`echelon_pivots` returns; it is left unchanged.
    Returns ``(rref_rows, pivot_cols)``, both sorted by pivot column.

    The pivots are walked from the highest column down.  Each echelon row
    XORs in the already reduced row of every other pivot column it has
    set, found as ``row & pivot_mask``; those rows carry no other pivot
    bit, so the XORs commute and the cost is the number of pivot bits
    actually set rather than rank squared.
    """
    cols = sorted(pivots)
    pivot_mask = sum(1 << c for c in cols)
    reduced: dict[int, int] = {}
    for c in reversed(cols):
        row = pivots[c]
        hits = (row & pivot_mask) ^ (1 << c)
        while hits:
            low = hits & -hits
            row ^= reduced[low.bit_length() - 1]
            hits ^= low
        reduced[c] = row
    return [reduced[c] for c in cols], cols


def reduced_rows(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon rows and their pivot columns.

    Returns ``(rref_rows, pivot_cols)`` with both lists sorted by pivot
    column; zero rows are dropped.  Pivot choice is the lowest column
    index with a nonzero entry, which makes the output the canonical
    reduced basis of the row space.  One :func:`echelon_pivots` pass,
    then :func:`back_substitute`.
    """
    return back_substitute(echelon_pivots(rows))


def kernel_rows(rref: Sequence[int], pivot_cols: Sequence[int], cols: int) -> tuple[int, ...]:
    """Basis rows of the right kernel of reduced rows over ``cols`` columns.

    ``rref`` and ``pivot_cols`` are a reduced row-echelon form, as
    :func:`back_substitute` returns.  One row per free column, in
    increasing free-column order.  The row of free column ``f`` is ``f``
    itself plus the pivot column of every reduced row with bit ``f`` set,
    so the rows are read off the free bits of the reduced rows in one
    pass over them.
    """
    pivot_set = set(pivot_cols)
    basis = {f: 1 << f for f in range(cols) if f not in pivot_set}
    free_mask = sum(basis.values())
    for prow, pcol in zip(rref, pivot_cols):
        scan = prow & free_mask
        while scan:
            low = scan & -scan
            basis[low.bit_length() - 1] |= 1 << pcol
            scan ^= low
    return tuple(basis.values())


def kernel_basis(m: F2Matrix) -> F2Matrix:
    """A basis of the right kernel ``{x : m x = 0}`` as matrix rows.

    One basis row per free column, in increasing free-column order; a
    full-rank matrix yields a matrix with no rows.  :func:`reduced_rows`,
    then :func:`kernel_rows`.
    """
    return F2Matrix(kernel_rows(*reduced_rows(m.rows), m.cols), m.cols)
