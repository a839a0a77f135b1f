"""Exact linear algebra over GF(2).

Vectors and matrix rows are bit-packed into Python ints (bit ``j`` holds
column ``j``), so XOR-based elimination runs at word speed even for
window systems with thousands of variables.  Nothing in this module
touches floating point.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def bits_at(positions: Sequence[int]) -> int:
    """The int whose set bits are ``positions``, each written once into a byte buffer."""
    buf = bytearray((max(positions, default=-1) >> 3) + 1)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def echelon_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Row-echelon pivots of bit-packed rows, each row shifted to its pivot.

    Returns a map from pivot column c to an echelon row with lowest set
    bit c, stored as ``row >> c``.  Rows are inserted in order, each
    reduced against the pivots found so far, so the result is
    deterministic.  A row under reduction is kept shifted to its lowest
    set bit too, so an XOR costs the span of two rows, not their column.
    """
    pivots: dict[int, int] = {}
    for r in rows:
        c, cur = 0, r
        while cur:
            k = _lowest_set_bit(cur)
            cur >>= k
            c += k
            p = pivots.get(c)
            if p is None:
                pivots[c] = cur
                break
            cur ^= p
    return pivots


def reduce_bits(bits: int, pivots: dict[int, int]) -> int:
    """Residue of a bit-packed row after elimination against pivot rows.

    ``pivots`` maps each pivot column to an unshifted row whose lowest set
    bit is that column, such as a canonical basis keyed by its pivots.
    The residue is zero exactly when ``bits`` lies in their row space.
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


def reduced_rows(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon rows and their pivot columns.

    Returns ``(rref_rows, pivot_cols)`` with both lists sorted by pivot
    column; zero rows are dropped.  Pivot choice is the lowest column
    index with a nonzero entry, which makes the output the canonical
    reduced basis of the row space.  One :func:`echelon_pivots` pass,
    then :func:`back_substitute`, whose parts are spread back onto the
    free columns.
    """
    pivots = echelon_pivots(rows)
    parts, cols = back_substitute(pivots)
    width = max((c + r.bit_length() for c, r in pivots.items()), default=0)
    free = sorted(set(range(width)).difference(cols))
    # character j of the reversed binary string is bit j of the part
    bits = (zip(free, reversed(format(part, "b"))) for part in parts)
    spread = (sum(1 << f for f, bit in pairs if bit == "1") for pairs in bits)
    return [1 << c | s for c, s in zip(cols, spread)], cols


def kernel_rows(parts: Sequence[int], pivot_cols: Sequence[int], cols: int) -> tuple[int, ...]:
    """Basis rows of the right kernel of reduced rows over ``cols`` columns.

    ``parts`` and ``pivot_cols`` are reduced rows in free coordinates, as
    :func:`back_substitute` returns.  One row per free column, in
    increasing order: the row of the j-th free column f is f plus the
    pivot of every part with bit j set.  The parts are transposed in one
    pass over their set bits, and each row is written once.
    """
    free = sorted(set(range(cols)).difference(pivot_cols))
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
    full-rank matrix yields a matrix with no rows.  :func:`echelon_pivots`,
    :func:`back_substitute`, then :func:`kernel_rows`.
    """
    return F2Matrix(kernel_rows(*back_substitute(echelon_pivots(m.rows)), m.cols), m.cols)
