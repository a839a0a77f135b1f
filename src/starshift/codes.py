"""Binary linear codes over GF(2).

A code is stored through the canonical reduced-echelon generator basis,
so equal subspaces compare equal structurally.  The module covers duals,
weight classification, coordinatewise-product closure between a pair of
codes, the integer support-sum pairing, and the integral non-degeneracy
certificate, decided by a column rule on the generator matrix with an
explicit integer kernel witness on failure.  Weight classification is
read off the basis rows; only witness search enumerates codewords.

Witness search reads codewords in (weight, bits) order from a stream
that is memoised per code inside the ``codewords_by_weight`` cache
entry.  The stream tests the vectors of each weight in increasing
numeric order for membership and falls back to sorting the whole
enumeration only once those tests would outnumber the codewords.  The
classes of equal nonzero generator columns, read in one transpose, give
the kernel of the support-sum pairing.  A query that the memoised prefix
cannot answer asks them (:func:`separable`) whether any codeword
separates ``n`` at all, and raises without enumerating when none does.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import gf2
from .errors import CodeFileError, DegenerateCodeError, GuardExceededError
from .gf2 import F2Matrix, F2Vector, IntVector

__all__ = [
    "ENUMERATION_GUARD_DIM",
    "HAMMING8_GENERATORS",
    "BinaryCode",
    "NondegeneracyCertificate",
    "WeightOrderedCodewords",
    "code_from_generators",
    "dual",
    "is_self_orthogonal",
    "weight_class",
    "contains_all_ones",
    "contains_vector",
    "is_subcode",
    "support_sum",
    "codewords",
    "codewords_by_weight",
    "is_integrally_nondegenerate",
    "separable",
    "nondegeneracy_witness",
    "star_closure_check",
    "direct_sum",
    "even_weight_code",
    "hamming8_code",
    "full_code",
    "repetition_code",
    "parse_generator_file",
    "render_generator_file",
]

# Exhaustive codeword sweeps cover 2^dim words; refuse anything larger.
ENUMERATION_GUARD_DIM = 24

# Generator rows of the self-dual doubly even [8, 4] code (the extended
# Hamming code), kept verbatim as the reference presentation.
HAMMING8_GENERATORS = ("11110000", "00111100", "00001111", "10101010")


@dataclass(frozen=True)
class BinaryCode:
    """A linear code, held as its canonical reduced-echelon basis.

    Build instances through :func:`code_from_generators`; the constructor
    validates that the basis really is canonical and derives its width
    ``length`` and ``echelon``, each row keyed by its pivot (its lowest
    set bit) and shifted down to it, which equality, hashing and repr
    ignore.  The dual code is derived on first use and held, so
    :func:`dual` reduces a code's kernel rows once.  The hash,
    ``hash((basis,))``, is computed once per code, as for ``Box``, so
    the caches keyed on codes do not rehash the basis rows per lookup.
    """

    basis: F2Matrix
    length: int = field(init=False, repr=False, compare=False)
    echelon: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.basis.rows
        echelon: dict[int, int] = {}
        last = -1
        for r in rows:
            if r == 0:
                raise ValueError("canonical basis cannot contain zero rows")
            pivot = (r & -r).bit_length() - 1
            if pivot <= last:
                raise ValueError("basis rows must have strictly increasing pivots")
            echelon[pivot] = r >> pivot
            last = pivot
        mask = sum(1 << p for p in echelon)
        if any(r & mask != 1 << p for r, p in zip(rows, echelon)):
            raise ValueError("basis is not fully reduced")
        object.__setattr__(self, "length", self.basis.cols)
        object.__setattr__(self, "echelon", echelon)

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return self.basis.num_rows

    # each computed once per code; cached_property writes to the instance
    # __dict__, outside the fields that equality, hashing and repr read
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.basis,))

    @functools.cached_property
    def _dual(self) -> BinaryCode:
        kernel = gf2.kernel_rows(*gf2.back_substitute(self.echelon), self.length)
        return code_from_generators(F2Matrix(kernel, self.length))

    def __str__(self) -> str:
        if self.dim == 0:
            return f"<zero code, length {self.length}>"
        return str(self.basis)


@dataclass(frozen=True)
class NondegeneracyCertificate:
    """Outcome of the integral non-degeneracy test.

    ``kernel_witness`` is None exactly for a non-degenerate code, whose
    ``verdict`` is True.  Otherwise it is a nonzero integer vector n with
    support_sum(n, v) = 0 for every codeword v: a unit vector e_j or a
    difference e_i - e_j with i < j.
    """

    kernel_witness: IntVector | None = None

    @property
    def verdict(self) -> bool:
        return self.kernel_witness is None


def code_from_generators(rows: F2Matrix | Iterable[str]) -> BinaryCode:
    """Canonicalize arbitrary generator rows into a code.

    Accepts a matrix or '0'/'1' strings.  Dependent and zero rows are
    dropped by the reduction.  The rows are reduced in order of
    decreasing ``bit_length``, so rows that share a low pivot meet it
    once each: the rows e_0 + e_j take one XOR each, not a chain of j.
    """
    m = rows if isinstance(rows, F2Matrix) else F2Matrix.from_strings(rows)
    rref, _ = gf2.reduced_rows(sorted(m.rows, key=int.bit_length, reverse=True))
    return BinaryCode(F2Matrix(tuple(rref), m.cols))


def dual(c: BinaryCode) -> BinaryCode:
    """The dual code, every vector orthogonal to all of ``c``.

    The kernel rows are read straight off the canonical basis, which is
    already reduced, and then canonicalized, once per code: later calls
    return the dual held on ``c``.
    """
    return c._dual


def is_self_orthogonal(c: BinaryCode) -> bool:
    """Whether every pair of codewords (including equal pairs) is orthogonal."""
    rows = c.basis.row_vectors()
    return all(gf2.dot(v, w) == 0 for i, v in enumerate(rows) for w in rows[i:])


def contains_vector(c: BinaryCode, v: F2Vector) -> bool:
    """Whether ``v`` is a codeword: its residue against the code's echelon rows is zero."""
    if v.length != c.length:
        raise ValueError("length mismatch")
    return gf2.reduce_bits(v.bits, c.echelon) == 0


def contains_all_ones(c: BinaryCode) -> bool:
    return contains_vector(c, F2Vector.ones(c.length))


def is_subcode(inner: BinaryCode, outer: BinaryCode) -> bool:
    if inner.length != outer.length:
        raise ValueError("length mismatch")
    return all(gf2.reduce_bits(r, outer.echelon) == 0 for r in inner.basis.rows)


def codewords(c: BinaryCode) -> Iterable[F2Vector]:
    """All codewords, in Gray-code enumeration order (the zero word first)."""
    if c.dim > ENUMERATION_GUARD_DIM:
        raise GuardExceededError(
            f"codeword enumeration needs 2^{c.dim} words, guard is 2^{ENUMERATION_GUARD_DIM}"
        )
    rows = c.basis.rows
    cur = 0
    yield F2Vector(c.length, 0)
    prev_gray = 0
    for k in range(1, 1 << c.dim):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        cur ^= rows[changed.bit_length() - 1]
        prev_gray = gray
        yield F2Vector(c.length, cur)


def _weight_order(c: BinaryCode) -> Iterator[F2Vector]:
    """Codewords in (weight, bits) order, found by testing each weight in turn.

    The vectors of weight k are walked in increasing numeric order by
    Gosper's hack and kept when they lie in the code.  At the first weight
    whose vectors would take the candidates tested past 2^dim (capped at
    the enumeration guard), the words of that weight and above come from
    the sorted enumeration instead, so at most as many candidates are
    tested as the enumeration would visit.
    """
    length, echelon = c.length, c.echelon
    budget = 1 << min(c.dim, ENUMERATION_GUARD_DIM)
    tested = 0
    for k in range(length + 1):
        tested += math.comb(length, k)
        if tested > budget:
            rest = (v for v in codewords(c) if gf2.weight(v) >= k)
            yield from sorted(rest, key=lambda v: (gf2.weight(v), v.bits))
            return
        v = (1 << k) - 1
        while not v >> length:
            if gf2.reduce_bits(v, echelon) == 0:
                yield F2Vector(length, v)
            if v == 0:
                break
            # Gosper's hack: the next larger integer with the same popcount
            t = v | (v - 1)
            v = (t + 1) | (((~t & -~t) - 1) >> (v & -v).bit_length())


class WeightOrderedCodewords:
    """The codewords of one code, in (weight, bits) order, produced on demand.

    ``prefix`` holds the words streamed so far; iterating yields the whole
    sequence, extending ``prefix`` as it goes, so ``tuple(...)`` equals
    the sorted enumeration.  Instances come from :func:`codewords_by_weight`,
    whose cache keeps the stream and its prefix alive between queries.
    It keeps no column classes; :func:`separable` reads the columns anew.
    """

    def __init__(self, c: BinaryCode):
        self.code = c
        self.prefix: list[F2Vector] = []
        self._stream = _weight_order(c)

    def __iter__(self) -> Iterator[F2Vector]:
        i = 0
        while i < len(self.prefix) or self.next_word() is not None:
            yield self.prefix[i]
            i += 1

    def next_word(self) -> F2Vector | None:
        """Stream one more word onto ``prefix`` and return it; None after the last."""
        try:
            v = next(self._stream, None)
        except BaseException:
            # a generator that raised is finished; resume a fresh one after
            # the prefix so that a later query meets the same error again
            self._stream = itertools.islice(_weight_order(self.code), len(self.prefix), None)
            raise
        if v is not None:
            self.prefix.append(v)
        return v

    @functools.cached_property
    def has_all_ones(self) -> bool:
        """Whether the all-ones vector is a codeword, decided once per code."""
        return contains_all_ones(self.code)

# an entry grows to 2^dim words when its stream falls back to the sort
@functools.lru_cache(maxsize=8)
def codewords_by_weight(c: BinaryCode) -> WeightOrderedCodewords:
    """All codewords sorted by (weight, numeric bit pattern), streamed lazily.

    The returned object is memoised per code: words are produced the first
    time any caller needs them and kept for later iterations.  Low weights
    are found by testing candidate vectors; the full enumeration and sort
    (and its guard above ``ENUMERATION_GUARD_DIM``) are reached only when
    the candidates would outnumber the codewords.
    """
    return WeightOrderedCodewords(c)


def weight_class(c: BinaryCode) -> str:
    """Classify all codeword weights: 'doubly-even', 'even', or 'neither'.

    Decided from the basis alone, by wt(a + b) = wt(a) + wt(b) - 2|a & b|:
    every codeword is even exactly when every basis row is even, and
    doubly even exactly when the rows are doubly even and the code is
    self-orthogonal.  No codeword is enumerated.
    """
    rows = c.basis.row_vectors()
    if any(gf2.weight(v) % 2 for v in rows):
        return "neither"
    if all(gf2.weight(v) % 4 == 0 for v in rows) and is_self_orthogonal(c):
        return "doubly-even"
    return "even"


def support_sum(n: Sequence[int], v: F2Vector) -> int:
    """Sum of the entries of the integer vector ``n`` over the support of ``v``.

    The set bits of ``v.bits`` are walked lowest first, so a query costs
    one addition per set bit and builds no support tuple.
    """
    if len(n) != v.length:
        raise ValueError("length mismatch")
    total = 0
    b = v.bits
    while b:
        low = b & -b
        total += n[low.bit_length() - 1]
        b ^= low
    return total


def _columns(c: BinaryCode) -> Iterable[tuple[str, ...]]:
    """Each column of the canonical generator matrix, in coordinate order.

    One transpose of the reversed row strings gives every column, one
    '0'/'1' per basis row; a zero code has ``length`` empty, zero, columns.
    """
    if c.dim == 0:
        return itertools.repeat((), c.length)
    return zip(*[format(r, f"0{c.length}b")[::-1] for r in c.basis.rows])


@functools.lru_cache(maxsize=128)
def is_integrally_nondegenerate(c: BinaryCode) -> NondegeneracyCertificate:
    """Exact non-degeneracy certificate for the support-sum pairing.

    The code is integrally non-degenerate when for every nonzero integer
    vector n some codeword v has support_sum(n, v) != 0; equivalently the
    codeword supports span all of Q^length.  Over Q the 0/1 vector of
    v + w is v + w - 2 v*w, so the supports span exactly the vectors that
    are constant on each class of equal generator-matrix columns and zero
    on zero columns.  The code is therefore non-degenerate exactly when
    its generator columns are nonzero and pairwise distinct, which one
    pass over the columns decides without enumerating codewords.

    Returns:
        A certificate.  Columns are scanned in increasing order, and at
        the first column j that is zero or repeats an earlier column the
        ``kernel_witness`` is e_j, or e_i - e_j with i the first column
        equal to column j.  That is the normalized kernel vector at the
        lowest free column of the span's reduced row echelon form.
    """
    first: dict[tuple[str, ...], int] = {}
    for j, column in enumerate(_columns(c)):
        if "1" not in column:
            return NondegeneracyCertificate(tuple(int(k == j) for k in range(c.length)))
        i = first.setdefault(column, j)
        if i != j:
            witness = tuple((k == i) - (k == j) for k in range(c.length))
            return NondegeneracyCertificate(witness)
    return NondegeneracyCertificate()


def separable(c: BinaryCode, n: Sequence[int]) -> bool:
    """Whether some codeword has a nonzero support sum against ``n``.

    The codeword supports span exactly the vectors constant on each class
    of equal nonzero generator columns and zero on zero columns, so this
    asks whether ``n`` has a nonzero sum on some class.  A non-integer
    entry or a wrong length raises ``ValueError``.
    """
    n = gf2.int_tuple(n, "entries of n")
    if len(n) != c.length:
        raise ValueError("length mismatch")
    sums: dict[tuple[str, ...], int] = {}
    for column, x in zip(_columns(c), n):
        if "1" in column:
            sums[column] = sums.get(column, 0) + x
    return any(sums.values())


def nondegeneracy_witness(c: BinaryCode, n: Sequence[int]) -> F2Vector:
    """First codeword (by increasing weight, then bit pattern) separating ``n``.

    The memoised prefix of :func:`codewords_by_weight` is scanned first.
    Only when it holds no witness is :func:`separable` asked whether any
    codeword separates ``n``; if none does the error is raised at once,
    otherwise the stream is extended until the witness appears.

    Raises:
        ValueError: if an entry of ``n`` is not an integer, or ``n`` is
            zero or has the wrong length.
        DegenerateCodeError: if no codeword separates ``n``; the error
            carries the integer kernel witness of the code.
        GuardExceededError: if the witness lies beyond the candidates the
            enumeration guard allows.
    """
    n = gf2.int_tuple(n, "entries of n")
    if len(n) != c.length:
        raise ValueError("length mismatch")
    if not any(n):
        raise ValueError("the zero vector has no separating codeword")
    words = codewords_by_weight(c)
    for v in words.prefix:
        if support_sum(n, v) != 0:
            return v
    if separable(c, n):
        while (v := words.next_word()) is not None:
            if support_sum(n, v) != 0:
                return v
    cert = is_integrally_nondegenerate(c)
    raise DegenerateCodeError(
        f"no codeword separates n={n}; the code is integrally degenerate",
        kernel_witness=cert.kernel_witness,
    )


def star_closure_check(c: BinaryCode, c_prime: BinaryCode) -> bool:
    """Whether every coordinatewise product of codewords of ``c`` lies in ``c_prime``.

    The product is bilinear over GF(2), so checking all pairs of basis
    rows of ``c`` suffices.
    """
    if c.length != c_prime.length:
        raise ValueError("length mismatch")
    rows = c.basis.rows
    return all(
        gf2.reduce_bits(rows[i] & rows[j], c_prime.echelon) == 0
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def direct_sum(c1: BinaryCode, c2: BinaryCode) -> BinaryCode:
    """Block-diagonal sum on disjoint coordinate blocks."""
    shifted = [r << c1.length for r in c2.basis.rows]
    rows = list(c1.basis.rows) + shifted
    return code_from_generators(F2Matrix(tuple(rows), c1.length + c2.length))


def even_weight_code(d: int) -> BinaryCode:
    """All even-weight vectors of length ``d`` (dimension d - 1); needs d >= 2."""
    if d < 2:
        raise ValueError("the even-weight code needs length at least 2")
    rows = [(1 << j) | (1 << (d - 1)) for j in range(d - 1)]
    return code_from_generators(F2Matrix(tuple(rows), d))


def hamming8_code() -> BinaryCode:
    """The self-dual doubly even [8, 4] code, from its reference generator rows."""
    return code_from_generators(HAMMING8_GENERATORS)


def full_code(d: int) -> BinaryCode:
    """The whole space GF(2)^d."""
    return code_from_generators(F2Matrix.identity(d))


def repetition_code(d: int) -> BinaryCode:
    """The code {0, all-ones} of length ``d``."""
    return code_from_generators(F2Matrix(((1 << d) - 1,), d))


def parse_generator_file(text: str) -> BinaryCode:
    """Parse a generator file: one 0/1 row per line.

    Blank lines and lines starting with '#' are ignored.  All rows must
    have the same length; parse errors name the offending line.
    """
    rows: list[str] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if any(ch not in "01" for ch in line):
            raise CodeFileError(f"line {lineno}: expected only '0' and '1', got {line!r}")
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise CodeFileError(
                f"line {lineno}: row length {len(line)} differs from earlier rows of length {width}"
            )
        rows.append(line)
    if not rows:
        raise CodeFileError("no generator rows found")
    return code_from_generators(rows)


def render_generator_file(c: BinaryCode, header: str | None = None) -> str:
    """Render the canonical basis in generator-file format."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.extend(str(v) for v in c.basis.row_vectors())
    if c.dim == 0:
        lines.append(f"# zero code of length {c.length}: no generator rows")
        lines.append("0" * c.length)
    return "\n".join(lines) + "\n"
