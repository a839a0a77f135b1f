"""Laurent polynomials over GF(2) and linear-form ideals.

The annihilator ideal of a code-defined group shift is generated by the
linear forms of the dual code.  Membership of a Laurent polynomial is
decided exactly: clear denominators with one minimal monomial, then
substitute each pivot variable by its expression in the free variables
(the quotient map modulo the linear forms) and expand.  Because no
generator is a single variable after the unit screen, the substitution
image of every monomial is a nonzero product in an integral domain, so
the polynomial transfer loses nothing.

Membership answers of ``True`` can be certified: the division routine
returns explicit cofactors that re-expand to the queried polynomial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import codes as codes_mod
from .codes import BinaryCode, support_sum
from .errors import DegenerateCodeError, GuardExceededError
from .gf2 import F2Vector, IntVector, int_tuple

__all__ = [
    "MAX_EXPANSION_TERMS",
    "MAX_EXPANSION_DEGREE",
    "ZERO_ENTROPY",
    "POSITIVE_ENTROPY",
    "Monomial",
    "LaurentPoly",
    "LinearFormIdeal",
    "linear_form",
    "annihilator_ideal",
    "ideal_contains",
    "membership_cofactors",
    "verify_cofactors",
    "collapse_to_univariate",
    "mixing_certificate",
    "entropy_verdict",
]

# Explicit budget for substitution expansion and cofactor division; the
# queries these engines exist for (generator combinations, short
# binomials) stay far below it.
MAX_EXPANSION_TERMS = 64
MAX_EXPANSION_DEGREE = 64

ZERO_ENTROPY = "zero-entropy"
POSITIVE_ENTROPY = "positive-entropy"

Monomial = tuple[int, ...]


def _mono_add(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial over GF(2): a finite set of exponent vectors.

    A term is present exactly when its coefficient is 1, so addition is
    symmetric difference and squaring doubles exponents.
    """

    arity: int
    terms: frozenset[Monomial]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        for t in self.terms:
            if len(t) != self.arity:
                raise ValueError("term arity mismatch")

    @classmethod
    def zero(cls, arity: int) -> LaurentPoly:
        return cls(arity, frozenset())

    @classmethod
    def one(cls, arity: int) -> LaurentPoly:
        return cls(arity, frozenset({(0,) * arity}))

    @classmethod
    def monomial(cls, exponents: Sequence[int]) -> LaurentPoly:
        t = int_tuple(exponents, "exponents")
        return cls(len(t), frozenset({t}))

    @classmethod
    def variable(cls, arity: int, j: int) -> LaurentPoly:
        arity, j = int_tuple((arity, j), "arity and variable index")
        if not 0 <= j < arity:
            raise ValueError("variable index out of range")
        return cls(arity, frozenset({tuple(1 if i == j else 0 for i in range(arity))}))

    @classmethod
    def from_terms(cls, arity: int, terms: Iterable[Sequence[int]]) -> LaurentPoly:
        acc: set[Monomial] = set()
        for t in terms:
            acc ^= {int_tuple(t, "exponents")}
        return cls(arity, frozenset(acc))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return LaurentPoly(self.arity, self.terms ^ other.terms)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        acc: set[Monomial] = set()
        for s in self.terms:
            for t in other.terms:
                acc ^= {_mono_add(s, t)}
        return LaurentPoly(self.arity, frozenset(acc))

    def square(self) -> LaurentPoly:
        # characteristic 2: squaring doubles every exponent
        return LaurentPoly(self.arity, frozenset(tuple(2 * e for e in t) for t in self.terms))

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers are monomial-only; shift instead")
        result = LaurentPoly.one(self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base.square()
        return result

    def shifted(self, m: Sequence[int]) -> LaurentPoly:
        """Multiply by the monomial u^m."""
        mm = int_tuple(m, "exponents")
        if len(mm) != self.arity:
            raise ValueError("shift arity mismatch")
        return LaurentPoly(self.arity, frozenset(_mono_add(t, mm) for t in self.terms))

    def min_exponents(self) -> Monomial:
        """Coordinatewise minimum exponent over all terms (zero poly: all zero)."""
        if not self.terms:
            return (0,) * self.arity
        return tuple(min(t[i] for t in self.terms) for i in range(self.arity))

    def total_degree(self) -> int:
        """Maximum term degree; meaningful once all exponents are nonnegative."""
        if not self.terms:
            return 0
        return max(sum(t) for t in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in sorted(self.terms):
            factors = [
                f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}"
                for i, e in enumerate(t)
                if e != 0
            ]
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


def linear_form(v: F2Vector) -> LaurentPoly:
    """The linear form u_{j1} + ... + u_{jk} over the support of ``v``."""
    return LaurentPoly(
        v.length,
        frozenset(tuple(1 if i == j else 0 for i in range(v.length)) for j in v.support()),
    )


@dataclass(frozen=True)
class LinearFormIdeal:
    """The Laurent ideal generated by the linear forms of a code's vectors.

    The span structure means the basis rows of ``generator_code`` already
    generate the ideal.
    """

    arity: int
    generator_code: BinaryCode

    def __post_init__(self):
        if self.generator_code.length != self.arity:
            raise ValueError("generator code length disagrees with the arity")

    @property
    def generators(self) -> tuple[LaurentPoly, ...]:
        return tuple(linear_form(v) for v in self.generator_code.basis.row_vectors())


def annihilator_ideal(c: BinaryCode) -> LinearFormIdeal:
    """The annihilator ideal of the group shift defined by ``c``.

    Generated by the linear forms of the dual code.
    """
    return LinearFormIdeal(c.length, codes_mod.dual(c))


@functools.lru_cache(maxsize=128)
def _substitution_table(code: BinaryCode) -> tuple[LaurentPoly, ...] | None:
    """Quotient substitution modulo the linear forms of ``code``.

    Maps each pivot variable to the sum of the free variables in its
    reduced basis row and fixes free variables.  Returns None when some
    basis row is a single variable, in which case the ideal is the whole
    Laurent ring and no proper quotient exists.
    """
    d, rows = code.length, code.basis.rows
    if any(r.bit_count() == 1 for r in rows):
        return None
    table = [LaurentPoly.variable(d, i) for i in range(d)]
    for pivot, r in zip(code.echelon, rows):
        table[pivot] = linear_form(F2Vector(d, r ^ (1 << pivot)))
    return tuple(table)


def _check_expansion_budget(p: LaurentPoly) -> None:
    if len(p.terms) > MAX_EXPANSION_TERMS:
        raise GuardExceededError(
            f"query has {len(p.terms)} terms, budget is {MAX_EXPANSION_TERMS}"
        )
    deg = p.shifted(tuple(-e for e in p.min_exponents())).total_degree()
    if deg > MAX_EXPANSION_DEGREE:
        raise GuardExceededError(
            f"query has total degree {deg} after clearing denominators, "
            f"budget is {MAX_EXPANSION_DEGREE}"
        )


def ideal_contains(ideal: LinearFormIdeal, p: LaurentPoly) -> bool:
    """Exact Laurent-ideal membership.

    Monomials and binomials are decided in closed form; general queries
    are shifted to polynomial form and pushed through the quotient
    substitution, whose result is zero exactly on members.  Past the unit
    screen, u^a + u^b is a member exactly when no codeword of the
    generator code's dual separates a - b (:func:`codes.separable`).

    Raises:
        GuardExceededError: when a general query exceeds the expansion budget.
    """
    if ideal.arity != p.arity:
        raise ValueError("arity mismatch")
    if p.is_zero:
        return True
    gc = ideal.generator_code
    if gc.dim == 0:
        return False
    table = _substitution_table(gc)
    if table is None:
        # a single-variable generator is a unit, the ideal is everything
        return True
    if len(p.terms) == 1:
        # the image of a monomial is a product of nonzero elements of an
        # integral domain, never zero
        return False
    if len(p.terms) == 2:
        # u^a + u^b is a unit times u^(a - b) + 1.  The variable images are
        # irreducible linear forms, equal for u_i and u_j exactly when
        # e_i + e_j is in the generator code, that is, when columns i and j
        # of its dual are equal.  By unique factorization a - b must sum to
        # zero on each class of equal dual columns: no dual word separates it.
        a, b = p.terms
        return not codes_mod.separable(codes_mod.dual(gc), tuple(x - y for x, y in zip(a, b)))
    _check_expansion_budget(p)
    shift = tuple(max(0, -e) for e in p.min_exponents())
    shifted = p.shifted(shift)
    acc = LaurentPoly.zero(p.arity)
    for t in sorted(shifted.terms):
        prod = LaurentPoly.one(p.arity)
        for i, e in enumerate(t):
            if e:
                prod = prod * (table[i] ** e)
        acc = acc + prod
    return acc.is_zero


def membership_cofactors(
    ideal: LinearFormIdeal, p: LaurentPoly
) -> list[tuple[F2Vector, LaurentPoly]] | None:
    """Explicit cofactors expressing ``p`` over the ideal generators.

    Returns pairs (generator vector, cofactor) with
    p = sum of cofactor * linear_form(vector), or None when ``p`` is not
    a member.  Division happens in polynomial form under a pivot-first
    monomial order, for which the reduced linear forms are a Groebner
    basis; the one clearing monomial is divided back out at the end.
    """
    if ideal.arity != p.arity:
        raise ValueError("arity mismatch")
    if p.is_zero:
        return []
    gc = ideal.generator_code
    if gc.dim == 0:
        return None
    rows, pivots, d = gc.basis.rows, tuple(gc.echelon), gc.length
    for r, j in zip(rows, pivots):
        if r.bit_count() == 1:
            cof = p.shifted(tuple(-1 if i == j else 0 for i in range(d)))
            return [(F2Vector(d, r), cof)]
    _check_expansion_budget(p)
    shift = tuple(max(0, -e) for e in p.min_exponents())
    work = set(p.shifted(shift).terms)
    tails: list[list[Monomial]] = []
    for r, pivot in zip(rows, pivots):
        tail_vec = F2Vector(d, r ^ (1 << pivot))
        tails.append([tuple(1 if i == j else 0 for i in range(d)) for j in tail_vec.support()])

    def order_key(t: Monomial) -> tuple[tuple[int, ...], Monomial]:
        return (tuple(t[c] for c in pivots), t)

    cofactors: list[set[Monomial]] = [set() for _ in rows]
    while work:
        t = max(work, key=order_key)
        r = next((i for i, c in enumerate(pivots) if t[c] > 0), None)
        if r is None:
            # every remaining term is free of pivot variables: a nonzero
            # normal form, so p is not a member
            return None
        quotient = tuple(e - 1 if i == pivots[r] else e for i, e in enumerate(t))
        cofactors[r] ^= {quotient}
        work ^= {t}
        for g in tails[r]:
            work ^= {_mono_add(quotient, g)}
    neg = tuple(-e for e in shift)
    return [
        (F2Vector(d, rows[r]), LaurentPoly(d, frozenset(cof)).shifted(neg))
        for r, cof in enumerate(cofactors)
        if cof
    ]


def verify_cofactors(
    ideal: LinearFormIdeal,
    p: LaurentPoly,
    cofactors: Sequence[tuple[F2Vector, LaurentPoly]],
) -> bool:
    """Re-expand a cofactor certificate and compare with ``p``."""
    acc = LaurentPoly.zero(ideal.arity)
    for vec, cof in cofactors:
        acc = acc + cof * linear_form(vec)
    return acc == p


def collapse_to_univariate(p: LaurentPoly, w: F2Vector) -> LaurentPoly:
    """Ring map into the one-variable ring: u_j goes to u1 when w_j = 1, else to 1.

    A monomial u^n lands on u1 raised to the support sum of n over ``w``,
    and equal images cancel in pairs.
    """
    if p.arity != w.length:
        raise ValueError("arity mismatch")
    return LaurentPoly.from_terms(1, [(support_sum(t, w),) for t in p.terms])


def mixing_certificate(c: BinaryCode, n: Sequence[int]) -> F2Vector:
    """A codeword certifying that u^n - 1 avoids the annihilator ideal.

    For a code containing the all-ones vector and integrally
    non-degenerate, the returned w has support_sum(n, w) != 0, so the
    collapse along w sends u^n + 1 to a nonzero binomial.

    Raises:
        ValueError: when the code misses the all-ones vector, or an entry
            of n is not an integer, or n is zero.
        DegenerateCodeError: when the code is integrally degenerate.
    """
    if not codes_mod.codewords_by_weight(c).has_all_ones:
        raise ValueError("the code does not contain the all-ones vector")
    cert = codes_mod.is_integrally_nondegenerate(c)
    if not cert.verdict:
        raise DegenerateCodeError(
            "the code is integrally degenerate; no mixing certificate exists",
            kernel_witness=cert.kernel_witness,
        )
    return codes_mod.nondegeneracy_witness(c, n)


def entropy_verdict(c: BinaryCode) -> str:
    """'zero-entropy' for a proper code, 'positive-entropy' for the full space."""
    return ZERO_ENTROPY if c.dim < c.length else POSITIVE_ENTROPY
