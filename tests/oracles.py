"""Independent brute-force oracles for the behavior under test.

Everything here recomputes answers from first principles: exhaustive
enumeration, a self-contained GF(2) span solver, and plain ``Fraction``
elimination for ranks over the rationals.  Nothing calls the
elimination, substitution, or window pipelines these oracles exist to
check, and sites are numbered here by :func:`sites` and
:func:`site_index`, from the box bounds alone, so a fault in the
library's numbering cannot be copied into its reference.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from starshift.codes import BinaryCode, code_from_generators, dual
from starshift.gf2 import F2Matrix, F2Vector
from starshift.laurent import LaurentPoly
from starshift.rigidity import TripleConfig
from starshift.windows import Box, WindowConfig


def span_words(rows: tuple[int, ...]) -> set[int]:
    """All bit patterns in the GF(2) row span, by doubling."""
    words = {0}
    for r in rows:
        words |= {w ^ r for w in words}
    return words


def rational_support_rank(code: BinaryCode) -> int:
    """Rank over Q of the 0/1 support vectors of every codeword.

    The definition of integral non-degeneracy, checked directly: every
    codeword of the span is a row, eliminated in exact fractions.
    """
    n = code.length
    pivots: list[tuple[int, list[Fraction]]] = []
    for word in span_words(code.basis.rows):
        row = [Fraction((word >> j) & 1) for j in range(n)]
        for col, prow in pivots:
            if row[col]:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, prow)]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is not None:
            pivots.append((col, [a / row[col] for a in row]))
    return len(pivots)


def canonical_basis_error(rows: tuple[int, ...]) -> str | None:
    """Why bit-packed rows are not a canonical reduced-echelon basis, or None.

    The pairwise rule, in this order: no zero row and strictly increasing
    pivots (lowest set bits), row by row; then no row with a bit set at
    the pivot of any other row, each pair of rows compared directly.
    """
    prev_pivot = -1
    for r in rows:
        if r == 0:
            return "canonical basis cannot contain zero rows"
        pivot = (r & -r).bit_length() - 1
        if pivot <= prev_pivot:
            return "basis rows must have strictly increasing pivots"
        prev_pivot = pivot
    for i, r in enumerate(rows):
        pivot = (r & -r).bit_length() - 1
        for j, other in enumerate(rows):
            if i != j and (other >> pivot) & 1:
                return "basis is not fully reduced"
    return None


class SpanSolver:
    """Minimal incremental echelon for span-membership queries."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def _reduce(self, v: int) -> int:
        while v:
            low = (v & -v).bit_length() - 1
            p = self.pivots.get(low)
            if p is None:
                return v
            v ^= p
        return 0

    def add(self, v: int) -> None:
        v = self._reduce(v)
        if v:
            self.pivots[(v & -v).bit_length() - 1] = v

    def member(self, v: int) -> bool:
        return self._reduce(v) == 0


def free_column_mask(rows: tuple[int, ...], cols: int) -> int:
    """The columns that are GF(2) sums of the columns below them, one column at a time.

    These are the non-pivot columns of the reduced echelon form whose
    pivots are lowest set bits: a column is a pivot exactly when it is
    independent of every column below it.
    """
    below = SpanSolver()
    free = 0
    for c in range(cols):
        column = sum(((r >> c) & 1) << i for i, r in enumerate(rows))
        if below.member(column):
            free |= 1 << c
        else:
            below.add(column)
    return free


def compress_bits(x: int, mask: int) -> int:
    """The bits of x under ``mask``, packed into the low bits, one bit at a time."""
    out, k = 0, 0
    for j in range(mask.bit_length()):
        if (mask >> j) & 1:
            out |= ((x >> j) & 1) << k
            k += 1
    return out


def expand_bits(x: int, mask: int) -> int:
    """Bit k of x placed on the k-th set bit of ``mask``, one bit at a time."""
    out, k = 0, 0
    for j in range(mask.bit_length()):
        if (mask >> j) & 1:
            out |= ((x >> k) & 1) << j
            k += 1
    return out


def gathered_shift(
    lower: tuple[int, ...], upper: tuple[int, ...], bits: int, m: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """y(i) = x(i + m) on the sites i of the box with i + m in it, site by site.

    ``bits`` holds x with site k of the row-major order (first axis most
    significant) at bit k.  Returns the (lower, upper, bits) of y on its
    domain, the kept sites in the same order, or None when no site is kept.
    """
    plan = _shift_sources(lower, upper, m)
    if plan is None:
        return None
    lo, hi, sources = plan
    return lo, hi, sum(((bits >> j) & 1) << k for k, j in enumerate(sources))


def _shift_sources(
    lower: tuple[int, ...], upper: tuple[int, ...], m: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], list[int]] | None:
    """(lower, upper, source bit of each kept site) of the shift by m, or None."""
    sites = list(itertools.product(*(range(l, u) for l, u in zip(lower, upper))))
    index = {s: k for k, s in enumerate(sites)}
    kept = [s for s in sites if tuple(a + v for a, v in zip(s, m)) in index]
    if not kept:
        return None
    lo = tuple(min(s[a] for s in kept) for a in range(len(lower)))
    hi = tuple(max(s[a] for s in kept) + 1 for a in range(len(lower)))
    return lo, hi, [index[tuple(a + v for a, v in zip(s, m))] for s in kept]


def sites(box: Box) -> list[tuple[int, ...]]:
    """Every site of ``box`` in row-major order, the first axis most significant."""
    return list(itertools.product(*(range(l, u) for l, u in zip(box.lower, box.upper))))


def site_index(box: Box, site: tuple[int, ...]) -> int:
    """The place of ``site`` in :func:`sites`, read as mixed-radix digits.

    This is the bit that holds the site in a configuration on ``box``.
    """
    k = 0
    for l, u, i in zip(box.lower, box.upper, site, strict=True):
        if not l <= i < u:
            raise ValueError(f"site {site} outside the box")
        k = k * (u - l) + (i - l)
    return k


def value(x: WindowConfig, site: tuple[int, ...]) -> int:
    """The value of configuration ``x`` at ``site``."""
    return (x.bits >> site_index(x.box, site)) & 1


def _anchor_stencils(box: Box) -> list[list[int]]:
    """Site indices of i + e_1 .. i + e_d for every anchor i.

    Anchors are derived directly from the defining property (every
    forward-stencil site i + e_j lies in the box), scanning one step
    below each lower corner so one-dimensional anchors outside the box
    are found too.
    """
    d = box.dimension
    index = {s: k for k, s in enumerate(sites(box))}
    stencils: list[list[int]] = []
    for anchor in itertools.product(
        *(range(l - 1, u) for l, u in zip(box.lower, box.upper))
    ):
        stencil = []
        for j in range(d):
            site = tuple(x + (1 if a == j else 0) for a, x in enumerate(anchor))
            if site not in index:
                break
            stencil.append(index[site])
        else:
            stencils.append(stencil)
    return stencils


def window_solution_count(box: Box, code: BinaryCode) -> int:
    """Exhaustive count of window configurations obeying the local rule.

    Patch membership at every anchor stencil is tested against the
    explicit codeword set.
    """
    words = span_words(code.basis.rows)
    stencils = _anchor_stencils(box)
    count = 0
    for bits in range(1 << box.site_count):
        for stencil in stencils:
            word = 0
            for j, k in enumerate(stencil):
                word |= ((bits >> k) & 1) << j
            if word not in words:
                break
        else:
            count += 1
    return count


def window_rule_holds(box: Box, code: BinaryCode, x: WindowConfig) -> bool:
    """Whether one configuration obeys the local rule, site by site.

    At every anchor stencil the values of x must form a codeword of the
    explicit codeword set, as in :func:`window_solution_count`.
    """
    words = span_words(code.basis.rows)
    for stencil in _anchor_stencils(box):
        word = 0
        for j, k in enumerate(stencil):
            word |= ((x.bits >> k) & 1) << j
        if word not in words:
            return False
    return True


def window_constraint_rows(box: Box, code: BinaryCode) -> list[int]:
    """Constraint rows assembled one anchor at a time through :func:`site_index`.

    Anchor ranges are written out per axis (with a single axis the
    anchor may sit one step below the box); anchors run in lexicographic
    order and the dual basis, read from ``codes.dual``, in canonical
    order within each anchor.  This is the assembly the stencil plan
    replaced, kept as the reference for the rows and their order.
    """
    d = box.dimension
    ranges = []
    for a in range(d):
        lo = box.lower[a] if d > 1 else box.lower[a] - 1
        ranges.append(range(lo, box.upper[a] - 1))
    dual_rows = dual(code).basis.row_vectors()
    rows = []
    for anchor in itertools.product(*ranges):
        stencil = [
            site_index(box, tuple(x + (1 if a == j else 0) for a, x in enumerate(anchor)))
            for j in range(d)
        ]
        for w in dual_rows:
            bits = 0
            for j in w.support():
                bits ^= 1 << stencil[j]
            rows.append(bits)
    return rows


def window_log2_count(box: Box, code: BinaryCode) -> int:
    count = window_solution_count(box, code)
    assert count > 0 and count & (count - 1) == 0, "solution set must be a subgroup"
    return count.bit_length() - 1


def extension_constraints(box: Box, code: BinaryCode) -> list[int]:
    """Rows over the sites of ``box`` that cut out the patterns that extend one step.

    A configuration x on ``box`` (bit k for site k of ``sites(box)``)
    is the restriction of a window solution on the box one site longer
    on every upper side exactly when every returned row meets x.bits in
    an even number of bits; the rows are independent, so the restriction
    image has dimension ``box.site_count - len(rows)``.

    The larger box's rule is read off the explicit codeword set: one row
    per anchor stencil (as in :func:`window_rule_holds`) and per word of
    an independent set of words orthogonal to every codeword.  Each row
    packs the sites outside ``box`` above the sites of ``box``, and one
    elimination on highest set bits leaves the rows that vanish outside
    ``box`` spanning every such combination: x extends exactly when the
    image of its constraints lies in the span of the outer columns.
    """
    words = span_words(code.basis.rows)
    independent = SpanSolver()
    dual_words = []
    for w in range(1, 1 << code.length):
        if all((w & c).bit_count() % 2 == 0 for c in words) and not independent.member(w):
            independent.add(w)
            dual_words.append(w)
    big = Box(box.lower, tuple(u + 1 for u in box.upper))
    inner = {s: k for k, s in enumerate(sites(box))}
    outer = {s: k for k, s in enumerate(s for s in sites(big) if s not in inner)}
    column = [
        1 << inner[s] if s in inner else 1 << (len(inner) + outer[s]) for s in sites(big)
    ]
    pivots: dict[int, int] = {}
    for stencil in _anchor_stencils(big):
        for w in dual_words:
            row = 0
            for j, k in enumerate(stencil):
                if (w >> j) & 1:
                    row ^= column[k]
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
    return [r for top, r in pivots.items() if top < len(inner)]


def toy_involution_per_pair(shear) -> bool:
    """The toy sweep's involution verdict, one double shear per pair.

    The window solutions of the length-3 repetition code on the 2x2x2
    box are found by the local rule, as in :func:`window_rule_holds`;
    for every pair (x, y) of them the triple (x, y, 0) must come back
    from two applications of ``shear``.  This is the sweep the tiled
    check replaced, with the map passed in so a patched one is judged
    the same way.
    """
    box = Box((0, 0, 0), (2, 2, 2))
    code = code_from_generators(["111"])
    configs = [WindowConfig(box, b) for b in range(1 << box.site_count)]
    sols = [x for x in configs if window_rule_holds(box, code, x)]
    zero = configs[0]
    for x in sols:
        for y in sols:
            t = TripleConfig(x, y, zero)
            if shear(shear(t)) != t:
                return False
    return True


def toy_equivariance_full_table(shift) -> bool:
    """The toy sweep's equivariance verdict, from every configuration's shift.

    For each of the sampled check's shifts at d = 3, the unit shifts and
    (1, 1, 1), ``shift`` is applied to all 256 configurations of the
    2x2x2 box; for every pair (x, y) of window solutions of the length-3
    repetition code, found by the local rule, shift(x) * shift(y) must
    equal shift(x * y).  This is the full table that the library's sweep
    reads only at the bytes its lookups touch.
    """
    box = Box((0, 0, 0), (2, 2, 2))
    code = code_from_generators(["111"])
    configs = [WindowConfig(box, b) for b in range(1 << box.site_count)]
    sols = [x.bits for x in configs if window_rule_holds(box, code, x)]
    for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]:
        table = [shift(c, m).bits for c in configs]
        if any(table[x] & table[y] != table[x & y] for x in sols for y in sols):
            return False
    return True


def toy_closure_full_table(valid) -> bool:
    """The toy sweep's closure verdict, from every configuration's membership.

    ``valid`` is applied to all 256 configurations of the 2x2x2 box; for
    every pair (x, y) of window solutions of the length-3 repetition code,
    found by the local rule, x * y must be valid.  This is the full table
    that the library's sweep reads only at the distinct products.
    """
    box = Box((0, 0, 0), (2, 2, 2))
    code = code_from_generators(["111"])
    configs = [WindowConfig(box, b) for b in range(1 << box.site_count)]
    table = [valid(x) for x in configs]
    sols = [x.bits for x in configs if window_rule_holds(box, code, x)]
    return all(table[x & y] for x in sols for y in sols)


def equivariance_per_triple(shear, triples: list[TripleConfig]) -> tuple[bool, dict]:
    """The sampled equivariance verdict and witness, six gathers per (triple, shift).

    The shifts are the d unit shifts, then (1, ..., 1).  For each triple t
    and each shift m whose overlap with t's box is nonempty, ``shear`` of
    the shifted t must equal the shifted ``shear(t)``, all six components
    gathered site by site as in :func:`gathered_shift`.  A shift with an
    empty overlap is skipped and counted.  The first failure gives
    {"triple_index", "shift"}; a ValueError raised by the map gives
    {"error": its message}; otherwise the verdict is that some pair was
    tested, with the counts.
    """
    d = triples[0].box.dimension
    shifts = [tuple(int(a == j) for a in range(d)) for j in range(d)] + [(1,) * d]
    plans = {}

    def gather(x: WindowConfig, m: tuple[int, ...]) -> WindowConfig | None:
        key = x.box.lower, x.box.upper, m
        if key not in plans:
            plans[key] = _shift_sources(*key)
        if plans[key] is None:
            return None
        lo, hi, sources = plans[key]
        bits = sum(((x.bits >> j) & 1) << k for k, j in enumerate(sources))
        return WindowConfig(Box(lo, hi), bits)

    tested = skipped = 0
    try:
        for k, t in enumerate(triples):
            image = shear(t)
            for m in shifts:
                x = gather(t.x, m)
                if x is None:
                    skipped += 1
                    continue
                shifted = TripleConfig(x, gather(t.y, m), gather(t.z, m))
                moved = TripleConfig(gather(image.x, m), gather(image.y, m), gather(image.z, m))
                if shear(shifted) != moved:
                    return False, {"triple_index": k, "shift": list(m)}
                tested += 1
    except ValueError as exc:
        return False, {"error": str(exc)}
    return tested > 0, {
        "triples": len(triples),
        "shifts": len(shifts),
        "tested": tested,
        "skipped_empty_overlap": skipped,
    }


def _monomials_up_to(d: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(degree + 1):
        out.extend(_compositions(d, total))
    return out


def _compositions(d: int, total: int) -> list[tuple[int, ...]]:
    if d == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _compositions(d - 1, total - first))
    return out


def laurent_ideal_member(generator_code: BinaryCode, q: LaurentPoly) -> bool:
    """Brute-force Laurent membership via bounded-degree cofactor search.

    A single-variable generator is a Laurent unit, making the ideal the
    whole ring.  Otherwise the query is cleared to polynomial form and
    solved as a GF(2) span problem: the generators are homogeneous of
    degree 1, so a member of degree D is a combination with cofactors of
    degree at most D - 1 (membership splits across homogeneous
    components); the degree bound carries slack anyway.
    """
    if generator_code.dim == 0:
        return q.is_zero
    if q.is_zero:
        return True
    if any(r.bit_count() == 1 for r in generator_code.basis.rows):
        return True
    d = q.arity
    gens = []
    for r in generator_code.basis.rows:
        gens.append(
            [tuple(1 if i == j else 0 for i in range(d)) for j in F2Vector(d, r).support()]
        )
    shift = tuple(max(0, -min(t[i] for t in q.terms)) for i in range(d))
    target = {tuple(e + s for e, s in zip(t, shift)) for t in q.terms}
    bound = max(sum(t) for t in target) + 2
    universe = {m: k for k, m in enumerate(_monomials_up_to(d, bound))}
    solver = SpanSolver()
    for g in gens:
        for m in _monomials_up_to(d, bound - 1):
            bits = 0
            for t in g:
                prod = tuple(a + b for a, b in zip(m, t))
                bits ^= 1 << universe[prod]
            solver.add(bits)
    target_bits = 0
    for t in target:
        target_bits ^= 1 << universe[t]
    return solver.member(target_bits)


def random_code(rng: random.Random, d: int, max_dim: int | None = None) -> BinaryCode:
    """A random code from a handful of random generator rows."""
    k = rng.randint(1, max_dim if max_dim is not None else d)
    rows = [rng.getrandbits(d) for _ in range(k)]
    if not any(rows):
        rows[0] = 1 | (1 << (d - 1)) if d > 1 else 1
    return code_from_generators(F2Matrix(tuple(rows), d))


def random_poly(
    rng: random.Random, d: int, max_terms: int = 4, exp_bound: int = 2
) -> LaurentPoly:
    terms = [
        tuple(rng.randint(-exp_bound, exp_bound) for _ in range(d))
        for _ in range(rng.randint(1, max_terms))
    ]
    return LaurentPoly.from_terms(d, terms)
