"""Exact finite-window engines for code-defined group shifts.

A window space is the solution set of the local membership rule on a
finite box: one site per GF(2) variable, and one constraint per
(anchor, dual-basis word) pair, where an anchor is a site whose whole
forward stencil ``i + e_1 .. i + e_d`` lies inside the box.  The rule at
anchor i for dual word w is that x(i + e_j) summed over j in supp(w)
vanishes.

Every space carries one stencil plan, built once with the space.  Sites
are numbered in row-major order with strides s_j, so site i + e_j has
index idx(i) + 1 + o_j with offset o_j = s_j - 1.  The plan holds the
anchor mask, with bit idx(i) + 1 set for every anchor i, and for each
dual word the offsets o_j over its support.  Membership shifts a whole
configuration once per offset and masks the XOR with the anchor mask;
the constraint rows are the word patterns shifted to every anchor bit.
Solution counting is exact rank arithmetic.

Bits move by one primitive (Warren, *Hacker's Delight*, 7-4 and 7-5):
``_moves`` turns a mask into at most ceil(log2(sites)) (bits, shift)
moves, ``_compress`` packs the bits under the mask into the low bits in
order, and ``_expand`` undoes it with the moves reversed.  Gathers compress
through a plan, a domain with a source sub-box mask and its moves, from
one private ``lru_cache(maxsize=64)``.  A shift's plan is keyed by the
source box and the shift alone and builds the overlap domain itself, so
that domain is built once per (box, shift) and every configuration
shifted through the plan shares its ``Box``; box checks then end at the
identity test.  The benchmark's pass of seven verifies makes 17,518 plan
lookups on 46 keys, all of them shifts: a fresh process builds the 46
plans (about 1.4 ms in all, 0.14 ms for one ``verify -d 8 --box 2``) and
hits 17,472 times, and a later pass hits every lookup.

A space is its box, code, plan and echelon.  It is eliminated once, when
it is built: the plan streams its rows into the elimination one at a time,
and ``echelon`` maps each pivot column c to its echelon row shifted down
by c, the rank being its size.  The raw rows are never stored.  On
[0, 27)^3 with the length-3 repetition code they would take 47.0 MB, and
the space holds 2.0 MB, where rows kept at their sites took 27.5 MB
(tracemalloc).  That every row lies inside the box is checked once on
the plan, from its highest anchor bit and largest offset.  Draws and
``solution_basis`` back-substitute the echelon when first needed into
reduced rows in free coordinates, and keep only what they derive.  Window
rows are eliminated in plan order, unsorted: each anchor's rows meet few
earlier pivots, and the sort that ``code_from_generators`` needs for
arbitrary generator rows only slows the planar elimination down.

Sampling draws one mask of free_dim = sites - rank random bits and
forms the combination of the kernel basis rows it selects.  Kernel row j
is e_f, f the j-th free column, plus every pivot column whose reduced
row's part has bit j set, so the combination is also the mask expanded
onto the free columns, OR the parities of (part) & (mask) expanded onto
the pivot columns.  Parts are sparse: at d = 8 on [0, 3)^8 the code's
977 parts hold 6,973 bits over 5,584 free columns (7.1 a part, at most
25) and the product code's 256 parts 3,136 over 6,305 (12.2 a part, at
most 19).  So a parity draw gathers just those bits of the mask, part by
part, out of its binary string, and reads every part's parity off one
prefix XOR: a fixed number of C-level big-int and string calls over
about nnz + free_dim bits, nnz being the bits of all parts, with no
Python loop per part.  On the box-2 spaces, of rank 1 to 4, the fixed
cost of formatting the mask outweighs the few bits gathered, and an
AND-and-count of every part would draw a few microseconds faster.  A
part with more than ``_HEAVY_ROW`` = 64 bits keeps the AND-and-count,
which bounds the gather at 64 x rank entries.  The XOR of kernel rows
costs about free_dim / 2 x sites bits, so a space draws by parities only
when rank < free_dim.  Both give the same bits from the same random
call, so seeded streams do not depend on the choice.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import codes as codes_mod
from . import gf2
from .codes import BinaryCode
from .errors import GuardExceededError
from .gf2 import F2Matrix, F2Vector, IntVector, int_tuple
from .laurent import LaurentPoly

__all__ = [
    "MAX_SITES",
    "MAX_CONSTRAINT_ROWS",
    "Box",
    "WindowConfig",
    "StencilPlan",
    "WindowSpace",
    "cube",
    "guarded_site_count",
    "build_window_space",
    "log2_count",
    "sample",
    "sample_with",
    "contains",
    "star",
    "shift_restrict",
    "restrict",
    "apply_poly",
    "entropy_profile",
]

MAX_SITES = 20_000
MAX_CONSTRAINT_ROWS = 200_000


@dataclass(frozen=True)
class Box:
    """A half-open integer box: sites with lower[a] <= i[a] < upper[a].

    The bounds are stored as tuples of ints, each read through
    ``gf2.int_tuple``; a float or other non-integer bound raises
    ``ValueError``.  Equal boxes are those with equal ``lower`` and
    ``upper``.  The box checks test identity first, since the
    configurations of one space share its box and those gathered through
    one plan share its domain; the hash, ``hash((lower, upper))``, is
    computed once per box.
    """

    lower: IntVector
    upper: IntVector

    def __post_init__(self):
        lower = int_tuple(self.lower, "box bounds")
        upper = int_tuple(self.upper, "box bounds")
        # frozen: the normalised bounds replace the given ones in place
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower and upper must be nonempty and of equal arity")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("box must be nonempty on every axis")

    def __hash__(self) -> int:
        return self._hash

    # computed once per box; cached_property writes to the instance
    # __dict__, outside the fields that equality, hashing and repr read
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.lower, self.upper))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @functools.cached_property
    def shape(self) -> IntVector:
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    @functools.cached_property
    def site_count(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def sites(self) -> Iterator[IntVector]:
        """All sites in lexicographic order (first axis most significant)."""
        return itertools.product(*(range(l, u) for l, u in zip(self.lower, self.upper)))

    def index(self, site: Sequence[int]) -> int:
        """Lexicographic rank of a site; used as its variable/bit index."""
        if len(site) != self.dimension:
            raise ValueError("site arity mismatch")
        idx = 0
        for (l, u, x) in zip(self.lower, self.upper, site):
            if not l <= x < u:
                raise ValueError(f"site {tuple(site)} outside the box")
            idx = idx * (u - l) + (x - l)
        return idx

    def contains_site(self, site: Sequence[int]) -> bool:
        return len(site) == self.dimension and all(
            l <= x < u for l, u, x in zip(self.lower, self.upper, site)
        )

    def contains_box(self, other: Box) -> bool:
        return (
            self.dimension == other.dimension
            and all(a <= b for a, b in zip(self.lower, other.lower))
            and all(b <= a for a, b in zip(self.upper, other.upper))
        )


def cube(d: int, n: int) -> Box:
    """The box [0, n)^d; a non-integer ``d`` or ``n`` raises ``ValueError``."""
    (d,) = int_tuple((d,), "d")
    return Box((0,) * d, (n,) * d)


def _bits_from_string(chars: str, box: Box) -> int:
    """Bits of a string of '0'/'1', one per site of ``box`` in order, character k at bit k."""
    if len(chars) != box.site_count:
        raise ValueError("value string length disagrees with the box")
    if chars.strip("01"):
        raise ValueError("values must be 0 or 1")
    return int(chars[::-1], 2)


def _int_field(box_data: dict, key: str) -> IntVector:
    v = box_data.get(key)
    if not isinstance(v, list) or not all(type(a) is int for a in v):
        raise ValueError(f"box {key} must be a list of integers")
    return tuple(v)


@dataclass(frozen=True)
class WindowConfig:
    """A GF(2) configuration on a box, bit-packed in site order."""

    box: Box
    bits: int

    def __post_init__(self):
        # a bit-length test needs no site_count-bit int (4,096 bits at d = 12)
        bits = self.bits
        if not isinstance(bits, int) or bits < 0 or bits.bit_length() > self.box.site_count:
            raise ValueError("bits must be an int with no bit outside the box")

    @classmethod
    def zero(cls, box: Box) -> WindowConfig:
        return cls(box, 0)

    def value(self, site: Sequence[int]) -> int:
        return (self.bits >> self.box.index(site)) & 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: WindowConfig) -> WindowConfig:
        if self.box is not other.box and self.box != other.box:
            raise ValueError("box mismatch")
        return WindowConfig(self.box, self.bits ^ other.bits)

    def to_bit_string(self) -> str:
        """One character per site, in site order: site k is character k."""
        return format(self.bits, f"0{self.box.site_count}b")[::-1]

    def to_json_dict(self) -> dict:
        return {
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "values": self.to_bit_string(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> WindowConfig:
        """Inverse of ``to_json_dict``.

        Raises:
            ValueError: naming the field that is missing or malformed.
        """
        if not isinstance(data, dict):
            raise ValueError("configuration must be a JSON object")
        box_data = data.get("box")
        if not isinstance(box_data, dict):
            raise ValueError("box must be an object with lower and upper")
        box = Box(_int_field(box_data, "lower"), _int_field(box_data, "upper"))
        values = data.get("values")
        if not isinstance(values, str):
            raise ValueError("values must be a string of 0 and 1")
        return cls(box, _bits_from_string(values, box))


@dataclass(frozen=True)
class StencilPlan:
    """The local rule of a code on a box, as bit positions in site order.

    ``anchor_mask`` has bit idx(i) + 1 set for every anchor i; that is
    the index of site i + e_d, which lies in the box even when a
    one-dimensional anchor sits one step below it.  ``taps`` has, for
    each dual basis word w in canonical order, the offsets o_j = s_j - 1
    over j in supp(w): the word's stencil site i + e_j is bit
    idx(i) + 1 + o_j.
    """

    anchor_mask: int
    taps: tuple[tuple[int, ...], ...]

    def rows(self) -> Iterator[int]:
        """Constraint rows, one pass: anchors in site order, dual words within each.

        Each anchor bit is read off the binary string of ``anchor_mask`` as
        the pass reaches it, and each row is made when it is asked for, so
        no list of anchors or rows is built.
        """
        patterns = [functools.reduce(operator.xor, (1 << o for o in t), 0) for t in self.taps]
        bits = format(self.anchor_mask, "b")[::-1]
        return (p << base for base, ch in enumerate(bits) if ch == "1" for p in patterns)


def _strides(shape: IntVector) -> list[int]:
    """Row-major strides: each axis steps over the sites of the axes after it."""
    return list(itertools.accumulate(shape[:0:-1], operator.mul, initial=1))[::-1]


def _sub_box_mask(strides: Sequence[int], start: int, widths: Sequence[int]) -> int:
    """Bits of the sub-box from bit ``start`` with ``widths[a]`` sites on axis a."""
    mask = 1 << start
    for s, width in zip(strides, widths):
        copies, mask = mask, 0
        for k in range(width):
            mask |= copies << (k * s)
    return mask


def _stencil_plan(box: Box, dual_rows: Sequence[F2Vector]) -> StencilPlan:
    # anchor i needs i + e_j inside the box for every axis j; with a
    # single axis the anchor itself may sit one step below the box
    strides = _strides(box.shape)
    low = -1 if box.dimension == 1 else 0
    # the first anchor, every relative coordinate `low`, has bit 1 + low
    mask = _sub_box_mask(strides, 1 + low, [w - 1 - low for w in box.shape])
    taps = tuple(tuple(strides[j] - 1 for j in w.support()) for w in dual_rows)
    return StencilPlan(mask, taps)


def _moves(mask: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (bits, shift) moves of a compress to the n-bit ``mask`` (Hacker's Delight 7-4).

    A mask bit with z clear bits below it moves by 2^r in round r when z
    has bit r set; the prefix parity of ``zeros`` is that bit of every z.
    """
    zeros = ~mask << 1 & ((1 << n) - 1)
    moves = []
    s = 1
    while zeros:
        parity = zeros
        for k in range((n - 1).bit_length()):
            parity ^= parity << (1 << k)
        mv = parity & mask
        if mv:
            moves.append((mv, s))
        mask = mask ^ mv | mv >> s
        zeros &= ~parity
        s <<= 1
    return tuple(moves)


def _compress(x: int, mask: int, moves: Sequence[tuple[int, int]]) -> int:
    """The bits of x under ``mask``, packed in order into the low bits."""
    x &= mask
    for mv, s in moves:
        t = x & mv
        x = x ^ t | t >> s
    return x


def _expand(x: int, mask: int, moves: Sequence[tuple[int, int]]) -> int:
    """The low bits of x spread in order onto ``mask``: the moves reversed (7-5)."""
    for mv, s in reversed(moves):
        x = x & ~mv | x << s & mv
    return x & mask


# A row with more free bits than this keeps the AND-and-count loop,
# so the tap list of a space holds at most _HEAVY_ROW x rank entries.
_HEAVY_ROW = 64


class _PivotParities:
    """Kernel combinations read off the reduced rows of a window system.

    Built once per space from the parts and pivot columns that
    :func:`gf2.back_substitute` returns.  Each part is listed by its set
    bits, highest first, as taps: positions in ``format(mask, spec)`` of
    the drawn mask itself, where free bit j is character free_dim - j and
    character 0 is a padding '0'.  Parts follow one another from the
    lowest bit of the gathered int up; a part with no set bit, or with
    more than ``_HEAVY_ROW``, has the one tap on the padding, and a heavy
    part is kept whole in ``heavy``.  ``starts`` and ``ends`` mark the
    first and last tap of every part, each with its moves.

    A draw is one ``format`` of the mask, one gather, one ``join`` and one
    ``int(s, 2)``, then a prefix XOR P in ceil(log2 taps) doublings.  Row
    k's parity is P[end_k] ^ P[start_k - 1], and two compresses read it
    for every row at once.  Each heavy part is ANDed with the mask and
    counted instead.  The mask expands onto the free columns and the
    parities onto the pivot columns, as the module docstring derives.
    """

    def __init__(self, parts: Sequence[int], pivot_cols: Sequence[int], cols: int):
        pivot_mask = gf2.bits_at(pivot_cols)
        free_mask = ((1 << cols) - 1) ^ pivot_mask
        free_dim = cols - len(pivot_cols)
        self.pivots = pivot_mask, _moves(pivot_mask, cols)
        self.free = free_mask, _moves(free_mask, cols)
        self.heavy = []
        taps = []
        starts = ends = 0
        for k, part in enumerate(parts):
            starts |= 1 << len(taps)
            if part.bit_count() > _HEAVY_ROW:
                self.heavy.append((k, part))
                part = 0
            if not part:
                taps.append(0)
            # one step per set bit, not per column
            while part:
                j = part.bit_length() - 1
                part ^= 1 << j
                taps.append(free_dim - j)
            ends |= 1 << (len(taps) - 1)
        self.spec = f"0{free_dim + 1}b"
        # int(s, 2) reads the string from its highest bit down; a padding
        # '0' on top keeps the string nonempty at rank 0
        self.gather = operator.itemgetter(0, *reversed(taps))
        self.doublings = [1 << r for r in range(max(len(taps) - 1, 0).bit_length())]
        self.starts = starts, _moves(starts, len(taps))
        self.ends = ends, _moves(ends, len(taps))

    def combine(self, mask: int) -> int:
        p = int("".join(self.gather(format(mask, self.spec))), 2)
        for s in self.doublings:
            p ^= p << s
        parities = _compress(p, *self.ends) ^ _compress(p << 1, *self.starts)
        for k, part in self.heavy:
            parities |= ((part & mask).bit_count() & 1) << k
        return _expand(mask, *self.free) | _expand(parities, *self.pivots)


@dataclass(eq=False, repr=False)
class WindowSpace:
    """The exact solution space of a code's local rule on a box.

    A space holds the stencil plan of the rule and ``echelon``, the one
    elimination of the plan's rows, pivot column c to echelon row shifted
    down by c, as :func:`gf2.echelon_pivots` returns it; ``rank`` is its
    size.  The rows themselves are not kept: ``constraint_matrix``
    rebuilds them from the plan on each access, one bit-packed row per
    (anchor, dual-basis word), for callers that want to see them.
    Sampling and ``solution_basis`` back-substitute the echelon on first
    use into parts, the reduced rows in free coordinates, and keep only
    what they derive: a space with rank < free_dim draws from pivot
    parities, set up at a cost proportional to the set bits of the parts,
    any other space by combining ``solution_basis`` rows.
    """

    box: Box
    code: BinaryCode
    plan: StencilPlan
    echelon: dict[int, int]

    @property
    def constraint_matrix(self) -> F2Matrix:
        return F2Matrix(tuple(self.plan.rows()), self.site_count)

    @property
    def rank(self) -> int:
        return len(self.echelon)

    @functools.cached_property
    def solution_basis(self) -> F2Matrix:
        cols = self.site_count
        return F2Matrix(gf2.kernel_rows(*gf2.back_substitute(self.echelon), cols), cols)

    @functools.cached_property
    def _pivot_parities(self) -> _PivotParities:
        return _PivotParities(*gf2.back_substitute(self.echelon), self.site_count)

    @property
    def site_count(self) -> int:
        return self.box.site_count

    @property
    def free_dim(self) -> int:
        """Dimension of the solution space: sites minus constraint rank."""
        return self.box.site_count - self.rank

    def _combine(self, mask: int) -> int:
        """The combination of ``solution_basis`` rows selected by ``mask``."""
        if self.rank < self.free_dim:
            return self._pivot_parities.combine(mask)
        bits = 0
        for k, row in enumerate(self.solution_basis.rows):
            if (mask >> k) & 1:
                bits ^= row
        return bits


def guarded_site_count(widths: Iterable[int], max_sites: int) -> int:
    """The site count of a box with these axis widths, refused above ``max_sites``.

    The product stops at the first axis that takes it past the guard, so
    ``itertools.repeat(2, 10**9)`` is refused after 15 multiplications.
    The refusal names the count when every axis is in it, else "at least"
    the partial product; past 4,096 bits it names "at least 2^k" instead,
    since ``str(int)`` fails past 4,300 digits.

    Raises:
        GuardExceededError: when the count exceeds ``max_sites``.
    """
    n = 1
    widths = iter(widths)
    for w in widths:
        n *= w
        if n > max_sites:
            if n.bit_length() > 4096:
                count = f"at least 2^{n.bit_length() - 1}"
            elif next(widths, None) is None:
                count = str(n)
            else:
                count = f"at least {n}"
            raise GuardExceededError(f"box has {count} sites, guard is {max_sites}")
    return n


def build_window_space(box: Box, code: BinaryCode, *, max_sites: int = MAX_SITES) -> WindowSpace:
    """Eliminate the constraint system of a code's local rule on a box.

    Row (i, w) is the pattern of the dual word w in the stencil plan,
    the XOR of ``1 << o_j`` over its offsets, shifted to anchor bit idx(i) + 1.
    Anchors run in site order and the dual basis in canonical order
    within each anchor, so the echelon is deterministic.  The rows stream
    from the plan into :func:`gf2.echelon_pivots` and are not stored.
    Every row lies inside the box when the highest anchor bit plus the
    largest tap offset is below the site count, which is checked once on
    the plan rather than row by row.

    Raises:
        ValueError: when the box and code lengths disagree, or the plan
            reaches past the box.
        GuardExceededError: when the box exceeds ``max_sites`` or the
            constraint count exceeds ``MAX_CONSTRAINT_ROWS``.
    """
    if box.dimension != code.length:
        raise ValueError("box dimension disagrees with the code length")
    n_sites = guarded_site_count(box.shape, max_sites)
    plan = _stencil_plan(box, codes_mod.dual(code).basis.row_vectors())
    n_rows = plan.anchor_mask.bit_count() * len(plan.taps)
    if n_rows > MAX_CONSTRAINT_ROWS:
        raise GuardExceededError(
            f"system has {n_rows} constraint rows, guard is {MAX_CONSTRAINT_ROWS}"
        )
    reach = max((o for taps in plan.taps for o in taps), default=0)
    if plan.anchor_mask.bit_length() + reach > n_sites:
        raise ValueError("stencil plan reaches past the box")
    return WindowSpace(box, code, plan, gf2.echelon_pivots(plan.rows()))


def log2_count(space: WindowSpace) -> int:
    """log2 of the number of window solutions: sites minus constraint rank."""
    return space.free_dim


def contains(space: WindowSpace, x: WindowConfig) -> bool:
    """Whether a configuration satisfies every window constraint.

    For each dual word, the configuration shifted right by each of the
    word's offsets is XOR-ed together: bit idx(i) + 1 of the result is
    the rule's sum at anchor i.  The configuration is rejected when that
    XOR meets the plan's anchor mask.
    """
    if x.box is not space.box and x.box != space.box:
        raise ValueError("box mismatch")
    plan = space.plan
    bits = x.bits
    for taps in plan.taps:
        acc = 0
        for o in taps:
            acc ^= bits >> o
        if acc & plan.anchor_mask:
            return False
    return True


def sample_with(space: WindowSpace, rng: random.Random) -> WindowConfig:
    """Uniform solution drawn from an existing random stream.

    One ``rng.getrandbits(free_dim)`` call selects the ``solution_basis``
    rows to combine, bit k for row k; a space with rank < free_dim forms
    the same bits from its pivot parities.  A space with free_dim 0
    draws nothing and returns the zero configuration.
    """
    free_dim = space.free_dim
    if not free_dim:
        return WindowConfig(space.box, 0)
    return WindowConfig(space.box, space._combine(rng.getrandbits(free_dim)))


def sample(space: WindowSpace, seed: int) -> WindowConfig:
    """Uniform solution: the draw of :func:`sample_with` on a stream seeded with ``seed``."""
    return sample_with(space, random.Random(seed))


def star(x: WindowConfig, y: WindowConfig) -> WindowConfig:
    """Coordinatewise (sitewise) product of two configurations."""
    if x.box is not y.box and x.box != y.box:
        raise ValueError("box mismatch")
    return WindowConfig(x.box, x.bits & y.bits)


@functools.lru_cache(maxsize=64)
def _gather_plan(
    source: Box, domain: Box | None, offset: IntVector
) -> tuple[Box, int, tuple] | None:
    """Domain, mask and moves whose compress maps x on ``source`` to i -> x(i + offset).

    A ``domain`` of None stands for the overlap of ``source`` with its
    shift by ``offset``, and the plan is None when that overlap is
    empty.  The overlap is then built once per (source, offset), and
    every configuration shifted through the plan shares its ``Box``.
    """
    if domain is None:
        domain = _overlap(source, (offset,))
        if domain is None:
            return None
    start = source.index([lo + v for lo, v in zip(domain.lower, offset)])
    mask = _sub_box_mask(_strides(source.shape), start, domain.shape)
    return domain, mask, _moves(mask, source.site_count)


def _overlap(box: Box, offsets: Iterable[IntVector]) -> Box | None:
    """The sites i of ``box`` with i + t in ``box`` for every offset t, or None.

    Each offset t keeps [l + max(0, -t_a), u - max(0, t_a)) on axis a.
    """
    lo, hi = list(box.lower), list(box.upper)
    for t in offsets:
        for a, v in enumerate(t):
            if v < 0:
                lo[a] = max(lo[a], box.lower[a] - v)
            elif v > 0:
                hi[a] = min(hi[a], box.upper[a] - v)
    if any(h <= l for l, h in zip(lo, hi)):
        return None
    return Box(tuple(lo), tuple(hi))


def shift_restrict(x: WindowConfig, m: Sequence[int]) -> WindowConfig:
    """Shifted configuration y(i) = x(i + m) on the overlap domain.

    The result lives on the sites i of the box with i + m in the box,
    the single-offset case of the overlap rule ``apply_poly`` uses; the
    domain shrinks rather than padding.  Results of one box and shift
    share one domain ``Box``.

    Raises:
        ValueError: when an entry of ``m`` is not an integer, on an
            arity mismatch, or when the overlap is empty.
    """
    mm = int_tuple(m, "shift entries")
    if len(mm) != x.box.dimension:
        raise ValueError("shift arity mismatch")
    plan = _gather_plan(x.box, None, mm)
    if plan is None:
        raise ValueError("empty overlap: the shift moves the box off itself")
    domain, mask, moves = plan
    return WindowConfig(domain, _compress(x.bits, mask, moves))


def restrict(x: WindowConfig, sub: Box) -> WindowConfig:
    """Restriction of a configuration to a fully contained sub-box."""
    if not x.box.contains_box(sub):
        raise ValueError("restriction target is not contained in the box")
    _, mask, moves = _gather_plan(x.box, sub, (0,) * sub.dimension)
    return WindowConfig(sub, _compress(x.bits, mask, moves))


def apply_poly(p: LaurentPoly, x: WindowConfig) -> WindowConfig:
    """Module action of a Laurent polynomial: (p.x)(i) = sum of x(i + m).

    Defined on the sites i of the box with i + m in the box for every
    term m, the overlap rule of ``shift_restrict`` applied once per term.

    Raises:
        ValueError: when that common domain is empty.
    """
    if p.arity != x.box.dimension:
        raise ValueError("arity mismatch")
    domain = _overlap(x.box, p.terms)
    if domain is None:
        raise ValueError("empty domain for the polynomial action")
    bits = 0
    for t in p.terms:
        _, mask, moves = _gather_plan(x.box, domain, t)
        bits ^= _compress(x.bits, mask, moves)
    return WindowConfig(domain, bits)


def entropy_profile(
    code: BinaryCode, sizes: Sequence[int], *, max_sites: int = MAX_SITES
) -> list[Fraction]:
    """Exact rationals log2_count / N^d for cubic boxes [0, N)^d.

    Raises:
        ValueError: when a size is not an integer, before any space is
            built, or is less than 1.
    """
    out = []
    for n in int_tuple(sizes, "box bounds"):
        if n < 1:
            raise ValueError("box size must be at least 1")
        space = build_window_space(cube(code.length, n), code, max_sites=max_sites)
        out.append(Fraction(log2_count(space), space.site_count))
    return out
