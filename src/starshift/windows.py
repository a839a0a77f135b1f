"""Exact finite-window engines for code-defined group shifts.

A window space is the solution set of the local membership rule on a
finite box: one site per GF(2) variable, and one constraint per
(anchor, dual-basis word) pair, where an anchor is a site whose whole
forward stencil ``i + e_1 .. i + e_d`` lies inside the box.  The rule at
anchor i for dual word w is that x(i + e_j) summed over j in supp(w)
vanishes.

Sites have one numbering, row-major: on a box with lower corner l and
strides s_a (``_strides``), site i is bit idx(i) = sum_a (i_a - l_a) s_a,
the first axis most significant.  So site i + e_j is bit idx(i) + 1 + o_j
with offset o_j = s_j - 1.  Every space carries one stencil plan, built
once with the space: the anchor mask, with bit idx(i) + 1 set for every
anchor i, and for each dual word the offsets o_j over its support.
Membership shifts a whole configuration once per offset and masks the
XOR with the anchor mask; the constraint rows are the word patterns
shifted to every anchor bit.  Solution counting is exact rank arithmetic.

Bits move by one primitive (Warren, *Hacker's Delight*, 7-4 and 7-5):
``_moves`` turns a mask into at most ceil(log2(sites)) (bits, shift)
moves, ``_compress`` packs the bits under the mask into the low bits in
order, and ``_expand`` undoes it with the moves reversed.  Gathers compress
through a plan, a domain with a source sub-box mask and its moves, from
one private ``lru_cache(maxsize=64)``.  A shift's plan is keyed by the
source box and the shift alone and builds the overlap domain itself, so
that domain is built once per (box, shift) and every configuration
shifted through the plan shares its ``Box``; box checks then end at the
identity test.  The benchmark's pass of seven verifies makes 8,692 plan
lookups on 46 keys, all of them shifts: a fresh process builds the 46
plans (about 1.4 ms in all, 0.14 ms for one ``verify -d 8 --box 2``) and
hits 8,646 times, and a later pass hits every lookup.

A space is its box, code, plan and echelon.  It is eliminated once, when
it is built: the plan streams its rows into the elimination one at a time,
each as a pair (c, r) standing for r << c, c its lowest set bit and r a
short odd row at most the largest offset + 1 bits wide, and ``echelon``
maps each pivot column c to its echelon row shifted down by c, the rank
being its size.  So no row as wide as its anchor bit is made, and the raw
rows are never stored.  Widened to ints, the rows of [0, 27)^3 with the
length-3 repetition code would take 47.0 MB and those of the planar
[0, 150)^2 even-weight space 34.1 MB; the spaces hold 1.95 MB and
2.02 MB (tracemalloc).  That every row lies inside the box is checked
once on the plan, from its highest anchor bit and largest offset.  Draws and
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
977 parts hold 6,973 bits on 302 of the 5,584 free columns (7.1 a part,
at most 25) and the product code's 256 parts 3,136 bits on 1,023 of
6,305.  So draws are bit-sliced (Biham, FSE 1997): ``sample_rounds``
takes the masks of up to ``_DRAW_CHUNK`` = 256 rounds from the stream,
in the order single draws take them, and each space combines all of its
masks at once, each draw a byte lane, so that one XOR of N-byte ints
gives a part's parity in all N draws.  On a 2-vCPU VM the 300 draws of
100 d = 8 box-3 samples take 11.8 ms, against 52.1 ms when each draw
gathers its parts' bits alone, but a single draw pays the per-part XORs
alone: 1.09 ms against 0.24 ms on the code space.  A part with more than
``_HEAVY_ROW`` = 64 bits keeps the AND-and-count, draw by draw.  The XOR
of kernel rows costs about free_dim / 2 x sites bits, so a space draws
by parities only when rank < free_dim, and otherwise combines rows one
mask at a time.
Both give the same bits from the same random call, so seeded streams
depend neither on the choice nor on the batch.
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
    "sample_rounds",
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

    def rows(self) -> Iterator[tuple[int, int]]:
        """Constraint row pairs, one pass: anchors in site order, dual words within each.

        Row (i, w) is the word's pattern, the XOR of ``1 << o`` over its
        offsets, shifted to anchor bit b = idx(i) + 1.  It comes as the
        pair ``(c, r)`` of :func:`gf2.echelon_pivots`, standing for
        ``r << c``: c = b + lo and r = pattern >> lo, lo the pattern's
        lowest set bit.  So r is odd and at most the largest offset + 1
        bits wide at every anchor, and no row is as wide as its anchor
        bit.  Two offsets are equal, and their taps may cancel, only
        beside a width-1 axis, and a box with one and d > 1 has no anchor.
        Each anchor bit is read off the binary string of ``anchor_mask``
        as the pass reaches it, and each pair is made when it is asked
        for, so no list of anchors or rows is built.
        """
        shifted = []
        for t in self.taps:
            p = functools.reduce(operator.xor, (1 << o for o in t), 0)
            # a zero pattern has no anchor to reach; it only must not raise
            lo = (p & -p).bit_length() - 1 if p else 0
            shifted.append((lo, p >> lo))
        bits = format(self.anchor_mask, "b")[::-1]
        return ((base + lo, r) for base, ch in enumerate(bits) if ch == "1" for lo, r in shifted)


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


def _set_bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x, highest first, one step per set bit."""
    while x:
        j = x.bit_length() - 1
        yield j
        x ^= 1 << j


# A row with more free bits than this keeps the AND-and-count loop, so
# only the free columns of lighter rows are sliced.
_HEAVY_ROW = 64

# Rounds drawn at a time, so that a batch's masks, byte matrix and parity
# rows hold at most this many entries per place of its space in a round.
_DRAW_CHUNK = 256

# The ASCII digit of a byte's lowest bit: 0x30 for an even byte, 0x31 for odd.
_LOW_BIT_TO_ASCII = bytes(0x30 | b & 1 for b in range(256))

# A byte's lowest bit, so that the ASCII digits '0' and '1' read as 0 and 1.
_LOW_BIT = bytes(b & 1 for b in range(256))


class _PivotParities:
    """Kernel combinations read off the reduced rows of a window system.

    Built once per space from the parts and pivot columns that
    :func:`gf2.back_substitute` returns.  ``held`` is the mask U of the
    free columns that light parts hold, with its moves.  ``parts`` lists
    each part by its columns, the characters of its bits in ``format(mask
    compressed onto U, spec)``: character 0 is a padding '0', then the
    held bits, highest first.  A heavy part, over ``_HEAVY_ROW`` bits, has
    no column and is kept whole in ``heavy``; a last part with no column
    keeps each draw's digits nonempty at rank 0.

    ``combine`` bit-slices its N masks.  Formatted, joined and encoded,
    they are an N x (|U| + 1) byte matrix whose bytes carry their bit as
    the low bit ('0' is 0x30, '1' is 0x31).  Column i, read little-endian,
    holds that bit of every draw, so the XOR of a part's columns is its
    parity in all N draws.  Draw t's parities are the stride-N slice from
    byte t of the joined parity bytes, each digit a byte's low bit.  Each
    heavy part is ANDed with the mask and counted instead.  The mask
    expands onto the free columns and the parities onto the pivot columns.
    """

    def __init__(self, parts: Sequence[int], pivot_cols: Sequence[int], cols: int):
        pivot_mask = gf2.bits_at(pivot_cols)
        free_mask = ((1 << cols) - 1) ^ pivot_mask
        self.pivots = pivot_mask, _moves(pivot_mask, cols)
        self.free = free_mask, _moves(free_mask, cols)
        self.heavy = [(k, part) for k, part in enumerate(parts) if part.bit_count() > _HEAVY_ROW]
        light = [0 if part.bit_count() > _HEAVY_ROW else part for part in parts]
        held = functools.reduce(operator.or_, light, 0)
        self.held = held, _moves(held, cols - len(pivot_cols))
        column = {j: i for i, j in enumerate(_set_bits(held), 1)}
        self.stride = len(column) + 1
        self.spec = f"0{self.stride}b"
        # lists, not tuple() of a generator, whose resizing fragmented the heap
        self.parts = [[column[j] for j in _set_bits(part)] for part in light] + [[]]

    def combine(self, masks: Sequence[int]) -> list[int]:
        n, stride = len(masks), self.stride
        held, moves = self.held
        matrix = "".join([format(_compress(m, held, moves), self.spec) for m in masks]).encode()
        columns = [int.from_bytes(matrix[i::stride], "little") for i in range(stride)]
        # one buffer, not a bytes object per part, keeps the heap from fragmenting
        rows = bytearray(n * len(self.parts))
        for k, part in enumerate(self.parts):
            parity = functools.reduce(operator.xor, map(columns.__getitem__, part), 0)
            rows[k * n : (k + 1) * n] = parity.to_bytes(n, "little")
        out = []
        for t, mask in enumerate(masks):
            parities = int(rows[t::n].translate(_LOW_BIT_TO_ASCII)[::-1], 2)
            for k, part in self.heavy:
                parities |= ((part & mask).bit_count() & 1) << k
            out.append(_expand(mask, *self.free) | _expand(parities, *self.pivots))
        return out


@dataclass(eq=False, repr=False)
class WindowSpace:
    """The exact solution space of a code's local rule on a box.

    A space holds the stencil plan of the rule and ``echelon``, the one
    elimination of the plan's rows, pivot column c to echelon row shifted
    down by c, as :func:`gf2.echelon_pivots` returns it; ``rank`` is its
    size.  The rows themselves are not kept: ``constraint_matrix``
    rebuilds them from the plan on each access, widening each pair
    (c, r) of ``StencilPlan.rows`` to the bit-packed row r << c, one per
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
        """The plan's rows, each pair (c, r) widened to r << c, rebuilt on each access."""
        return F2Matrix(tuple(r << c for c, r in self.plan.rows()), self.site_count)

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

    def _combine(self, masks: Sequence[int]) -> list[int]:
        """The combinations of ``solution_basis`` rows selected by each mask."""
        if self.rank < self.free_dim:
            return self._pivot_parities.combine(masks)
        rows, spec = self.solution_basis.rows, f"0{self.free_dim}b"
        # the mask's digits, bit k at byte k, select the rows to XOR
        return [
            functools.reduce(
                operator.xor,
                itertools.compress(rows, format(mask, spec)[::-1].encode().translate(_LOW_BIT)),
                0,
            )
            for mask in masks
        ]


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
    from the plan into :func:`gf2.echelon_pivots` as pairs (c, r) standing
    for r << c, r the pattern shifted down to its lowest set bit, and are
    not stored.
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


def sample_rounds(
    spaces: Sequence[WindowSpace], rng: random.Random, rounds: int
) -> list[tuple[WindowConfig, ...]]:
    """Uniform solutions from an existing random stream, one per space in each round.

    Round r makes one ``rng.getrandbits(free_dim)`` call per space, in
    the order given, as that many :func:`sample_with` calls would; a space
    with free_dim 0 draws nothing and gives the zero configuration.  Each
    mask selects the ``solution_basis`` rows to combine, bit k for row k,
    and each space combines all of its masks of ``_DRAW_CHUNK`` rounds in
    one call.  Returns one tuple per round, in the order of ``spaces``.
    """
    out = []
    for start in range(0, rounds, _DRAW_CHUNK):
        places = spaces * min(_DRAW_CHUNK, rounds - start)
        draws = [s.free_dim and rng.getrandbits(s.free_dim) for s in places]
        # each space's masks, in stream order, become its draws in one call
        for space in dict.fromkeys(s for s in spaces if s.free_dim):
            at = [i for i, s in enumerate(places) if s is space]
            for i, bits in zip(at, space._combine([draws[i] for i in at])):
                draws[i] = bits
        configs = [WindowConfig(s.box, bits) for s, bits in zip(places, draws)]
        out += [tuple(configs[i : i + len(spaces)]) for i in range(0, len(configs), len(spaces))]
    return out


def sample_with(space: WindowSpace, rng: random.Random) -> WindowConfig:
    """Uniform solution drawn from an existing random stream: one round of :func:`sample_rounds`."""
    return sample_rounds((space,), rng, 1)[0][0]


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
    strides = _strides(source.shape)
    start = sum((i + v - l) * s for i, v, l, s in zip(domain.lower, offset, source.lower, strides))
    mask = _sub_box_mask(strides, start, domain.shape)
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
