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
The constraint rows are the word patterns shifted to every anchor bit.
Each space takes one membership rule and one draw rule, each chosen once,
by the table in :class:`WindowSpace`.  Solution counting is exact rank
arithmetic.

Bits move under a mask by one primitive (Warren, *Hacker's Delight*,
7-4 and 7-5): ``_moves`` turns a mask into at most ceil(log2(sites))
(bits, shift) moves, ``_compress`` packs the bits under the mask into
the low bits in order, and ``_spread`` undoes it by the steps of
``_expand_steps``, the moves reversed, each ANDing with the positive
complement of its bits in the mask's width rather than with a negative
int, which CPython handles slowly.  Gathers compress through a plan
from one private ``lru_cache(maxsize=64)``: a domain, ``start``, the
source bit of the domain's first site, and the mask of
the source sub-box shifted down by ``start`` with its moves, so a gather
compresses ``x.bits >> start``.  A sub-box that is one run of bits needs
no move: the diagonal shift on [0, 2)^d keeps one site, and the unit
shift e_0 of a cube keeps one run.  The moves are built on units: a
unit is the stride of the last axis that the domain narrows, the axes
after it being whole, so the mask is runs of one unit each and they
move whole.  The d + 1 shifts of a box-3 cube take 59 moves at d = 8,
91 at d = 10 and 128 at d = 12, where moves built on bits took 92, 145
and 213; e_1 on [0, 3)^8 takes 2, not 10.  Box-2 plans keep their
counts, e_j on [0, 2)^d taking j.  A shift's plan is keyed by the
source box and the shift alone and builds the overlap domain itself, so
that domain is built once per (box, shift) and every configuration
shifted through the plan shares its ``Box``; box checks then end at the
identity test.  Shifts take one path: ``shift_gather`` validates a shift
and looks its plan up once, for every configuration it then shifts, and
``shift_restrict`` is one call of it.  Both of a verification's
equivariance checks gather each shift through one ``shift_gather``, so
one verify makes d + 5 plan lookups, the sampled check's d + 1 and the
toy sweep's 4, each on its own key.  The benchmark's pass of seven
verifies makes 97 plan lookups on 46 keys, all of them shifts: a fresh
process builds the 46 plans (2-3 ms in all on a 2-vCPU VM, 0.3-0.5 ms
for the 13 of one ``verify -d 8 --box 2``), so a fresh CLI verify makes
no hit, and the cache serves repeated calls in one process.

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
once on the plan, from its highest anchor bit and largest offset.
``solution_basis`` back-substitutes the echelon when first needed into
reduced rows in free coordinates; membership and draws read the echelon
or the plan, by the rules of :class:`WindowSpace`.  Each keeps only what
it derives.  Window rows are eliminated in plan order, unsorted: each
anchor's rows meet few earlier pivots, and the sort that
``code_from_generators`` needs for arbitrary generator rows only slows
the planar elimination down.

Sampling draws one mask of free_dim = sites - rank random bits and
forms the combination of the kernel basis rows it selects.  Kernel row j
is e_f, f the j-th free column, plus every pivot column whose reduced
row has bit f set, so the combination is the kernel element whose free
columns hold the mask.  Its bit at pivot c is the XOR of the other bits
of c's echelon row, each on a free column or on a higher pivot, so the
pivots are solved from the highest down, by the space's draw rule; no
rule makes a kernel row.  ``sample_rounds`` takes the masks of up to
``_DRAW_CHUNK`` = 256 rounds from the stream, in the order single draws
take them, and each space combines all of its masks in one call.  The
pivot lanes of a space of several dual words solve a batch bit-sliced,
one byte per draw, and move its bits between layouts as bytes alone:
the masks' ``to_bytes`` join into a draw-major matrix whose strided
byte slices, read as ints, are the masks' columns, and each pivot's
lane, shifted to its bit, ORs into a strided slice of a draw-major
matrix of pivot bits whose rows, read as ints, join the spread masks.
Every rule gives the same bits from the same random call, so seeded
streams depend neither on the choice nor on the batch.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

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
    "shift_gather",
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
    ``upper``, and the hash is the frozen dataclass's own,
    ``hash((lower, upper))``.  The box checks test identity first, since
    the configurations of one space share its box and those gathered
    through one plan share its domain.
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


@dataclass(frozen=True, slots=True, init=False)
class WindowConfig:
    """A GF(2) configuration on a box, bit-packed in site order.

    The ``__init__`` checks the bits and writes both fields through the
    class's own slot descriptors, so a construction is one call with no
    ``__post_init__`` and no generic ``object.__setattr__``; equality,
    hashing, repr, ``dataclasses.replace`` and the frozen assignment
    error are the dataclass's own.
    """

    box: Box
    bits: int

    def __init__(self, box: Box, bits: int):
        # a bit-length test needs no site_count-bit int (4,096 bits at d = 12)
        if not isinstance(bits, int) or bits < 0 or bits.bit_length() > box.site_count:
            raise ValueError("bits must be an int with no bit outside the box")
        _set_config_box(self, box)
        _set_config_bits(self, bits)

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


# the slot descriptors' own setters, which bypass the frozen class's __setattr__
_set_config_box = WindowConfig.box.__set__
_set_config_bits = WindowConfig.bits.__set__


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
        shifted = [_low_pattern(t) for t in self.taps]
        bits = format(self.anchor_mask, "b")[::-1]
        return ((base + lo, r) for base, ch in enumerate(bits) if ch == "1" for lo, r in shifted)

    def holds(self, bits: int) -> bool:
        """Whether the configuration ``bits`` meets every constraint row evenly.

        For each dual word, ``bits`` shifted right by each of the word's
        offsets is XOR-ed together, bit idx(i) + 1 of the result being
        the rule's sum at anchor i; the rule fails when that XOR meets
        ``anchor_mask``.
        """
        for taps in self.taps:
            acc = 0
            for o in taps:
                acc ^= bits >> o
            if acc & self.anchor_mask:
                return False
        return True


def _low_pattern(taps: Sequence[int]) -> tuple[int, int]:
    """(lo, r): a word's pattern, the XOR of ``1 << o`` over its offsets, is r << lo, r odd."""
    p = functools.reduce(operator.xor, (1 << o for o in taps), 0)
    # a zero pattern has no anchor to reach; it only must not raise
    lo = (p & -p).bit_length() - 1 if p else 0
    return lo, p >> lo


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


def _moves(mask: int, n: int, unit: int = 1) -> tuple[tuple[int, int], ...]:
    """The (bits, shift) moves of a compress to the n-bit ``mask`` (Hacker's Delight 7-4).

    The mask is runs of ``unit`` bits, each from a multiple of ``unit``,
    and n is a multiple of ``unit``; the runs move whole, so the moves
    are built on units.  A unit with z clear units below it moves by 2^r
    units in round r when z has bit r set; the prefix parity of ``zeros``
    is that bit of every z.  Each unit is tracked at its lowest bit
    alone, and a move's bits mv widen to their runs, (mv << unit) - mv.
    """
    full = (1 << n) - 1
    # bit k * unit for every unit, doubled up from bit 0 (a division of
    # full by 2^unit - 1 costs n x unit); no int here is negative
    starts, w = 1, unit
    while w < n:
        starts |= starts << w
        w <<= 1
    starts &= full
    mask &= starts
    zeros = (starts ^ mask) << unit & full
    moves = []
    s = unit
    while zeros:
        parity = zeros
        for k in range((n // unit - 1).bit_length()):
            parity ^= parity << (unit << k)
        mv = parity & mask
        if mv:
            moves.append(((mv << unit) - mv, s))
        mask = mask ^ mv | mv >> s
        zeros &= full ^ parity
        s <<= 1
    return tuple(moves)


def _compress(x: int, mask: int, moves: Sequence[tuple[int, int]]) -> int:
    """The bits of x under ``mask``, packed in order into the low bits."""
    x &= mask
    for mv, s in moves:
        t = x & mv
        x = x ^ t | t >> s
    return x


def _expand_steps(mask: int, moves: Sequence[tuple[int, int]]) -> tuple[tuple[int, int, int], ...]:
    """The steps of an expand onto ``mask``: the moves reversed (7-5), each with its keep mask.

    A step's keep mask is (2^n - 1) ^ bits, n the bit length of ``mask``,
    so an expand ANDs with a positive int, not with the negative ~bits.
    """
    full = (1 << mask.bit_length()) - 1
    return tuple((full ^ mv, mv, s) for mv, s in reversed(moves))


def _spread(x: int, mask: int, steps: Sequence[tuple[int, int, int]]) -> int:
    """The low bits of x spread in order onto ``mask`` by its :func:`_expand_steps`."""
    for keep, mv, s in steps:
        x = x & keep | x << s & mv
    return x & mask


def _free_spread(pivots: int, cols: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The mask of the columns below ``cols`` outside ``pivots``, with the steps spreading onto it."""
    free_mask = ((1 << cols) - 1) ^ pivots
    return free_mask, _expand_steps(free_mask, _moves(free_mask, cols))


# Rounds drawn at a time, so that a batch's masks, byte matrix and parity
# rows hold at most this many rows per place of its space in a round.
_DRAW_CHUNK = 256


class _PivotParities:
    """Kernel combinations solved straight off the echelon of a window system.

    Built once per space from its echelon, pivot column c to echelon row
    shifted down by c.  With the free columns fixed, the kernel element's
    bit at pivot c is the XOR of its row's other bits, each on a free
    column or on a higher pivot, so the pivots are solved from the
    highest down.  The set-up walks each row's set bits once, from the
    highest pivot down.  ``lanes`` has one entry (s, pivots) per site
    byte s that holds a pivot, highest first, and ``pivots`` the pairs
    (c, reads) of its pivots, highest first, ``reads`` the columns of c's
    row other than c.  ``held`` has one entry (b, columns) per byte b of
    a mask that holds a free column some row reads, and ``columns`` the
    pairs (j, f & 7) of those columns, j the column and f its free index,
    j less the pivots below it, counted in one walk up the sorted pivots.

    ``combine`` bit-slices its N masks (Biham, FSE 1997), since the
    rows of a window space are sparse: at d = 8 on [0, 3)^8 the code's
    977 rows read 5.3 bits a row.  Bits change layout as bytes, never as
    strings.  The masks' ``to_bytes`` join into a draw-major matrix, and
    the stride-``width`` slice from byte b, read little-endian, holds
    byte b of every mask, byte t that of mask t.  For each held column j
    of byte b, shifted down by f & 7 and ANDed with one 0x01 byte per
    draw, it is j's lane: bit 8t is j's bit in draw t.  The XOR of the lanes of a pivot's
    reads is its bit in all N draws: its lane.  The lanes of a site
    byte's pivots, each shifted up by c & 7, OR into the N bytes of that
    site byte in every draw, the stride-``size`` slice of a draw-major
    matrix of pivot bits.  Draw t is its mask spread onto the free
    columns by steps computed here, ORed with row t of that matrix read
    little-endian.  No reduced row is made.
    """

    def __init__(self, echelon: dict[int, int], cols: int):
        pivot_cols = sorted(echelon, reverse=True)
        self.free = _free_spread(gf2.bits_at(pivot_cols), cols)
        self.cols = cols
        self.width = (cols - len(pivot_cols) + 7) >> 3
        self.size = (cols + 7) >> 3
        self.lanes = []
        site, read = -1, set()
        for c in pivot_cols:
            reads = []
            # the row's other bits, highest first, one step per set bit
            row = echelon[c] ^ 1
            while row:
                j = row.bit_length() - 1
                row ^= 1 << j
                reads.append(c + j)
            read.update(reads)
            if c >> 3 != site:
                site, pivots = c >> 3, []
                self.lanes.append((site, pivots))
            pivots.append((c, reads))
        ascending = pivot_cols[::-1]
        self.held = []
        b, below = -1, 0
        for j in sorted(read.difference(echelon)):
            while below < len(ascending) and ascending[below] < j:
                below += 1
            f = j - below
            if f >> 3 != b:
                b, columns = f >> 3, []
                self.held.append((b, columns))
            columns.append((j, f & 7))

    def combine(self, masks: Sequence[int]) -> list[int]:
        n, width, size = len(masks), self.width, self.size
        matrix = b"".join([m.to_bytes(width, "little") for m in masks])
        ones = int.from_bytes(b"\x01" * n, "little")
        values = [0] * self.cols
        for b, columns in self.held:
            byte = int.from_bytes(matrix[b::width], "little")
            for j, s in columns:
                values[j] = byte >> s & ones
        # one buffer, not a bytes object per site byte, keeps the heap from fragmenting
        rows = bytearray(n * size)
        for site, pivots in self.lanes:
            bits = 0
            for c, reads in pivots:
                lane = values[c] = functools.reduce(operator.xor, map(values.__getitem__, reads), 0)
                bits |= lane << (c & 7)
            rows[site::size] = bits.to_bytes(n, "little")
        free_mask, steps = self.free
        return [
            _spread(mask, free_mask, steps) | int.from_bytes(rows[t * size : (t + 1) * size], "little")
            for t, mask in enumerate(masks)
        ]


class _EchelonRows:
    """Membership and draws read straight off an echelon of few rows.

    ``rows`` pairs each echelon row, widened to r << c, with its pivot
    bit 1 << c, highest pivot first.  The rows span the constraint rows,
    so a configuration satisfies the rule when it meets every one of
    them evenly.  A draw spreads the mask onto the free columns by steps
    computed here, then sets each pivot, highest first, whose row the
    draw meets an odd number of times: the row's other bits are free
    columns or higher pivots already set, so no kernel row is made.
    """

    def __init__(self, echelon: dict[int, int], cols: int):
        self.rows = [(r << c, 1 << c) for c, r in sorted(echelon.items(), reverse=True)]
        self.free = _free_spread(gf2.bits_at(echelon), cols)

    def holds(self, bits: int) -> bool:
        for row, _ in self.rows:
            if (bits & row).bit_count() & 1:
                return False
        return True

    def combine(self, masks: Sequence[int]) -> list[int]:
        out = []
        for mask in masks:
            x = _spread(mask, *self.free)
            for row, pivot in self.rows:
                if (x & row).bit_count() & 1:
                    x |= pivot
            out.append(x)
        return out


class _StencilLevels:
    """Draws of a one-word space, its pivots solved a dependency level at a time.

    With one dual word, of pattern p and lowest offset lo, every
    constraint row is p shifted to its anchor bit b, and its lowest bit
    q = b + lo is a pivot as it comes: the pivots are
    ``anchor_mask << lo``.  The kernel bit at q is the XOR of the bits
    q + t over the reads t, the distances from bit lo of p to its other
    set bits.  Such a bit may itself be a pivot, so the pivots are peeled
    into ``levels``, pairs (reads, pivot mask): each level holds the
    pivots none of whose reads is a pivot still unsolved, found by one
    shift of the unsolved pivots per read.  A lone read t doubles after
    each level: a pivot still unsolved after k levels heads a chain of
    2^k pivots, each copying the bit t above it, so it equals the bit
    2^k t above it (pointer jumping, the recursive doubling of a
    first-order recurrence: Kogge and Stone, IEEE Trans. Computers,
    1973).  A draw spreads its mask onto the free columns, then for each
    level in turn sets the level's pivots from the XOR of the draw
    shifted down by each of its reads: one whole-configuration shift per
    read and level (level scheduling of a triangular system, Anderson
    and Saad 1989).
    """

    def __init__(self, plan: StencilPlan, cols: int):
        (taps,) = plan.taps
        lo, r = _low_pattern(taps)
        reads = [t for t in range(1, r.bit_length()) if r >> t & 1]
        pivots = plan.anchor_mask << lo
        self.free = _free_spread(pivots, cols)
        self.levels = []
        unsolved = pivots
        while unsolved:
            # a pivot is blocked when one of its reads is an unsolved pivot
            blocked = 0
            for t in reads:
                blocked |= unsolved >> t
            level = unsolved ^ unsolved & blocked
            self.levels.append((reads, level))
            unsolved ^= level
            if len(reads) == 1:
                # an unsolved pivot equals the bit twice as far above it
                reads = [2 * reads[0]]

    def combine(self, masks: Sequence[int]) -> list[int]:
        out = []
        for mask in masks:
            x = _spread(mask, *self.free)
            for reads, level in self.levels:
                s = 0
                for t in reads:
                    s ^= x >> t
                x |= s & level
            out.append(x)
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
    ``solution_basis`` back-substitutes the echelon on first use into
    reduced rows in free coordinates.

    Each space takes one membership rule, ``_membership``, read by
    :func:`contains`, and one draw rule, ``_draws``, read by
    :func:`sample_rounds`.  Both are chosen here and nowhere else, each
    set up on first use, and no rule makes a kernel row.  The cut is the
    plan's tap count, the offsets of all its dual words together:

    ===============================  ================  ==================
    space                            ``_membership``   ``_draws``
    ===============================  ================  ==================
    rank <= taps                     ``_EchelonRows``  the same object
    rank > taps, one dual word       the plan          ``_StencilLevels``
    rank > taps, several dual words  the plan          ``_PivotParities``
    ===============================  ================  ==================

    The one-anchor spaces on [0, 2)^d take the first row (rank 4 and 1
    at d = 8, against 16 and 8 taps).  The d = 8 box-3 product space and
    the planar even-weight spaces take the second, and the d = 8 box-3
    code space the third.  A membership test on a space above the cut
    sets up no draw rule.  The lanes also serve spaces of several words
    with rank >= free_dim, which neither ``verify`` nor the planar
    sampler builds.  There a warm single draw pays every pivot's lane: on
    a 2-vCPU VM 6.2 ms for ``repetition_code(3)`` on [0, 20)^3 and 3.0 ms
    for ``repetition_code(4)`` on [0, 8)^4, against 0.04 and 0.11 ms for
    an XOR of back-substituted kernel rows; a build plus one draw, which
    pays no back-substitution, takes 1.17x and 1.08x as long.
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
    def _membership(self) -> _EchelonRows | StencilPlan:
        if self.rank > sum(map(len, self.plan.taps)):
            return self.plan
        return _EchelonRows(self.echelon, self.site_count)

    @functools.cached_property
    def _draws(self) -> _EchelonRows | _StencilLevels | _PivotParities:
        if isinstance(self._membership, _EchelonRows):
            return self._membership
        if len(self.plan.taps) == 1:
            return _StencilLevels(self.plan, self.site_count)
        return _PivotParities(self.echelon, self.site_count)

    @property
    def site_count(self) -> int:
        return self.box.site_count

    @property
    def free_dim(self) -> int:
        """Dimension of the solution space: sites minus constraint rank."""
        return self.box.site_count - self.rank


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

    The space's membership rule decides (see :class:`WindowSpace`):
    its few echelon rows, or its plan's scan.
    """
    if x.box is not space.box and x.box != space.box:
        raise ValueError("box mismatch")
    return space._membership.holds(x.bits)


def sample_rounds(
    spaces: Sequence[WindowSpace], rng: random.Random, rounds: int
) -> list[tuple[WindowConfig, ...]]:
    """Uniform solutions from an existing random stream, one per space in each round.

    Round r makes one ``rng.getrandbits(free_dim)`` call per space, in
    the order given, as that many :func:`sample_with` calls would; a space
    with free_dim 0 draws nothing and gives the zero configuration.  Each
    mask selects the ``solution_basis`` rows to combine, bit k for row k,
    and each space combines all of its masks of ``_DRAW_CHUNK`` rounds in
    one call, by its draw rule (see :class:`WindowSpace`); every rule
    gives the same bits.  Returns one tuple per round, in the order of
    ``spaces``.

    Raises:
        ValueError: when ``rounds`` is not an integer or is negative, or
            ``spaces`` is empty, before the stream is read.
    """
    (rounds,) = int_tuple((rounds,), "rounds")
    if rounds < 0:
        raise ValueError(f"need rounds >= 0, got {rounds}")
    if not spaces:
        raise ValueError("spaces must hold at least one window space")
    out = []
    for start in range(0, rounds, _DRAW_CHUNK):
        places = spaces * min(_DRAW_CHUNK, rounds - start)
        draws = [s.free_dim and rng.getrandbits(s.free_dim) for s in places]
        # each space's masks, in stream order, become its draws in one call
        for space in dict.fromkeys(s for s in spaces if s.free_dim):
            at = [i for i, s in enumerate(places) if s is space]
            for i, bits in zip(at, space._draws.combine([draws[i] for i in at])):
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
) -> tuple[Box, int, int, tuple] | None:
    """Domain, start, mask and moves: a compress of x >> start maps x to i -> x(i + offset).

    x lies on ``source``.  ``start`` is the source bit of the domain's
    first site, so the mask and its moves are built for the source
    sub-box shifted down to bit 0: a sub-box that is one run of bits
    needs no move at all, as the single site of the diagonal shift on
    [0, 2)^d does.  The unit is the stride of the last axis the domain
    narrows (the first axis's when none is narrowed): every axis after
    it is whole, so the mask is runs of one unit, each from a multiple
    of the unit, and :func:`_moves` builds the moves on units, each move
    widened to its runs and its shift a multiple of the unit.  e_1 on
    [0, 3)^8 thus takes 2 moves of runs of 3^6 bits where a mask of bits
    took 10.  A ``domain`` of None stands for the overlap of
    ``source`` with its shift by ``offset``, and the plan is None when
    that overlap is empty.  The overlap is then built once per (source,
    offset), and every configuration shifted through the plan shares
    its ``Box``.
    """
    if domain is None:
        domain = _overlap(source, (offset,))
        if domain is None:
            return None
    strides = _strides(source.shape)
    start = sum((i + v - l) * s for i, v, l, s in zip(domain.lower, offset, source.lower, strides))
    mask = _sub_box_mask(strides, 0, domain.shape)
    # the axes after the last narrowed one are whole: the mask is runs of
    # that axis's stride, which move as units
    last = max((a for a, (w, n) in enumerate(zip(domain.shape, source.shape)) if w != n), default=0)
    return domain, start, mask, _moves(mask, mask.bit_length(), strides[last])


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


def shift_gather(box: Box, m: Sequence[int]) -> Callable[[WindowConfig], WindowConfig]:
    """The shift by m of configurations on ``box``, validated and planned once.

    The gather maps x to y(i) = x(i + m) on the overlap domain, the
    sites i of ``box`` with i + m in ``box``; all its results share that
    domain's ``Box``.  The shift's :func:`_gather_plan` is looked up
    once, here, and each configuration on ``box`` is compressed straight
    through it.  A configuration on another box is gathered through
    ``shift_gather(x.box, m)``, that box's own plan.

    Raises:
        ValueError: when an entry of ``m`` is not an integer, on an
            arity mismatch, or when the overlap is empty.
    """
    mm = int_tuple(m, "shift entries")
    if len(mm) != box.dimension:
        raise ValueError("shift arity mismatch")
    plan = _gather_plan(box, None, mm)
    if plan is None:
        raise ValueError("empty overlap: the shift moves the box off itself")
    domain, start, mask, moves = plan

    def gather(x: WindowConfig) -> WindowConfig:
        if x.box is not box and x.box != box:
            return shift_gather(x.box, mm)(x)
        return WindowConfig(domain, _compress(x.bits >> start, mask, moves))

    return gather


def shift_restrict(x: WindowConfig, m: Sequence[int]) -> WindowConfig:
    """Shifted configuration y(i) = x(i + m) on the overlap domain: one :func:`shift_gather`.

    The result lives on the sites i of the box with i + m in the box,
    the single-offset case of the overlap rule ``apply_poly`` uses; the
    domain shrinks rather than padding.  Results of one box and shift
    share one domain ``Box``.  Each call validates and plans the shift;
    a caller shifting many configurations by one m calls
    :func:`shift_gather` once and applies its gather to each.

    Raises:
        ValueError: when an entry of ``m`` is not an integer, on an
            arity mismatch, or when the overlap is empty.
    """
    return shift_gather(x.box, m)(x)


def restrict(x: WindowConfig, sub: Box) -> WindowConfig:
    """Restriction of a configuration to a fully contained sub-box."""
    if not x.box.contains_box(sub):
        raise ValueError("restriction target is not contained in the box")
    _, start, mask, moves = _gather_plan(x.box, sub, (0,) * sub.dimension)
    return WindowConfig(sub, _compress(x.bits >> start, mask, moves))


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
        _, start, mask, moves = _gather_plan(x.box, domain, t)
        bits ^= _compress(x.bits >> start, mask, moves)
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
