"""Exact finite-window engines for code-defined group shifts.

A window space is the solution set of the local membership rule on a
finite box: one site per GF(2) variable, and one constraint row per
(anchor, dual-basis-vector) pair, where an anchor is a site whose whole
forward stencil ``i + e_1 .. i + e_d`` lies inside the box.  Solution
counting is exact rank arithmetic; sampling is a seeded random
combination of a kernel basis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import codes as codes_mod
from . import gf2
from .codes import BinaryCode
from .errors import GuardExceededError
from .gf2 import F2Matrix, IntVector
from .laurent import LaurentPoly

__all__ = [
    "MAX_SITES",
    "MAX_CONSTRAINT_ROWS",
    "Box",
    "WindowConfig",
    "WindowSpace",
    "cube",
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
    """A half-open integer box: sites with lower[a] <= i[a] < upper[a]."""

    lower: IntVector
    upper: IntVector

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower and upper must be nonempty and of equal arity")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("box must be nonempty on every axis")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> IntVector:
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    @property
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

    def translate(self, m: Sequence[int]) -> Box:
        if len(m) != self.dimension:
            raise ValueError("translation arity mismatch")
        return Box(
            tuple(l + v for l, v in zip(self.lower, m)),
            tuple(u + v for u, v in zip(self.upper, m)),
        )

    def intersect(self, other: Box) -> Box | None:
        if other.dimension != self.dimension:
            raise ValueError("arity mismatch")
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        hi = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        if any(u <= l for l, u in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def contains_box(self, other: Box) -> bool:
        return all(a <= b for a, b in zip(self.lower, other.lower)) and all(
            b <= a for a, b in zip(self.upper, other.upper)
        )


def cube(d: int, n: int) -> Box:
    """The box [0, n)^d."""
    return Box((0,) * d, (n,) * d)


@dataclass(frozen=True)
class WindowConfig:
    """A GF(2) configuration on a box, bit-packed in site order."""

    box: Box
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.box.site_count):
            raise ValueError("bits outside the box")

    @classmethod
    def zero(cls, box: Box) -> WindowConfig:
        return cls(box, 0)

    @classmethod
    def from_values(cls, box: Box, values: Iterable[int]) -> WindowConfig:
        bits = 0
        for k, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError("values must be 0 or 1")
            bits |= v << k
        return cls(box, bits)

    def value(self, site: Sequence[int]) -> int:
        return (self.bits >> self.box.index(site)) & 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: WindowConfig) -> WindowConfig:
        if self.box != other.box:
            raise ValueError("box mismatch")
        return WindowConfig(self.box, self.bits ^ other.bits)

    def to_bit_string(self) -> str:
        n = self.box.site_count
        return "".join("1" if (self.bits >> k) & 1 else "0" for k in range(n))

    def to_json_dict(self) -> dict:
        return {
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "values": self.to_bit_string(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> WindowConfig:
        box = Box(tuple(data["box"]["lower"]), tuple(data["box"]["upper"]))
        values = data["values"]
        if len(values) != box.site_count:
            raise ValueError("value string length disagrees with the box")
        return cls.from_values(box, (int(ch) for ch in values))


def _anchor_ranges(box: Box) -> list[range]:
    # anchor i needs i + e_j inside the box for every axis j; with a
    # single axis the anchor itself may sit one step below the box
    d = box.dimension
    ranges = []
    for a in range(d):
        lo = box.lower[a] if d > 1 else box.lower[a] - 1
        hi = box.upper[a] - 2
        ranges.append(range(lo, hi + 1))
    return ranges


class WindowSpace:
    """The exact solution space of a code's local rule on a box.

    ``constraint_matrix`` has one bit-packed row per (anchor, dual-basis
    vector); ``solution_basis`` (materialized on first use) spans its
    kernel.  ``rank`` is available immediately after construction.
    """

    def __init__(self, box: Box, code: BinaryCode, constraint_matrix: F2Matrix, rank: int):
        self.box = box
        self.code = code
        self.constraint_matrix = constraint_matrix
        self.rank = rank
        self._solution_basis: F2Matrix | None = None

    @property
    def solution_basis(self) -> F2Matrix:
        if self._solution_basis is None:
            self._solution_basis = gf2.kernel_basis(self.constraint_matrix)
        return self._solution_basis

    @property
    def site_count(self) -> int:
        return self.box.site_count


def build_window_space(
    box: Box,
    code: BinaryCode,
    *,
    max_sites: int = MAX_SITES,
    max_rows: int = MAX_CONSTRAINT_ROWS,
) -> WindowSpace:
    """Assemble the constraint system of a code's local rule on a box.

    Anchors and sites are enumerated in lexicographic order and the dual
    basis in canonical order, so the matrix is deterministic.

    Raises:
        GuardExceededError: when the box or the constraint count exceeds
            the (overridable) resource guards.
    """
    if box.dimension != code.length:
        raise ValueError("box dimension disagrees with the code length")
    n_sites = box.site_count
    if n_sites > max_sites:
        raise GuardExceededError(f"box has {n_sites} sites, guard is {max_sites}")
    d = code.length
    dual_rows = codes_mod.dual(code).basis.row_vectors()
    anchors = list(itertools.product(*_anchor_ranges(box)))
    n_rows = len(anchors) * len(dual_rows)
    if n_rows > max_rows:
        raise GuardExceededError(f"system has {n_rows} constraint rows, guard is {max_rows}")
    rows: list[int] = []
    for anchor in anchors:
        stencil = [
            box.index(tuple(x + (1 if a == j else 0) for a, x in enumerate(anchor)))
            for j in range(d)
        ]
        for w in dual_rows:
            bits = 0
            for j in w.support():
                bits ^= 1 << stencil[j]
            rows.append(bits)
    matrix = F2Matrix(tuple(rows), n_sites)
    rank = len(gf2.echelon_pivots(rows))
    return WindowSpace(box, code, matrix, rank)


def log2_count(space: WindowSpace) -> int:
    """log2 of the number of window solutions: sites minus constraint rank."""
    return space.site_count - space.rank


def contains(space: WindowSpace, x: WindowConfig) -> bool:
    """Whether a configuration satisfies every window constraint."""
    if x.box != space.box:
        raise ValueError("box mismatch")
    return all((row & x.bits).bit_count() % 2 == 0 for row in space.constraint_matrix.rows)


def sample_with(space: WindowSpace, rng: random.Random) -> WindowConfig:
    """Uniform solution drawn from an existing random stream."""
    basis = space.solution_basis.rows
    bits = 0
    if basis:
        mask = rng.getrandbits(len(basis))
        for k, row in enumerate(basis):
            if (mask >> k) & 1:
                bits ^= row
    return WindowConfig(space.box, bits)


def sample(space: WindowSpace, seed: int) -> WindowConfig:
    """Uniform solution: a seeded random combination of the kernel basis."""
    return sample_with(space, random.Random(seed))


def star(x: WindowConfig, y: WindowConfig) -> WindowConfig:
    """Coordinatewise (sitewise) product of two configurations."""
    if x.box != y.box:
        raise ValueError("box mismatch")
    return WindowConfig(x.box, x.bits & y.bits)


def _gather_bits(x: WindowConfig, target: Box, m: IntVector) -> int:
    """Bits of the map i -> x(i + m) over the sites of ``target``.

    The configuration is written as a string with one character per
    site, in site order.  The target's source region ``target + m`` is
    then cut out of it axis by axis, first axis first: on every axis
    where the target is narrower than the box, each block of that axis
    keeps one slice.  The characters left are the target's sites in its
    own site order, read back as an int.
    """
    n = x.box.site_count
    s = format(x.bits, f"0{n}b")[::-1]
    block = n
    for lo, width, src_lo, side, v in zip(
        target.lower, target.shape, x.box.lower, x.box.shape, m
    ):
        stride = block // side
        if width < side:
            start = (lo + v - src_lo) * stride
            stop = start + width * stride
            s = "".join([s[k + start : k + stop] for k in range(0, len(s), block)])
        block = stride
    return int(s[::-1], 2)


def shift_restrict(x: WindowConfig, m: Sequence[int]) -> WindowConfig:
    """Shifted configuration y(i) = x(i + m) on the overlap domain.

    The result lives on the intersection of box and (box - m), where the shift is
    defined and the original box keeps footing; the domain shrinks
    rather than padding.

    Raises:
        ValueError: when the overlap is empty.
    """
    mm = tuple(int(v) for v in m)
    if len(mm) != x.box.dimension:
        raise ValueError("shift arity mismatch")
    moved = x.box.translate(tuple(-v for v in mm))
    overlap = x.box.intersect(moved)
    if overlap is None:
        raise ValueError("empty overlap: the shift moves the box off itself")
    return WindowConfig(overlap, _gather_bits(x, overlap, mm))


def restrict(x: WindowConfig, sub: Box) -> WindowConfig:
    """Restriction of a configuration to a fully contained sub-box."""
    if not x.box.contains_box(sub):
        raise ValueError("restriction target is not contained in the box")
    zero = (0,) * x.box.dimension
    return WindowConfig(sub, _gather_bits(x, sub, zero))


def apply_poly(p: LaurentPoly, x: WindowConfig) -> WindowConfig:
    """Module action of a Laurent polynomial: (p.x)(i) = sum of x(i + m).

    Defined on the sites where every translate stays inside the box.

    Raises:
        ValueError: when that common domain is empty.
    """
    if p.arity != x.box.dimension:
        raise ValueError("arity mismatch")
    domain = x.box
    for t in p.terms:
        moved = x.box.translate(tuple(-e for e in t))
        nxt = domain.intersect(moved)
        if nxt is None:
            raise ValueError("empty domain for the polynomial action")
        domain = nxt
    bits = 0
    for t in p.terms:
        bits ^= _gather_bits(x, domain, t)
    return WindowConfig(domain, bits)


def entropy_profile(
    code: BinaryCode,
    sizes: Sequence[int],
    *,
    max_sites: int = MAX_SITES,
    max_rows: int = MAX_CONSTRAINT_ROWS,
) -> list[Fraction]:
    """Exact rationals log2_count / N^d for cubic boxes [0, N)^d."""
    out = []
    for n in sizes:
        if n < 1:
            raise ValueError("box size must be at least 1")
        space = build_window_space(
            cube(code.length, n), code, max_sites=max_sites, max_rows=max_rows
        )
        out.append(Fraction(log2_count(space), space.site_count))
    return out
