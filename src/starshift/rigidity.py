"""Construction and machine verification of the non-affine symmetry systems.

A triple system is a pair of codes (code, product_code) with the code
contained in the product code and closed under coordinatewise products
into it.  On the product of window spaces the shear map

    (x, y, z) -> (x, y, x * y + z)

is then a constraint-preserving involution commuting with all shifts,
yet fails the affine second-difference test.  This module builds the
standard family of such pairs, checks the premises exactly, and runs the
dynamical checks on sampled windows plus one exhaustive toy sweep.  A
verification builds each window space of its box once and hands it to
every stage that reads it.  The sweep calls the library's own ``shear``,
``contains`` and ``shift_restrict``; since the shear moves only z and
the solutions form a linear space, sweeping the pairs (x, y, 0) decides
every triple.  The involution sweep tiles all pairs into one
configuration on a larger box and makes one double-shear call, which
decides every pair at once because ``star`` and ``+`` act site by site.
Both equivariance checks shift each configuration once: the sampled
check shifts the image's x and y only when the map replaced them, and
the toy sweep shifts only the configurations its lookups read.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

from . import codes as codes_mod
from . import laurent as laurent_mod
from . import windows as windows_mod
from .codes import BinaryCode
from .errors import GuardExceededError, UnsupportedDimensionError
from .gf2 import int_tuple
from .windows import Box, WindowConfig, WindowSpace, cube

__all__ = [
    "MAX_SAMPLED_SITES",
    "TripleSystem",
    "TripleConfig",
    "CheckResult",
    "VerificationReport",
    "construct_system",
    "describe_system",
    "shear",
    "shift_triple",
    "second_difference",
    "verify_premises",
    "verify_dynamics",
    "non_affine_witness",
    "exhaustive_toy_report",
    "run_full_verification",
]


@dataclass(frozen=True)
class TripleSystem:
    """A code pair driving the triple product of window spaces; ``d`` is their length."""

    code: BinaryCode
    product_code: BinaryCode
    d: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.code.length != self.product_code.length:
            raise ValueError("code and product code lengths disagree")
        object.__setattr__(self, "d", self.code.length)


@dataclass(frozen=True)
class TripleConfig:
    """Three configurations on one shared box."""

    x: WindowConfig
    y: WindowConfig
    z: WindowConfig

    def __post_init__(self):
        # identity first: the components of a triple almost always share one Box
        box, y, z = self.x.box, self.y.box, self.z.box
        if (y is not box and y != box) or (z is not box and z != box):
            raise ValueError("components live on different boxes")

    @property
    def box(self) -> Box:
        return self.x.box

    def __add__(self, other: TripleConfig) -> TripleConfig:
        return TripleConfig(self.x + other.x, self.y + other.y, self.z + other.z)


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: object
    millis: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "millis": round(self.millis, 3),
        }


@dataclass
class VerificationReport:
    system: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }


def _timed_check(name: str, fn: Callable[[], tuple[bool, object]]) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, witness = fn()
    except ValueError as exc:
        passed, witness = False, {"error": str(exc)}
    millis = (time.perf_counter() - start) * 1000.0
    return CheckResult(name, passed, witness, millis)


def _code_dict(c: BinaryCode) -> dict:
    return {
        "length": c.length,
        "dim": c.dim,
        "generators": [str(v) for v in c.basis.row_vectors()],
    }


def describe_system(system: TripleSystem) -> dict:
    return {
        "d": system.d,
        "code": _code_dict(system.code),
        "product_code": _code_dict(system.product_code),
    }


def construct_system(d: int) -> TripleSystem:
    """The standard code pair in dimension ``d``.

    Dimension 8 pairs the self-dual doubly even [8, 4] code with the
    even-weight code; higher dimensions pad both with a full block on
    the extra coordinates.  The pair is checked against the structural
    premises, the table ``verify_premises`` reports from.

    Raises:
        ValueError: when ``d`` is not an integer.
        UnsupportedDimensionError: for d < 8, where no such pair is
            provided by this construction.
        RuntimeError: when the constructed pair fails a premise; the
            message names every failed premise.
    """
    (d,) = int_tuple((d,), "d")
    if d < 8:
        raise UnsupportedDimensionError(
            f"the code-pair construction is defined only for dimension 8 and above, got {d}"
        )
    base = codes_mod.hamming8_code()
    even8 = codes_mod.even_weight_code(8)
    if d == 8:
        code, product_code = base, even8
    else:
        tail = codes_mod.full_code(d - 8)
        code = codes_mod.direct_sum(base, tail)
        product_code = codes_mod.direct_sum(even8, tail)
    system = TripleSystem(code, product_code)
    problems = _invariant_failures(system)
    if problems:
        raise RuntimeError("constructed system violates its invariants: " + "; ".join(problems))
    return system


def shear(t: TripleConfig) -> TripleConfig:
    """The map (x, y, z) -> (x, y, x * y + z), sitewise."""
    return TripleConfig(t.x, t.y, windows_mod.star(t.x, t.y) + t.z)


def shift_triple(t: TripleConfig, m: Sequence[int]) -> TripleConfig:
    """Componentwise shift to the common overlap domain."""
    return TripleConfig(
        windows_mod.shift_restrict(t.x, m),
        windows_mod.shift_restrict(t.y, m),
        windows_mod.shift_restrict(t.z, m),
    )


def second_difference(x: WindowConfig) -> TripleConfig:
    """Affineness defect of the shear map along ``x``.

    Componentwise sum of the shear over the four corner triples
    (x,x,0), (x,0,0), (0,x,0), (0,0,0); an affine map would sum to zero,
    the shear leaves (0, 0, x * x).
    """
    zero = WindowConfig.zero(x.box)
    return (
        shear(TripleConfig(x, x, zero))
        + shear(TripleConfig(x, zero, zero))
        + shear(TripleConfig(zero, x, zero))
        + shear(TripleConfig(zero, zero, zero))
    )


_MIXING_BOUND = 10**6  # mixing samples draw n from [-_MIXING_BOUND, _MIXING_BOUND]^d
_MIXING_SAMPLES = 50  # vectors n drawn by each mixing check


def _random_nonzero_int_vector(rng: random.Random, d: int) -> tuple[int, ...]:
    while True:
        n = tuple(rng.randint(-_MIXING_BOUND, _MIXING_BOUND) for _ in range(d))
        if any(n):
            return n


def _proper(c: BinaryCode) -> tuple[bool, object]:
    return c.dim < c.length, {
        "dim": c.dim,
        "length": c.length,
        "entropy": laurent_mod.entropy_verdict(c),
    }


def _nondegenerate(c: BinaryCode) -> tuple[bool, object]:
    cert = codes_mod.is_integrally_nondegenerate(c)
    return cert.verdict, None if cert.verdict else {"kernel_witness": list(cert.kernel_witness)}


def _premises(system: TripleSystem) -> list[tuple[str, Callable[[], tuple[bool, object]]]]:
    """The structural premises of ``system`` as (report name, check) pairs."""
    code, product_code = system.code, system.product_code
    return [
        ("code_proper", lambda: _proper(code)),
        ("product_code_proper", lambda: _proper(product_code)),
        ("code_contains_all_ones", lambda: (codes_mod.contains_all_ones(code), None)),
        (
            "product_code_contains_all_ones",
            lambda: (codes_mod.contains_all_ones(product_code), None),
        ),
        ("star_closure", lambda: (codes_mod.star_closure_check(code, product_code), None)),
        ("code_inside_product_code", lambda: (codes_mod.is_subcode(code, product_code), None)),
        ("code_nondegenerate", lambda: _nondegenerate(code)),
        ("product_code_nondegenerate", lambda: _nondegenerate(product_code)),
    ]


def _invariant_failures(system: TripleSystem) -> list[str]:
    return [name for name, check in _premises(system) if not check()[0]]


def verify_premises(system: TripleSystem, *, seed: int = 0) -> VerificationReport:
    """Check every premise of the system; failures become entries.

    The structural premises are the ones ``construct_system`` checks,
    from the same table.  The two mixing checks follow them; each draws
    50 seeded nonzero vectors n and asks for a codeword separating each.
    """
    report = VerificationReport(describe_system(system))
    code, product_code, d = system.code, system.product_code, system.d

    def mixing(c: BinaryCode, tag: int) -> Callable[[], tuple[bool, object]]:
        def run():
            rng = random.Random(f"{seed}:{tag}")
            example = None
            for _ in range(_MIXING_SAMPLES):
                n = _random_nonzero_int_vector(rng, d)
                w = laurent_mod.mixing_certificate(c, n)
                b = codes_mod.support_sum(n, w)
                if b == 0:
                    return False, {"n": list(n), "codeword": str(w)}
                if example is None:
                    example = {"n": list(n), "codeword": str(w), "support_sum": b}
            return True, {"samples": _MIXING_SAMPLES, "example": example}

        return run

    checks = _premises(system) + [
        ("code_mixing_witnesses", mixing(code, 1)),
        ("product_code_mixing_witnesses", mixing(product_code, 2)),
    ]
    report.checks.extend(_timed_check(name, check) for name, check in checks)
    return report


_EQUIVARIANCE_TRIPLES = 25

# The sampled triples are all held at once: samples x sites may not pass
# this.  At the bound (65,536 triples at d = 8 box 2, 2,557 at d = 8
# box 3) a process running the checks peaks at 59 and 27 MB.
MAX_SAMPLED_SITES = 1 << 24


def _shifts(d: int) -> list[tuple[int, ...]]:
    """Both equivariance checks' shifts: the d unit shifts, then (1, ..., 1).

    The diagonal fits every box of side >= 2 and narrows every axis at once.
    """
    return [tuple(int(a == j) for a in range(d)) for j in range(d)] + [(1,) * d]


def verify_dynamics(
    space_xy: WindowSpace,
    space_z: WindowSpace,
    *,
    seed: int = 0,
    samples: int = 100,
) -> VerificationReport:
    """Sampled dynamical checks plus the fixed exhaustive toy sweep.

    The system is the pair of the spaces' codes on their common box.
    The sampled checks draw (x, y) from ``space_xy`` and z from
    ``space_z``, then test that ``shear`` is an involution, preserves
    the window constraints, and commutes with shifts on overlap domains.
    Round k of one :func:`windows.sample_rounds` call, seeded with
    ``seed``, draws triple k, so each space combines its masks in one
    bit-sliced batch (d = 8 box 3: 11.8 ms for the 300 draws, against
    52.1 ms drawn one by one), which no check's ``millis`` includes.
    Equivariance tests 25 triples against the d unit shifts and (1, ..., 1).
    A shift whose overlap with the box is empty is skipped and counted;
    an error raised by the map fails the check, its message the witness.
    Each tested (triple, shift) gathers the triple's x, y and z and the
    image's z through ``shift_restrict``.  The image's x or y is gathered
    too only when it is not the triple's own object; the library
    ``shear`` returns them unchanged, so their shifts are already made.

    Raises:
        ValueError: when the spaces lie on different boxes, or ``samples``
            is not an integer or is < 1, before any draw.
        GuardExceededError: when ``samples`` times the box's site count
            exceeds ``MAX_SAMPLED_SITES``, before any draw.
    """
    if space_xy.box != space_z.box:
        raise ValueError(f"the spaces lie on different boxes: {space_xy.box} and {space_z.box}")
    (samples,) = int_tuple((samples,), "samples")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if samples * space_xy.site_count > MAX_SAMPLED_SITES:
        raise GuardExceededError(
            f"{samples} samples of {space_xy.site_count} sites pass the guard of {MAX_SAMPLED_SITES}"
        )
    system = TripleSystem(space_xy.code, space_z.code)
    draws = windows_mod.sample_rounds((space_xy, space_xy, space_z), random.Random(seed), samples)
    triples = [TripleConfig(*t) for t in draws]
    shifts = _shifts(system.d)
    report = VerificationReport(describe_system(system))

    def involution() -> tuple[bool, object]:
        for k, t in enumerate(triples):
            if shear(shear(t)) != t:
                return False, {"triple_index": k}
        return True, {"triples": len(triples)}

    def preservation() -> tuple[bool, object]:
        for k, t in enumerate(triples):
            u = shear(t)
            ok = (
                windows_mod.contains(space_xy, u.x)
                and windows_mod.contains(space_xy, u.y)
                and windows_mod.contains(space_z, u.z)
            )
            if not ok:
                return False, {"triple_index": k, "z_image": u.z.to_bit_string()}
        return True, {"triples": len(triples)}

    def equivariance() -> tuple[bool, object]:
        tested = 0
        skipped = 0
        subset = triples[:_EQUIVARIANCE_TRIPLES]
        for k, t in enumerate(subset):
            image = shear(t)
            for m in shifts:
                try:
                    shifted = shift_triple(t, m)
                except ValueError:
                    skipped += 1
                    continue
                u = shear(shifted)
                # x and y are shifted again only when the map replaced t's own
                if (u.x, u.y, u.z) != (
                    shifted.x if image.x is t.x else windows_mod.shift_restrict(image.x, m),
                    shifted.y if image.y is t.y else windows_mod.shift_restrict(image.y, m),
                    windows_mod.shift_restrict(image.z, m),
                ):
                    return False, {"triple_index": k, "shift": list(m)}
                tested += 1
        return tested > 0, {
            "triples": len(subset),
            "shifts": len(shifts),
            "tested": tested,
            "skipped_empty_overlap": skipped,
        }

    report.checks.append(_timed_check("involution_on_samples", involution))
    report.checks.append(_timed_check("constraint_preservation_on_samples", preservation))
    report.checks.append(_timed_check("equivariance_on_samples", equivariance))
    report.checks.extend(exhaustive_toy_report().checks)
    return report


@functools.lru_cache(maxsize=1)
def exhaustive_toy_report() -> VerificationReport:
    """Exhaustive shear-map verification on the length-3 repetition toy.

    The toy is the 2x2x2 box with the repetition code as its own product
    code; its 64 window solutions form a linear space.  The shear moves
    only z, to x * y + z, and ``shift_restrict`` is linear, so z drops
    out of every check: the double shear returns x * y + (x * y + z) = z,
    x * y + z is a solution exactly when x * y is, and on the z component
    the sides of equivariance differ by shift(x) * shift(y) against
    shift(x * y).  Each check thus sweeps the 64^2 pairs (x, y, 0), and
    its verdict covers the 64^3 triples its witness counts.  The shifts
    are the sampled check's at d = 3: the unit shifts and (1, 1, 1).

    The sweep is tiled: a toy configuration is one byte, since the box
    has 8 sites, so pair k goes to block k of the box
    [0, 4096) x [0, 2)^3, whose site order puts that block at bits
    8k .. 8k + 7 in the toy's own site order.  ``star`` and ``+`` act
    site by site, so one double shear of the tiled triple equals the
    tiled triple exactly when every pair's does, and one call decides
    all 4,096.  Closure still reads ``contains`` once per configuration
    of the toy box, as a byte table, and equivariance ``shift_restrict``
    once per shift for each configuration its lookups read: the bytes of
    xs, ys and xys, which are the 64 solutions, since x * y of two
    solutions is one.  A table entry that no lookup reads stays 0 and
    cannot change the verdict.  Only the lookup of x * y and of the
    shifted x, y and x * y runs over the tiled bytes.
    ``shift_restrict`` is not tiled itself: a fault at one site of its
    output, such as a flipped bit 0, would then touch only block 0, the
    pair (0, 0), where it cancels.
    """
    code = codes_mod.repetition_code(3)
    system = TripleSystem(code, code)
    box = cube(3, 2)
    space = windows_mod.build_window_space(box, code)
    sols = [0]
    for row in space.solution_basis.rows:
        sols.extend([s ^ row for s in sols])
    sols.sort()
    # pair k = (sols[k // 64], sols[k % 64]) is byte k of xs and ys
    xs = bytes(x for x in sols for _ in sols)
    ys = bytes(sols) * len(sols)
    x_bits, y_bits = int.from_bytes(xs, "little"), int.from_bytes(ys, "little")
    xys = (x_bits & y_bits).to_bytes(len(xs), "little")
    # the bytes that the lookups of xs, ys and xys read: the 64 solutions
    read = set(xys).union(sols)
    every = [WindowConfig(box, b) for b in range(1 << space.site_count)]
    shifts = _shifts(3)
    witness = {"solutions": len(sols), "triples": len(sols) ** 3, "shifts": len(shifts)}
    zero = WindowConfig.zero(box)

    def involution() -> tuple[bool, object]:
        tiled = Box((0,) * 4, (len(xs),) + box.shape)
        t = TripleConfig(
            WindowConfig(tiled, x_bits),
            WindowConfig(tiled, y_bits),
            WindowConfig.zero(tiled),
        )
        return shear(shear(t)) == t, witness

    def closure() -> tuple[bool, object]:
        valid = bytes(windows_mod.contains(space, c) for c in every)
        return 0 not in xys.translate(valid), witness

    def equivariance() -> tuple[bool, object]:
        for m in shifts:
            t = bytearray(len(every))
            for b in read:
                t[b] = windows_mod.shift_restrict(every[b], m).bits
            sx, sy, sxy = (int.from_bytes(b.translate(t), "little") for b in (xs, ys, xys))
            if sx & sy != sxy:
                return False, witness
        return True, witness

    def toy_witness() -> tuple[bool, object]:
        x = every[sols[1]]
        sq = windows_mod.star(x, x)
        ok = not x.is_zero and second_difference(x) == TripleConfig(zero, zero, sq)
        return ok, {"x": x.to_bit_string(), "star_square_equals_x": sq == x}

    report = VerificationReport(describe_system(system))
    report.checks.append(_timed_check("toy_exhaustive_involution", involution))
    report.checks.append(_timed_check("toy_exhaustive_closure", closure))
    report.checks.append(_timed_check("toy_exhaustive_equivariance", equivariance))
    report.checks.append(_timed_check("toy_nonaffine_witness", toy_witness))
    return report


def non_affine_witness(space: WindowSpace) -> dict:
    """The constant all-ones point, certifying the shear map is not affine.

    All-ones lies in the code by the premise ``code_contains_all_ones``,
    so every stencil pattern of the all-ones configuration on Z^d is a
    codeword and that configuration is a point of X_C.  x is its
    restriction to the box of ``space``, the code's window space, and
    the record says whether x lies in ``space``.  An affine map's second
    difference vanishes; the shear's is (0, 0, x * x) = (0, 0, x), since
    x * x = x sitewise, and x is nonzero on a box with a site.
    """
    box = space.box
    x = WindowConfig(box, (1 << space.site_count) - 1)
    diff = second_difference(x)
    return {
        "x": x.to_bit_string(),
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
        "second_difference_x_zero": diff.x.is_zero,
        "second_difference_y_zero": diff.y.is_zero,
        "second_difference_z": diff.z.to_bit_string(),
        "z_equals_star_square": diff.z == windows_mod.star(x, x),
        "nonzero": not diff.z.is_zero,
        "constant": True,
        "in_window_space": windows_mod.contains(space, x),
        "premise": "code_contains_all_ones",
    }


def run_full_verification(
    d: int,
    *,
    box_size: int = 2,
    samples: int = 100,
    seed: int = 0,
    max_sites: int = windows_mod.MAX_SITES,
) -> VerificationReport:
    """Construct the dimension-``d`` system and run every verification stage.

    The window spaces of the code and the product code on [0, box_size)^d
    are built once, before any check, and every stage reads them; the
    entropy stage builds only the smaller boxes of its profile.

    Raises:
        ValueError: when ``d`` or ``samples`` is not an integer, or when
            ``box_size`` < 2 or is not an integer, before the code pair
            is built, or from ``verify_dynamics`` when ``samples`` < 1.
        GuardExceededError: when the box exceeds ``max_sites``, before
            the code pair is built; when a window space of the box exceeds
            the constraint-row guard; or from ``verify_dynamics`` when the
            sampled sites exceed theirs.
    """
    (d,) = int_tuple((d,), "d")
    (samples,) = int_tuple((samples,), "samples")
    (box_size,) = int_tuple((box_size,), "box bounds")
    if box_size < 2:
        raise ValueError(f"need box size >= 2, got {box_size}")
    # the widths are never collected, so -d 10**9 costs a few multiplications
    windows_mod.guarded_site_count(itertools.repeat(box_size, d), max_sites)
    box = cube(d, box_size)
    system = construct_system(d)
    space_xy = windows_mod.build_window_space(box, system.code, max_sites=max_sites)
    space_z = windows_mod.build_window_space(box, system.product_code, max_sites=max_sites)
    report = VerificationReport(describe_system(system))

    stages = [
        ("premises:", verify_premises(system, seed=seed)),
        ("dynamics:", verify_dynamics(space_xy, space_z, seed=seed, samples=samples)),
    ]
    for prefix, stage in stages:
        report.checks.extend(replace(c, name=prefix + c.name) for c in stage.checks)

    def witness_check() -> tuple[bool, object]:
        record = non_affine_witness(space_xy)
        verdicts = ("in_window_space", "second_difference_x_zero", "second_difference_y_zero",
                    "z_equals_star_square", "nonzero")
        return all(record[k] for k in verdicts), record

    report.checks.append(_timed_check("non_affine_witness", witness_check))

    smaller = list(range(2, box_size))

    def entropy_check(space: WindowSpace) -> Callable[[], tuple[bool, object]]:
        def run():
            profile = windows_mod.entropy_profile(space.code, smaller, max_sites=max_sites)
            profile.append(Fraction(space.free_dim, space.site_count))
            ok = all(v < 1 for v in profile) and all(
                profile[i] > profile[i + 1] for i in range(len(profile) - 1)
            )
            return ok, {
                "sizes": smaller + [box_size],
                "ratios": [str(v) for v in profile],
                "verdict": laurent_mod.entropy_verdict(space.code),
            }

        return run

    report.checks.append(_timed_check("entropy:code_profile", entropy_check(space_xy)))
    report.checks.append(_timed_check("entropy:product_code_profile", entropy_check(space_z)))
    return report
