import collections
import dataclasses
import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    equivariance_per_triple,
    extension_constraints,
    sites,
    toy_closure_full_table,
    toy_equivariance_full_table,
    toy_involution_per_pair,
    value,
)

from starshift import codes, rigidity, windows
from starshift.errors import GuardExceededError, UnsupportedDimensionError
from starshift.gf2 import F2Vector
from starshift.rigidity import (
    TripleConfig,
    TripleSystem,
    construct_system,
    second_difference,
    shear,
)
from starshift.windows import Box, WindowConfig, build_window_space, cube


def shift_each(t, m):
    """The triple of t's components, each shifted by m through ``shift_restrict``."""
    return TripleConfig(*(windows.shift_restrict(c, m) for c in (t.x, t.y, t.z)))


def random_triple(rng, box):
    n = box.site_count
    return TripleConfig(
        WindowConfig(box, rng.getrandbits(n)),
        WindowConfig(box, rng.getrandbits(n)),
        WindowConfig(box, rng.getrandbits(n)),
    )


class TestConstruction:
    def test_dimension_eight_is_the_reference_pair(self):
        system = construct_system(8)
        assert system.code == codes.hamming8_code()
        assert system.product_code == codes.even_weight_code(8)

    def test_low_dimensions_rejected(self):
        for d in (0, 1, 7):
            with pytest.raises(UnsupportedDimensionError):
                construct_system(d)

    def test_higher_dimensions_pad_with_a_full_block(self):
        system = construct_system(10)
        assert system.code.dim == 6
        assert system.product_code.dim == 9
        assert system.code.length == 10
        # the padded block is free in both codes
        for j in (8, 9):
            assert codes.contains_vector(system.code, F2Vector(10, 1 << j))

    def test_premises_pass_for_a_dimension_sweep(self):
        for d in range(8, 13):
            report = rigidity.verify_premises(construct_system(d), seed=1)
            assert report.passed, [c.name for c in report.checks if not c.passed]

    def test_pair_guard_refuses_before_any_code_is_built(self, monkeypatch):
        # d = 1,025 has 2,096,125 generator bits and d = 1,026 has 2,100,222
        assert rigidity.MAX_PAIR_BITS == 1 << 21
        system = construct_system(1025)
        bits = system.code.dim * 1025 + system.product_code.dim * 1025
        assert bits == 2_096_125 <= rigidity.MAX_PAIR_BITS

        def no_code(*args):
            raise AssertionError("built a code")

        monkeypatch.setattr(rigidity.codes_mod, "hamming8_code", no_code)
        monkeypatch.setattr(rigidity.codes_mod, "full_code", no_code)
        for d in (1026, 10**9):
            with pytest.raises(GuardExceededError) as exc:
                construct_system(d)
            assert str(exc.value) == (
                f"code pair of dimension {d} has {d * (2 * d - 5)} generator bits, "
                f"guard is {1 << 21}"
            )

    def test_invariants_checked_on_construction(self):
        system = construct_system(9)
        assert codes.is_subcode(system.code, system.product_code)
        assert codes.star_closure_check(system.code, system.product_code)

    def test_failed_premise_named_on_construction(self, monkeypatch):
        monkeypatch.setattr(rigidity.codes_mod, "star_closure_check", lambda c, c_prime: False)
        with pytest.raises(RuntimeError, match="star_closure"):
            construct_system(8)

    def test_triple_system_validation(self):
        with pytest.raises(ValueError, match="^code and product code lengths disagree$"):
            TripleSystem(codes.hamming8_code(), codes.even_weight_code(10))
        with pytest.raises(ValueError, match="^code and product code lengths disagree$"):
            TripleSystem(codes.full_code(3), codes.repetition_code(2))
        assert TripleSystem(codes.hamming8_code(), codes.even_weight_code(8)).d == 8
        assert TripleSystem(codes.full_code(1), codes.full_code(1)).d == 1


class TestTripleConfig:
    def test_box_agreement_required(self):
        x = WindowConfig.zero(cube(2, 2))
        y = WindowConfig.zero(cube(2, 3))
        with pytest.raises(ValueError):
            TripleConfig(x, x, y)

    def test_equal_distinct_boxes_accepted(self):
        x = WindowConfig(Box((0, 0), (2, 2)), 0b0110)
        y = WindowConfig(Box((0, 0), (2, 2)), 0b0011)
        z = WindowConfig(Box((0, 0), (2, 2)), 0b1000)
        t = TripleConfig(x, y, z)
        assert t.box == Box((0, 0), (2, 2))
        assert shear(t).z.bits == 0b1010

    def test_same_shape_at_another_offset_rejected(self):
        x = WindowConfig.zero(Box((0, 0), (2, 2)))
        moved = WindowConfig.zero(Box((1, 1), (3, 3)))
        for args in [(x, moved, x), (x, x, moved), (moved, x, x)]:
            with pytest.raises(ValueError, match="different boxes"):
                TripleConfig(*args)

    def test_value_type_contract(self):
        box = Box((-1, 0), (1, 2))
        x, y, z = (WindowConfig(box, b) for b in (0b1001, 0b0110, 0b0011))
        t = TripleConfig(x, y, z)
        twin = TripleConfig(*(WindowConfig(Box((-1, 0), (1, 2)), c.bits) for c in (x, y, z)))
        assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
        assert t != TripleConfig(x, y, x)
        assert not hasattr(t, "__dict__")
        for name in ("x", "y", "z"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, x)
        assert dataclasses.replace(t, z=x) == TripleConfig(x, y, x)
        assert TripleConfig(x=x, y=y, z=z) == t
        # replace builds through __init__, so the box check runs again
        moved = WindowConfig.zero(Box((0, 0), (2, 2)))
        for name in ("x", "y", "z"):
            with pytest.raises(ValueError, match="^components live on different boxes$"):
                dataclasses.replace(t, **{name: moved})

    def test_componentwise_addition(self):
        box = cube(2, 2)
        a = random_triple(random.Random(1), box)
        b = random_triple(random.Random(2), box)
        s = a + b
        assert s.x == a.x + b.x and s.y == a.y + b.y and s.z == a.z + b.z


class TestShear:
    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    def test_involution_on_arbitrary_inputs(self, xb, yb, zb):
        box = cube(2, 2)
        mask = (1 << box.site_count) - 1
        t = TripleConfig(
            WindowConfig(box, xb & mask),
            WindowConfig(box, yb & mask),
            WindowConfig(box, zb & mask),
        )
        assert shear(shear(t)) == t

    def test_matches_the_oracle_site_by_site(self):
        rng = random.Random(35)
        for _ in range(200):
            d = rng.randint(1, 4)
            lower = tuple(rng.randint(-3, -1) for _ in range(d))
            box = Box(lower, tuple(l + rng.randint(1, 3) for l in lower))
            t = random_triple(rng, box)
            u = shear(t)
            assert u.x is t.x and u.y is t.y
            assert u.z.box == box
            for site in sites(box):
                expected = value(t.x, site) & value(t.y, site) ^ value(t.z, site)
                assert value(u.z, site) == expected

    def test_fixed_examples(self):
        box = cube(2, 2)
        zero = WindowConfig.zero(box)
        x = WindowConfig(box, 0b1011)
        assert shear(TripleConfig(zero, zero, zero)) == TripleConfig(zero, zero, zero)
        assert shear(TripleConfig(x, x, zero)) == TripleConfig(x, x, x)

    @given(st.integers(0, 2**12 - 1))
    def test_second_difference_is_the_star_square(self, xb):
        box = cube(3, 2)
        x = WindowConfig(box, xb & ((1 << box.site_count) - 1))
        diff = second_difference(x)
        assert diff.x.is_zero and diff.y.is_zero
        assert diff.z == windows.star(x, x)
        assert diff.z == x

    def test_valid_triples_map_to_valid_triples(self):
        system = construct_system(8)
        box = cube(8, 2)
        xy = build_window_space(box, system.code)
        z = build_window_space(box, system.product_code)
        rng = random.Random(0)
        for _ in range(50):
            t = TripleConfig(
                windows.sample_with(xy, rng),
                windows.sample_with(xy, rng),
                windows.sample_with(z, rng),
            )
            u = shear(t)
            assert windows.contains(xy, u.x)
            assert windows.contains(xy, u.y)
            assert windows.contains(z, u.z)

    def test_equivariance_with_shifts(self):
        box = cube(8, 2)
        system = construct_system(8)
        xy = build_window_space(box, system.code)
        z = build_window_space(box, system.product_code)
        rng = random.Random(4)
        shifts = [tuple(1 if a == j else 0 for a in range(8)) for j in range(8)]
        for _ in range(10):
            t = TripleConfig(
                windows.sample_with(xy, rng),
                windows.sample_with(xy, rng),
                windows.sample_with(z, rng),
            )
            for m in shifts:
                assert shear(shift_each(t, m)) == shift_each(shear(t), m)


class TestVerifyPremises:
    def test_failure_reported_for_degenerate_code(self):
        e2 = codes.even_weight_code(2)
        system = TripleSystem(e2, e2)
        report = rigidity.verify_premises(system, seed=0)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["code_nondegenerate"].passed
        assert by_name["code_nondegenerate"].witness == {"kernel_witness": [1, -1]}
        assert not by_name["code_mixing_witnesses"].passed

    def test_failure_reported_for_improper_code(self):
        full = codes.full_code(2)
        system = TripleSystem(full, full)
        report = rigidity.verify_premises(system, seed=0)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["code_proper"].passed
        assert not by_name["product_code_proper"].passed

    def test_reference_system_passes_everything(self):
        report = rigidity.verify_premises(construct_system(8), seed=7)
        assert report.passed
        names = {c.name for c in report.checks}
        assert names == {
            "code_proper",
            "product_code_proper",
            "code_contains_all_ones",
            "product_code_contains_all_ones",
            "star_closure",
            "code_inside_product_code",
            "code_nondegenerate",
            "product_code_nondegenerate",
            "code_mixing_witnesses",
            "product_code_mixing_witnesses",
        }


class TestMixingDraws:
    def test_draws_equal_randint(self):
        bound = rigidity._MIXING_BOUND
        for seed in range(200):
            for d in range(1, 13):
                rng, reference = random.Random(seed), random.Random(seed)
                expected = tuple(reference.randint(-bound, bound) for _ in range(d))
                if any(expected):
                    assert rigidity._random_nonzero_int_vector(rng, d) == expected
                    assert rng.getstate() == reference.getstate()

    def test_a_draw_of_the_width_is_redrawn(self):
        bound = rigidity._MIXING_BOUND
        width = 2 * bound + 1

        class Stream:
            def __init__(self, draws):
                self.draws, self.widths = iter(draws), []

            def getrandbits(self, k):
                self.widths.append(k)
                return next(self.draws)

        stream = Stream([width, width - 1, 0])
        assert rigidity._random_nonzero_int_vector(stream, 2) == (bound, -bound)
        assert stream.widths == [width.bit_length()] * 3 == [21] * 3


def failed_checks(report):
    return {c.name for c in report.checks if not c.passed}


def affine_impostor(t: TripleConfig) -> TripleConfig:
    # (x, y, z + x) is an involution and commutes with shifts, but its
    # second difference vanishes
    return TripleConfig(t.x, t.y, t.z + t.x)


def non_involutive(t: TripleConfig) -> TripleConfig:
    # replaces y by x + y: linear and shift-commuting, but not an involution
    return TripleConfig(t.x, t.x + t.y, windows.star(t.x, t.y) + t.z)


def fresh_copies(t: TripleConfig) -> TripleConfig:
    # the shear, with new objects equal to x and y in place of t's own
    return TripleConfig(
        WindowConfig(t.x.box, t.x.bits),
        WindowConfig(t.y.box, t.y.bits),
        windows.star(t.x, t.y) + t.z,
    )


def position_dependent(t: TripleConfig) -> TripleConfig:
    # flipping z at the box's first site when x is set there keeps the
    # involution, the constraints (that site is in no stencil) and the
    # second difference, but does not commute with shifts
    z = windows.star(t.x, t.y) + t.z
    return TripleConfig(t.x, t.y, WindowConfig(z.box, z.bits ^ (t.x.bits & 1)))


def changed_on_one_site_boxes(t: TripleConfig) -> TripleConfig:
    # flipping z's only bit on a one-site box keeps the map an involution
    # and leaves every full-box check alone; at box 2 only the diagonal
    # shift (1, ..., 1) leaves a one-site overlap
    u = shear(t)
    if t.box.site_count != 1:
        return u
    return TripleConfig(u.x, u.y, WindowConfig(u.z.box, u.z.bits ^ 1))


def raising_on_shifted_triples(t: TripleConfig) -> TripleConfig:
    # an error raised by the map is a failure, not an empty overlap to
    # skip; only shifted triples of d = 8 box 2 reach the raise
    if t.box.dimension == 8 and t.box != cube(8, 2) and t.x.bits & 1:
        raise ValueError("planted error on a shifted triple")
    return shear(t)


@pytest.fixture
def mutant(monkeypatch):
    """Patch one library primitive; toy reports computed under it are dropped."""
    rigidity.exhaustive_toy_report.cache_clear()
    yield lambda module, name, replacement: monkeypatch.setattr(module, name, replacement)
    rigidity.exhaustive_toy_report.cache_clear()


@pytest.fixture
def toy_mutant(mutant):
    """Patch one library primitive, then report which toy checks fail."""

    def run(module, name, replacement):
        mutant(module, name, replacement)
        return failed_checks(rigidity.exhaustive_toy_report())

    return run


def reference_spaces(d, n):
    system = construct_system(d)
    box = cube(d, n)
    return build_window_space(box, system.code), build_window_space(box, system.product_code)


class TestVerifyDynamics:
    def test_reference_system_passes(self):
        report = rigidity.verify_dynamics(*reference_spaces(8, 2), seed=0, samples=30)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "involution_on_samples" in names
        assert "constraint_preservation_on_samples" in names
        assert "equivariance_on_samples" in names
        assert "toy_exhaustive_involution" in names

    def test_equivariance_skips_empty_overlaps_but_tests_some(self):
        report = rigidity.verify_dynamics(*reference_spaces(8, 2), seed=0, samples=10)
        eq = next(c for c in report.checks if c.name == "equivariance_on_samples")
        assert eq.passed
        assert eq.witness["tested"] > 0
        # the d unit shifts and the diagonal all fit a box of side 2
        assert eq.witness["skipped_empty_overlap"] == 0
        assert eq.witness["tested"] == 10 * 9

    def test_equivariance_skips_the_shifts_off_a_width_one_axis(self):
        # the last axis has width 1, so e_8 and the diagonal leave no
        # overlap; 25 triples x 7 unit shifts are tested, 25 x 2 skipped
        system = construct_system(8)
        box = Box((0,) * 8, (2,) * 7 + (1,))
        report = rigidity.verify_dynamics(
            build_window_space(box, system.code),
            build_window_space(box, system.product_code),
            seed=0,
            samples=30,
        )
        eq = next(c for c in report.checks if c.name == "equivariance_on_samples")
        assert eq.passed
        assert eq.witness["tested"] == 175
        assert eq.witness["skipped_empty_overlap"] == 50

    def test_spaces_on_different_boxes_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a draw began before the boxes were compared")

        monkeypatch.setattr(windows, "sample_rounds", no_draw)
        system = construct_system(8)
        small, narrow = cube(8, 2), Box((0,) * 8, (2,) * 7 + (1,))
        space_xy = build_window_space(small, system.code)
        space_z = build_window_space(narrow, system.product_code)
        with pytest.raises(ValueError, match="different boxes") as exc:
            rigidity.verify_dynamics(space_xy, space_z, seed=0, samples=3)
        assert str(small) in str(exc.value) and str(narrow) in str(exc.value)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_samples_below_one_rejected(self, samples):
        # called directly, not only through run_full_verification: over no
        # triples the involution and preservation checks would pass vacuously
        with pytest.raises(ValueError, match="samples"):
            rigidity.verify_dynamics(*reference_spaces(8, 2), seed=0, samples=samples)

    def test_sampled_site_guard_applies_before_any_draw(self, monkeypatch):
        class Drew(Exception):
            pass

        def no_draw(spaces, rng, rounds):
            raise Drew

        monkeypatch.setattr(windows, "sample_rounds", no_draw)
        spaces = reference_spaces(8, 2)
        at_bound = rigidity.MAX_SAMPLED_SITES // spaces[0].site_count
        with pytest.raises(GuardExceededError):
            rigidity.verify_dynamics(*spaces, seed=0, samples=at_bound + 1)
        # the bound itself is allowed: the call goes on to draw
        with pytest.raises(Drew):
            rigidity.verify_dynamics(*spaces, seed=0, samples=at_bound)

    def test_round_tuples_do_not_outlive_their_triples(self):
        # each round's tuple is released as its triple replaces it, so the
        # checks, all held triples included, peak below the rounds and their
        # triples held together; 6,144 rounds are well past the 2,000 free
        # 3-tuples that CPython keeps for reuse, which would hide the release
        space_xy, space_z = reference_spaces(8, 2)
        rigidity.verify_dynamics(space_xy, space_z, samples=1)  # caches the toy report
        rounds = 6144

        def peak(run):
            gc.collect()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spaces = (space_xy, space_xy, space_z)
        together = peak(
            lambda: [TripleConfig(*t) for t in windows.sample_rounds(spaces, random.Random(0), rounds)]
        )
        checked = peak(lambda: rigidity.verify_dynamics(space_xy, space_z, samples=rounds))
        assert checked < together, (checked, together)

    def test_held_triples_take_under_500_bytes_a_sample(self):
        # the growth of the checks' peak per sample at d = 8 box 2: the three
        # configurations and their triple, 612 bytes while neither class had
        # slots, 452 with them
        spaces = reference_spaces(8, 2)
        rigidity.verify_dynamics(*spaces, samples=1)  # caches the toy report

        def peak(samples):
            gc.collect()
            tracemalloc.start()
            try:
                rigidity.verify_dynamics(*spaces, samples=samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_sample = (peak(1536) - peak(512)) / 1024
        assert per_sample <= 500, per_sample

    def test_corrupted_map_caught_on_a_noncontained_pair(self, mutant):
        # the affine impostor moves z off its window space whenever the
        # code is not inside the product code; of the sampled checks the
        # harness must catch exactly the preservation failure
        mutant(rigidity, "shear", affine_impostor)
        box = cube(2, 2)
        report = rigidity.verify_dynamics(
            build_window_space(box, codes.full_code(2)),
            build_window_space(box, codes.even_weight_code(2)),
            seed=0,
            samples=50,
        )
        by_name = {c.name: c for c in report.checks}
        assert by_name["involution_on_samples"].passed
        assert by_name["equivariance_on_samples"].passed
        assert not by_name["constraint_preservation_on_samples"].passed
        assert not report.passed

    def test_replaced_y_fails_only_the_involution_checks(self, mutant):
        # y -> x + y commutes with shifts, so equivariance holds only if the
        # replaced y is shifted anew, not read from the shifted original
        mutant(rigidity, "shear", non_involutive)
        report = rigidity.verify_dynamics(*reference_spaces(8, 2), seed=0, samples=30)
        assert failed_checks(report) == {"involution_on_samples", "toy_exhaustive_involution"}

    def test_corrupted_map_invisible_when_codes_nest(self, mutant):
        # on a nested pair the affine impostor stays inside the window
        # spaces; this documents why the mutation test needs C not
        # inside C'
        mutant(rigidity, "shear", affine_impostor)
        report = rigidity.verify_dynamics(*reference_spaces(8, 2), seed=0, samples=20)
        by_name = {c.name: c for c in report.checks}
        assert by_name["constraint_preservation_on_samples"].passed


class TestExhaustiveToy:
    def test_full_sweep(self):
        report = rigidity.exhaustive_toy_report()
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        sweep = by_name["toy_exhaustive_involution"].witness
        assert sweep["solutions"] == 64
        assert sweep["triples"] == 64**3
        assert by_name["toy_exhaustive_closure"].passed
        assert by_name["toy_exhaustive_equivariance"].passed

    def test_solution_count_matches_the_window_space(self):
        space = build_window_space(cube(3, 2), codes.repetition_code(3))
        assert windows.log2_count(space) == 6

    def test_witness_is_idempotent_and_nonzero(self):
        report = rigidity.exhaustive_toy_report()
        by_name = {c.name: c for c in report.checks}
        w = by_name["toy_nonaffine_witness"]
        assert w.passed
        assert w.witness["star_square_equals_x"] is True


class TestExhaustiveToyMutants:
    def test_non_involutive_shear(self, toy_mutant):
        assert toy_mutant(rigidity, "shear", non_involutive) == {"toy_exhaustive_involution"}

    def test_affine_shear(self, toy_mutant):
        # an involution that commutes with shifts but has no second difference
        def mutant(t):
            return TripleConfig(t.x, t.y, t.x + t.z)

        assert toy_mutant(rigidity, "shear", mutant) == {"toy_nonaffine_witness"}

    def test_shift_restrict_flipping_bit_zero(self, toy_mutant):
        # the sweep shifts through shift_gather, as shift_restrict does
        failed = toy_mutant(windows, "shift_gather", _flip_bit_zero(windows.shift_gather))
        assert failed == {"toy_exhaustive_equivariance"}

    @pytest.mark.parametrize(
        "fault, verdict",
        [
            (lambda y: y, True),
            (lambda y: WindowConfig(y.box, y.bits ^ 1), False),
            (lambda y: WindowConfig(y.box, y.bits ^ (1 << (y.box.site_count - 1))), False),
            (lambda y: WindowConfig(y.box, 0), True),
        ],
        ids=["library", "bit_zero_flipped", "top_bit_flipped", "zero"],
    )
    def test_read_bytes_give_the_full_table_verdict(self, toy_mutant, fault, verdict):
        # the sweep shifts only the configurations its lookups read; the
        # faulted gather reaches shift_restrict, and so the full table, too
        failed = toy_mutant(windows, "shift_gather", _fault_every_gather(fault)(windows.shift_gather))
        swept = "toy_exhaustive_equivariance" not in failed
        assert swept == toy_equivariance_full_table(windows.shift_restrict) == verdict

    def test_contains_rejecting_all_ones(self, toy_mutant):
        original = windows.contains

        def mutant(space, x):
            return x.bits != (1 << x.box.site_count) - 1 and original(space, x)

        assert toy_mutant(windows, "contains", mutant) == {"toy_exhaustive_closure"}


def _fault_every_gather(fault):
    """A maker of ``shift_gather`` mutants whose gathers pass each result through ``fault``."""

    def make(original):
        def mutant(box, m):
            gather = original(box, m)
            return lambda x: fault(gather(x))

        return mutant

    return make


_flip_bit_zero = _fault_every_gather(lambda y: WindowConfig(y.box, y.bits ^ 1))


def _reject_all_ones(original):
    def mutant(space, x):
        return x.bits != (1 << x.box.site_count) - 1 and original(space, x)

    return mutant


def _stuck_where_only_y_is_set(t):
    # acts site by site, and fails to be an involution only where x = 0 and y = 1
    x, y, z = t.x.bits, t.y.bits, t.z.bits
    return TripleConfig(t.x, t.y, WindowConfig(t.z.box, (x & y ^ z) | (y & ~x)))


def _wrong_on_one_toy_pair(original):
    # keyed on a whole 2x2x2 configuration: a tiled sweep never shows it one
    def mutant(t):
        image = original(t)
        if t.x.bits == t.y.bits == 0xFF:
            return TripleConfig(image.x, image.y + t.x, image.z)
        return image

    return mutant


class TestTiledToyInvolution:
    """The tiled involution verdict against the per-pair sweep it replaced."""

    @pytest.mark.parametrize(
        "module, name, make",
        [
            (rigidity, "shear", lambda f: f),
            (rigidity, "shear", lambda _: non_involutive),
            (rigidity, "shear", lambda _: affine_impostor),
            (rigidity, "shear", lambda _: _stuck_where_only_y_is_set),
            (windows, "shift_gather", _flip_bit_zero),
            (windows, "contains", _reject_all_ones),
        ],
        ids=[
            "library",
            "non_involutive",
            "affine",
            "stuck_where_only_y_is_set",
            "shift_flips_bit_zero",
            "contains_all_ones",
        ],
    )
    def test_tiled_verdict_equals_the_per_pair_verdict(self, toy_mutant, module, name, make):
        failed = toy_mutant(module, name, make(getattr(module, name)))
        tiled = "toy_exhaustive_involution" not in failed
        assert tiled == toy_involution_per_pair(rigidity.shear)

    def test_a_map_keyed_on_one_toy_pair_needs_the_per_pair_sweep(self, toy_mutant):
        # the tiling premise holds only for a map that acts site by site;
        # the per-pair oracle is what catches one that does not
        failed = toy_mutant(rigidity, "shear", _wrong_on_one_toy_pair(rigidity.shear))
        assert "toy_exhaustive_involution" not in failed
        assert toy_involution_per_pair(rigidity.shear) is False


def _accept_a_byte_no_product_reads(original):
    # byte 2 sets site (0, 0, 1) alone, not a window solution, so no product x * y
    def mutant(space, x):
        return original(space, x) != (x.bits == 2)

    return mutant


class TestToyClosure:
    """The toy closure verdict against the full 256-configuration table."""

    @pytest.mark.parametrize(
        "make, verdict",
        [
            (lambda f: f, True),
            (_reject_all_ones, False),
            (_accept_a_byte_no_product_reads, True),
        ],
        ids=["library", "contains_all_ones", "accepts_a_byte_no_product_reads"],
    )
    def test_distinct_products_give_the_full_table_verdict(self, toy_mutant, make, verdict):
        # the sweep calls contains only on the distinct products x * y
        failed = toy_mutant(windows, "contains", make(windows.contains))
        swept = "toy_exhaustive_closure" not in failed
        space = build_window_space(cube(3, 2), codes.repetition_code(3))
        assert swept == toy_closure_full_table(lambda x: windows.contains(space, x)) == verdict


def _count_gathers(mutant) -> tuple[list, list]:
    """Patch ``windows.shift_gather`` to record each plan lookup and each gather.

    Both records hold (box dimension, shift) pairs, so that a caller can
    tell the toy's 3-dimensional shifts from the sampled ones.
    """
    lookups, gathers = [], []
    original = windows.shift_gather

    def counting(box, m):
        lookups.append((box.dimension, tuple(m)))
        gather = original(box, m)

        def counted(x):
            gathers.append((x.box.dimension, tuple(m)))
            return gather(x)

        return counted

    mutant(windows, "shift_gather", counting)
    return lookups, gathers


class TestSampledEquivariance:
    """The sampled check against its per-triple oracle, and the gathers it makes."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "make",
        [
            shear,
            affine_impostor,
            non_involutive,
            fresh_copies,
            position_dependent,
            changed_on_one_site_boxes,
            raising_on_shifted_triples,
            _stuck_where_only_y_is_set,
            _wrong_on_one_toy_pair(shear),
        ],
        ids=[
            "library",
            "affine",
            "non_involutive",
            "fresh_copies",
            "position_dependent",
            "changed_on_one_site_boxes",
            "raising_on_shifted_triples",
            "stuck_where_only_y_is_set",
            "wrong_on_one_toy_pair",
        ],
    )
    def test_verdict_and_witness_equal_the_oracle(self, mutant, make, seed):
        space_xy, space_z = reference_spaces(8, 2)
        draws = windows.sample_rounds((space_xy, space_xy, space_z), random.Random(seed), 25)
        expected = equivariance_per_triple(make, [TripleConfig(*t) for t in draws])
        mutant(rigidity, "shear", make)
        report = rigidity.verify_dynamics(space_xy, space_z, seed=seed, samples=25)
        eq = next(c for c in report.checks if c.name == "equivariance_on_samples")
        assert (eq.passed, eq.witness) == expected

    @pytest.mark.parametrize("d, calls", [(8, 1156), (12, 1556)])
    def test_verification_makes_the_pinned_shift_calls(self, mutant, d, calls):
        # 4 shifts x 64 toy solutions, then 25 triples x (d + 1) shifts x 4
        # sampled gathers, each shift of either check planned once
        lookups, gathers = _count_gathers(mutant)
        assert rigidity.run_full_verification(d, box_size=2, samples=100, seed=3).passed
        toy = [m for dim, m in gathers if dim == 3]
        sampled = [m for dim, m in gathers if dim == d]
        assert len(toy) == 4 * 64
        assert len(sampled) == 100 * (d + 1)
        assert [m for dim, m in lookups if dim == 3] == rigidity._shifts(3)
        assert [m for dim, m in lookups if dim == d] == rigidity._shifts(d)
        assert len(toy) + len(sampled) == calls

    @pytest.mark.parametrize("d, box_size", [(8, 2), (12, 2), (8, 3)])
    def test_a_gather_fault_fails_both_equivariance_checks(self, mutant, d, box_size):
        # both checks shift through shift_gather, so one fault there reaches both
        mutant(windows, "shift_gather", _flip_bit_zero(windows.shift_gather))
        report = rigidity.run_full_verification(d, box_size=box_size, seed=3)
        assert failed_checks(report) == {
            "dynamics:equivariance_on_samples",
            "dynamics:toy_exhaustive_equivariance",
        }

    def test_a_fresh_verification_looks_each_plan_up_once(self):
        # d + 1 sampled shifts and the toy's 4, none looked up twice
        rigidity.exhaustive_toy_report.cache_clear()
        windows._gather_plan.cache_clear()
        assert rigidity.run_full_verification(8).passed
        info = windows._gather_plan.cache_info()
        assert (info.hits + info.misses, info.hits) == (13, 0)

    @pytest.mark.parametrize(
        "make, per_pair", [(shear, 4), (fresh_copies, 6)], ids=["shear", "fresh_copies"]
    )
    def test_gathers_per_tested_pair(self, mutant, make, per_pair):
        # x and y of the image are shifted anew only when they are new objects
        mutant(rigidity, "shear", make)
        rigidity.exhaustive_toy_report()  # fill the cache, so that only the sampled check counts
        _, gathers = _count_gathers(mutant)
        report = rigidity.verify_dynamics(*reference_spaces(8, 2), seed=0, samples=30)
        eq = next(c for c in report.checks if c.name == "equivariance_on_samples")
        assert eq.passed and eq.witness["tested"] == 25 * 9
        assert len(gathers) == per_pair * 25 * 9

    def test_an_image_on_another_box_is_gathered_through_its_own_plan(self, mutant):
        # moving the whole image one step down every axis commutes with
        # shifts; through the plan of the triple's box, the image's
        # components would land on the wrong domain
        def moved_down(t):
            u = shear(t)
            box = Box(tuple(a - 1 for a in t.box.lower), tuple(a - 1 for a in t.box.upper))
            return TripleConfig(*(WindowConfig(box, c.bits) for c in (u.x, u.y, u.z)))

        space_xy, space_z = reference_spaces(8, 2)
        draws = windows.sample_rounds((space_xy, space_xy, space_z), random.Random(0), 25)
        expected = equivariance_per_triple(moved_down, [TripleConfig(*t) for t in draws])
        mutant(rigidity, "shear", moved_down)
        report = rigidity.verify_dynamics(space_xy, space_z, seed=0, samples=25)
        eq = next(c for c in report.checks if c.name == "equivariance_on_samples")
        assert (eq.passed, eq.witness) == expected
        assert eq.passed and eq.witness["tested"] == 25 * 9


def _extends(rows, x):
    return all((r & x.bits).bit_count() % 2 == 0 for r in rows)


class TestNonAffineWitness:
    def test_reference_witness(self):
        space = build_window_space(cube(8, 2), construct_system(8).code)
        record = rigidity.non_affine_witness(space)
        assert record["x"] == "1" * space.site_count
        assert record["constant"]
        assert record["in_window_space"]
        assert record["premise"] == "code_contains_all_ones"
        assert record["second_difference_x_zero"]
        assert record["second_difference_y_zero"]
        assert record["z_equals_star_square"]
        assert record["nonzero"]

    def test_code_without_all_ones_fails_the_check(self, monkeypatch):
        # the zero code of length 1 admits only the zero configuration on
        # [0, 4), so all-ones is no window solution; every other field of
        # the record still holds
        zero = codes.dual(codes.full_code(1))
        record = rigidity.non_affine_witness(build_window_space(cube(1, 4), zero))
        assert record["in_window_space"] is False
        assert record["nonzero"] and record["z_equals_star_square"]
        monkeypatch.setattr(rigidity, "construct_system", lambda d: TripleSystem(zero, zero))
        report = rigidity.run_full_verification(1, box_size=4, samples=5)
        (check,) = [c for c in report.checks if c.name == "non_affine_witness"]
        assert not check.passed
        assert check.witness == record

    def test_witness_extends_and_the_old_draw_does_not(self):
        # d8b2: the code's window space has dimension 252, but only 149 of
        # them are restrictions of box-3 solutions.  All-ones extends; the
        # seed-3 draw the witness used to be does not, so it was a pattern
        # of no point of X_C
        box = cube(8, 2)
        space = build_window_space(box, construct_system(8).code)
        rows = extension_constraints(box, space.code)
        assert (space.free_dim, box.site_count - len(rows)) == (252, 149)
        x = WindowConfig(box, int(rigidity.non_affine_witness(space)["x"][::-1], 2))
        assert _extends(rows, x)
        assert not _extends(rows, windows.sample(space, 3))

    def test_product_code_space_extends_fully(self):
        box = cube(8, 2)
        space = build_window_space(box, construct_system(8).product_code)
        assert box.site_count - len(extension_constraints(box, space.code)) == 255
        assert space.free_dim == 255


class TestFullVerification:
    def test_reference_dimension_report(self):
        report = rigidity.run_full_verification(8, box_size=2, samples=50, seed=0)
        assert report.passed
        names = [c.name for c in report.checks]
        assert any(n.startswith("premises:") for n in names)
        assert any(n.startswith("dynamics:") for n in names)
        assert "non_affine_witness" in names
        assert "entropy:code_profile" in names
        assert "entropy:product_code_profile" in names

    def test_report_serializes_to_json(self):
        report = rigidity.run_full_verification(8, box_size=2, samples=10, seed=0)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["passed"] is True
        assert data["system"]["d"] == 8
        assert data["system"]["code"]["dim"] == 4
        assert data["system"]["product_code"]["dim"] == 7
        assert all(
            set(c) == {"name", "passed", "witness", "millis"} for c in data["checks"]
        )

    def test_seeded_reports_are_identical_modulo_timing(self):
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k != "millis"}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        a = rigidity.run_full_verification(8, box_size=2, samples=15, seed=9).to_dict()
        b = rigidity.run_full_verification(8, box_size=2, samples=15, seed=9).to_dict()
        assert strip(a) == strip(b)

    def test_non_integer_box_size_rejected_before_the_code_pair(self, monkeypatch):
        def unreachable(d):
            raise AssertionError("built the code pair for a non-integer box")

        monkeypatch.setattr(rigidity, "construct_system", unreachable)
        with pytest.raises(ValueError, match="^box bounds must be integers$"):
            rigidity.run_full_verification(8, box_size=2.5)

    @pytest.mark.parametrize("box_size", [2, 3])
    def test_each_window_space_is_built_once(self, monkeypatch, box_size):
        built = collections.Counter()
        original = windows.build_window_space

        def counting(box, code, **kwargs):
            built[box, code] += 1
            return original(box, code, **kwargs)

        monkeypatch.setattr(windows, "build_window_space", counting)
        system = construct_system(8)
        assert rigidity.run_full_verification(8, box_size=box_size, samples=10).passed
        assert built[cube(8, box_size), system.code] == 1
        assert built[cube(8, box_size), system.product_code] == 1
        assert max(built.values()) == 1, built

    def test_box_3_at_d10_passes(self):
        # 59,049 sites; the draws' set-up solves the lanes off the echelon
        report = rigidity.run_full_verification(10, box_size=3, samples=25, max_sites=60_000)
        assert report.passed

    def test_affine_impostor_fails_the_non_affine_checks(self, mutant):
        mutant(rigidity, "shear", affine_impostor)
        report = rigidity.run_full_verification(8, box_size=2)
        assert failed_checks(report) == {"non_affine_witness", "dynamics:toy_nonaffine_witness"}

    def test_position_dependent_map_fails_equivariance(self, mutant):
        mutant(rigidity, "shear", position_dependent)
        report = rigidity.run_full_verification(8, box_size=2)
        assert failed_checks(report) == {"dynamics:equivariance_on_samples"}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_map_changed_on_one_site_boxes_fails_equivariance(self, mutant, seed):
        mutant(rigidity, "shear", changed_on_one_site_boxes)
        report = rigidity.run_full_verification(8, box_size=2, seed=seed)
        assert failed_checks(report) == {"dynamics:equivariance_on_samples"}

    def test_map_raising_on_shifted_triples_fails_equivariance(self, mutant):
        # no check but equivariance shears a shifted triple
        mutant(rigidity, "shear", raising_on_shifted_triples)
        report = rigidity.run_full_verification(8, box_size=2)
        assert failed_checks(report) == {"dynamics:equivariance_on_samples"}
        eq = next(c for c in report.checks if c.name == "dynamics:equivariance_on_samples")
        assert eq.witness == {"error": "planted error on a shifted triple"}

    def test_describe_system_shape(self):
        info = rigidity.describe_system(construct_system(9))
        assert info["d"] == 9
        assert len(info["code"]["generators"]) == info["code"]["dim"]
