import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    SpanSolver,
    compress_bits,
    expand_bits,
    free_column_mask,
    gathered_shift,
    random_code,
    site_index,
    sites,
    value,
    window_constraint_rows,
    window_log2_count,
    window_rule_holds,
)
from shared_codes import c8, e2
from starshift import codes, gf2, laurent, rigidity, windows
from starshift.codes import code_from_generators
from starshift.errors import GuardExceededError
from starshift.gf2 import F2Matrix
from starshift.laurent import LaurentPoly, annihilator_ideal, linear_form
from starshift.windows import (
    Box,
    WindowConfig,
    WindowSpace,
    build_window_space,
    contains,
    cube,
    log2_count,
    sample,
)


class Index:
    """An integer that is not an int: readable only through ``__index__``."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


class TestBox:
    def test_shape_and_count(self):
        b = Box((0, -1), (2, 3))
        assert b.dimension == 2
        assert b.shape == (2, 4)
        assert b.site_count == 8

    def test_sites_lexicographic(self):
        b = Box((1, -1), (3, 1))
        assert sites(b) == [(1, -1), (1, 0), (2, -1), (2, 0)]
        assert [site_index(b, s) for s in sites(b)] == [0, 1, 2, 3]
        # the library numbers sites the same way: bit k alone restricts
        # to 1 on the k-th site and to 0 on every other
        for k in range(4):
            x = WindowConfig(b, 1 << k)
            ones = [windows.restrict(x, Box(s, tuple(a + 1 for a in s))).bits for s in sites(b)]
            assert ones == [int(j == k) for j in range(4)]

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box((0, 0), (0, 2))
        with pytest.raises(ValueError):
            Box((), ())
        with pytest.raises(ValueError):
            Box((0,), (1, 1))

    def test_contains_box(self):
        b = cube(2, 3)
        assert b.contains_box(Box((1, 1), (2, 2)))
        assert not b.contains_box(Box((1, 0), (4, 3)))

    def test_contains_box_needs_equal_arity(self):
        b = cube(2, 3)
        assert not b.contains_box(Box((0,), (2,)))
        assert not Box((0,), (2,)).contains_box(b)
        for bits in (0b1, 0b101):
            with pytest.raises(ValueError, match="not contained"):
                windows.restrict(WindowConfig(b, bits), Box((0,), (2,)))

    def test_equal_distinct_boxes_are_equal_and_hash_equal(self):
        a, b = Box((0, -1), (2, 3)), Box((0, -1), (2, 3))
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)), min_size=1, max_size=3),
    )
    def test_equality_and_hash_follow_the_bounds(self, axes_a, axes_b):
        a, b = (Box(tuple(l for l, _ in ax), tuple(l + w for l, w in ax)) for ax in (axes_a, axes_b))
        assert (a == b) == ((a.lower, a.upper) == (b.lower, b.upper))
        assert hash(a) == hash(a) == hash((a.lower, a.upper))
        if a == b:
            assert hash(a) == hash(b)

    def test_either_bound_tells_boxes_apart(self):
        b = Box((0, 0), (2, 2))
        assert b != Box((0, 0), (2, 3))
        assert b != Box((1, 0), (2, 2))
        assert b != Box((1, 1), (3, 3))  # same shape at another offset

    def test_comparison_with_a_tuple_is_false(self):
        b = Box((0, 0), (2, 2))
        assert (b == ((0, 0), (2, 2))) is False
        assert b != ((0, 0), (2, 2))
        assert (((0, 0), (2, 2)) == b) is False

    @pytest.mark.parametrize(
        "lower, upper",
        [((0,), (2.5,)), ((0.0, 0), (2, 2)), ((0,), (Fraction(5, 2),)), ((0,), ("2",))],
    )
    def test_non_integer_bounds_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="^box bounds must be integers$"):
            Box(lower, upper)

    def test_cube_of_a_non_integer_side_rejected(self):
        with pytest.raises(ValueError, match="^box bounds must be integers$"):
            cube(8, 2.5)

    def test_bounds_are_normalised_to_tuples_of_ints(self):
        b = Box([Index(0), -1], [Index(2), 3])
        assert b.lower == (0, -1) and b.upper == (2, 3)
        assert all(type(v) is int for v in b.lower + b.upper)
        assert b == Box((0, -1), (2, 3)) and hash(b) == hash(Box((0, -1), (2, 3)))
        assert b.site_count == 8


def _dynamics(samples):
    space = build_window_space(cube(2, 2), e2())
    return rigidity.verify_dynamics(space, space, samples=samples)


# (entry point, its call with one integer argument v, the argument named in
# the refusal of a non-integer v, an integer v the call accepts)
INTEGER_ENTRY_POINTS = [
    ("Box", lambda v: Box((0, 0), (v, 3)), "box bounds", 3),
    ("cube_d", lambda v: cube(v, 2), "d", 3),
    ("cube_n", lambda v: cube(2, v), "box bounds", 3),
    ("shift_restrict", lambda v: windows.shift_restrict(WindowConfig(cube(2, 4), 6), (v, 0)),
     "shift entries", 1),
    ("nondegeneracy_witness", lambda v: codes.nondegeneracy_witness(c8(), (v,) + (0,) * 7),
     "entries of n", 3),
    ("mixing_certificate", lambda v: laurent.mixing_certificate(c8(), (0,) * 7 + (v,)),
     "entries of n", 3),
    ("monomial", lambda v: LaurentPoly.monomial([1, v]), "exponents", 3),
    ("from_terms", lambda v: LaurentPoly.from_terms(2, [(0, 0), (v, 1)]), "exponents", 3),
    ("shifted", lambda v: LaurentPoly.one(2).shifted((v, -1)), "exponents", 3),
    ("construct_system", rigidity.construct_system, "d", 9),
    ("run_full_verification_d", lambda v: rigidity.run_full_verification(v, samples=3), "d", 8),
    ("run_full_verification_samples", lambda v: rigidity.run_full_verification(8, samples=v),
     "samples", 3),
    ("run_full_verification_box_size",
     lambda v: rigidity.run_full_verification(8, box_size=v, samples=3), "box bounds", 2),
    ("verify_dynamics", _dynamics, "samples", 3),
    ("entropy_profile", lambda v: windows.entropy_profile(e2(), [2, v]), "box bounds", 3),
    ("variable_index", lambda v: LaurentPoly.variable(3, v), "arity and variable index", 1),
    ("variable_arity", lambda v: LaurentPoly.variable(v, 0), "arity and variable index", 3),
]
_IDS = [e[0] for e in INTEGER_ENTRY_POINTS]


class TestIntegerArguments:
    """One rule at every entry point: an integer passes, anything else is a ValueError."""

    @pytest.mark.parametrize("value", [2.5, Fraction(5, 2), "3"])
    @pytest.mark.parametrize("call, what", [e[1:3] for e in INTEGER_ENTRY_POINTS], ids=_IDS)
    def test_non_integer_refused(self, call, what, value):
        with pytest.raises(ValueError, match=f"^{what} must be integers$"):
            call(value)

    @pytest.mark.parametrize("call, good", [e[1::2] for e in INTEGER_ENTRY_POINTS], ids=_IDS)
    def test_index_accepted(self, call, good):
        def untimed(result):
            if isinstance(result, rigidity.VerificationReport):
                return result.system, [(c.name, c.passed, c.witness) for c in result.checks]
            return result

        assert untimed(call(Index(good))) == untimed(call(good))

    @pytest.mark.parametrize("kwargs", [{"d": 8.0}, {"d": 8, "samples": 10.0}])
    def test_verification_reads_its_integers_before_the_code_pair(self, monkeypatch, kwargs):
        def unreachable(d):
            raise AssertionError("built the code pair for a non-integer argument")

        monkeypatch.setattr(rigidity, "construct_system", unreachable)
        with pytest.raises(ValueError, match="must be integers$"):
            rigidity.run_full_verification(**kwargs)

    def test_construct_system_refuses_an_integral_float(self):
        # 8.0 == 8, so without the read the float would pass as the d = 8 pair
        with pytest.raises(ValueError, match="^d must be integers$"):
            rigidity.construct_system(8.0)

    def test_variable_refuses_an_integral_float(self):
        # 0.0 == 0, so without the read the index would select u1
        with pytest.raises(ValueError, match="^arity and variable index must be integers$"):
            LaurentPoly.variable(2, 0.0)

    def test_entropy_profile_reads_every_size_before_building(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a window space before reading every size")

        monkeypatch.setattr(windows, "build_window_space", unreachable)
        with pytest.raises(ValueError, match="^box bounds must be integers$"):
            windows.entropy_profile(e2(), [2, "3"])


BITS_ERROR = "^bits must be an int with no bit outside the box$"


class TestWindowConfig:
    def test_values_and_bits(self):
        b = cube(2, 2)
        x = WindowConfig(b, 0b1101)
        assert value(x, (0, 0)) == 1
        assert value(x, (0, 1)) == 0
        assert x.to_bit_string() == "1011"

    def test_validation(self):
        b = cube(1, 2)
        with pytest.raises(ValueError):
            WindowConfig(b, 4)
        with pytest.raises(ValueError):
            WindowConfig.from_json_dict({"box": {"lower": [0], "upper": [2]}, "values": "02"})
        with pytest.raises(ValueError):
            WindowConfig.zero(b) + WindowConfig.zero(cube(1, 3))

    @pytest.mark.parametrize("values", [[1, 0, 0, 0], [1, 0, 0], [1], []])
    def test_value_count_must_be_the_site_count(self, values):
        data = {"box": {"lower": [0], "upper": [2]}, "values": "".join(map(str, values))}
        with pytest.raises(ValueError, match="disagrees with the box"):
            WindowConfig.from_json_dict(data)

    def test_bits_bound_is_the_site_count(self):
        for box in (cube(1, 1), cube(1, 2), cube(2, 2), cube(3, 3)):
            n = box.site_count
            assert WindowConfig(box, (1 << n) - 1).bits == (1 << n) - 1
            assert WindowConfig(box, 1 << (n - 1)).bits == 1 << (n - 1)
            for bad in (1 << n, (1 << (n + 5)) | 1, -1):
                with pytest.raises(ValueError, match=BITS_ERROR):
                    WindowConfig(box, bad)

    @pytest.mark.parametrize("bits", [1.5, 1.0, 0.0, Fraction(1), "1", None])
    def test_non_integer_bits_rejected(self, bits):
        with pytest.raises(ValueError, match=BITS_ERROR):
            WindowConfig(cube(2, 2), bits)

    def test_addition_needs_equal_boxes_not_the_same_object(self):
        x = WindowConfig(Box((0, 0), (2, 2)), 0b0110)
        y = WindowConfig(Box((0, 0), (2, 2)), 0b0011)
        assert (x + y).bits == 0b0101
        with pytest.raises(ValueError, match="box mismatch"):
            x + WindowConfig(Box((1, 1), (3, 3)), 0b0011)

    def test_json_round_trip(self):
        b = Box((-1, 0), (1, 2))
        x = WindowConfig(b, 0b1001)
        data = json.loads(json.dumps(x.to_json_dict()))
        assert WindowConfig.from_json_dict(data) == x

    def test_json_length_mismatch(self):
        with pytest.raises(ValueError):
            WindowConfig.from_json_dict(
                {"box": {"lower": [0], "upper": [2]}, "values": "101"}
            )

    def test_planar_bit_string_round_trip(self):
        box = cube(2, 150)
        x = WindowConfig(box, random.Random(23).getrandbits(box.site_count))
        s = x.to_bit_string()
        assert s == "".join(str((x.bits >> k) & 1) for k in range(box.site_count))
        assert WindowConfig.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x
        assert WindowConfig(box, int(s[::-1], 2)) == x

    def test_value_type_contract(self):
        # the hand-written __init__ keeps every dataclass behaviour but __post_init__
        x = WindowConfig(Box((-1, 0), (1, 2)), 0b1001)
        twin = WindowConfig(Box((-1, 0), (1, 2)), 0b1001)
        assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        assert repr(x) == "WindowConfig(box=Box(lower=(-1, 0), upper=(1, 2)), bits=9)"
        assert x != WindowConfig(x.box, 0b1000)
        assert not hasattr(x, "__dict__")
        for name, v in [("bits", 0), ("box", cube(2, 2))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, v)
        assert dataclasses.replace(x, bits=0b0110) == WindowConfig(x.box, 0b0110)
        assert WindowConfig(box=x.box, bits=0b1001) == x
        # replace builds through __init__, so the checks run again
        for bad in (1 << 4, -1, 1.0):
            with pytest.raises(ValueError, match=BITS_ERROR):
                dataclasses.replace(x, bits=bad)
        with pytest.raises(ValueError, match=BITS_ERROR):
            dataclasses.replace(x, box=cube(1, 2))

    @pytest.mark.parametrize("values", ["01 1", " 101", "0121", "1_01", "+101", "01o1", "010\n"])
    def test_bad_characters_rejected(self, values):
        data = {"box": {"lower": [0], "upper": [4]}, "values": values}
        with pytest.raises(ValueError):
            WindowConfig.from_json_dict(data)
        with pytest.raises(ValueError):
            WindowConfig.from_json_dict({**data, "values": list(values)})


class TestCountingOracle:
    """log2_count against exhaustive enumeration."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["even", "repetition", "full"])
    def test_dimension_two_codes(self, kind, shape):
        code = {"even": codes.even_weight_code, "repetition": codes.repetition_code,
                "full": codes.full_code}[kind](2)
        box = Box((0, 0), shape)
        space = build_window_space(box, code)
        assert log2_count(space) == window_log2_count(box, code)

    def test_frozen_values(self):
        assert log2_count(build_window_space(cube(2, 2), e2())) == 3
        assert log2_count(build_window_space(cube(2, 3), e2())) == 5

    def test_offset_boxes(self):
        box = Box((-1, 2), (1, 5))
        space = build_window_space(box, e2())
        assert log2_count(space) == window_log2_count(box, e2())

    def test_one_dimensional_codes(self):
        full = codes.full_code(1)
        zero = codes.dual(full)
        for n in (1, 2, 3, 4):
            box = Box((0,), (n,))
            for code in (full, zero):
                space = build_window_space(box, code)
                assert log2_count(space) == window_log2_count(box, code)
        # the zero code pins every site through its own anchor
        assert log2_count(build_window_space(Box((0,), (4,)), zero)) == 0

    def test_no_anchor_box_is_unconstrained(self):
        box = Box((0, 0), (1, 1))
        space = build_window_space(box, e2())
        assert space.constraint_matrix.num_rows == 0
        assert log2_count(space) == 1
        assert log2_count(space) == window_log2_count(box, e2())

    def test_reference_code_single_anchor(self):
        space = build_window_space(cube(8, 2), c8())
        assert space.constraint_matrix.num_rows == 4
        assert space.rank == 4
        assert log2_count(space) == 252

    def test_random_small_cases(self):
        rng = random.Random(13)
        for _ in range(25):
            d = rng.randint(1, 2)
            if d == 1:
                code = codes.full_code(1)
                box = Box((rng.randint(-2, 2),), (rng.randint(3, 5),))
            else:
                code = code_from_generators(
                    [f"{rng.getrandbits(2) | 1:02b}" for _ in range(rng.randint(1, 2))]
                )
                lo = (rng.randint(-1, 1), rng.randint(-1, 1))
                box = Box(lo, (lo[0] + rng.randint(1, 3), lo[1] + rng.randint(1, 3)))
            space = build_window_space(box, code)
            assert log2_count(space) == window_log2_count(box, code)


class TestWindowSpace:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_window_space(cube(3, 2), e2())

    def test_site_guard(self):
        with pytest.raises(GuardExceededError):
            build_window_space(cube(2, 200), e2())
        # overridable
        space = build_window_space(cube(2, 150), e2(), max_sites=25_000)
        assert space.site_count == 22_500

    def test_site_guard_admits_exactly_max_sites(self):
        assert windows.guarded_site_count((100, 200), 20_000) == 20_000
        with pytest.raises(GuardExceededError, match="^box has 20001 sites, guard is 20000$"):
            windows.guarded_site_count((1, 20_001), 20_000)

    def test_site_guard_stops_at_the_axis_that_passes_it(self):
        def widths():
            # 2^15 passes 20,000; one more axis may be read to tell
            # whether the count is whole
            for k in itertools.count():
                assert k <= 15, "read widths past the guard"
                yield 2

        with pytest.raises(GuardExceededError, match="^box has at least 32768 sites, guard is 20000$"):
            windows.guarded_site_count(widths(), 20_000)

    @pytest.mark.parametrize(
        "widths, count",
        [((2**5000,), "at least 2^5000"), ((10**4000, 3), "at least 2^13287")],
        ids=["whole", "partial"],
    )
    def test_site_guard_names_a_giant_count_as_a_power_of_two(self, widths, count):
        # str() of either product passes Python's 4,300-digit limit
        with pytest.raises(GuardExceededError) as info:
            windows.guarded_site_count(widths, 20_000)
        assert str(info.value) == f"box has {count} sites, guard is 20000"

    def test_row_guard(self):
        with pytest.raises(GuardExceededError):
            # 459^2 = 210,681 rows against the fixed 200,000-row guard
            build_window_space(cube(2, 460), codes.repetition_code(2), max_sites=250_000)

    def test_contains_matches_constraints(self):
        space = build_window_space(cube(2, 3), e2())
        count = sum(
            1
            for bits in range(1 << 9)
            if contains(space, WindowConfig(space.box, bits))
        )
        assert count == 1 << log2_count(space)

    def test_contains_box_mismatch(self):
        space = build_window_space(cube(2, 2), e2())
        with pytest.raises(ValueError):
            contains(space, WindowConfig.zero(cube(2, 3)))

    def test_contains_compares_boxes_by_value(self):
        space = build_window_space(cube(2, 2), e2())
        assert contains(space, WindowConfig(Box((0, 0), (2, 2)), 0b1001))
        assert not contains(space, WindowConfig(Box((0, 0), (2, 2)), 0b0010))
        with pytest.raises(ValueError, match="box mismatch"):
            contains(space, WindowConfig.zero(Box((1, 1), (3, 3))))

    def test_solution_basis_spans_solutions(self):
        space = build_window_space(cube(2, 3), e2())
        basis = space.solution_basis
        assert basis.num_rows == log2_count(space)
        for r in basis.rows:
            assert contains(space, WindowConfig(space.box, r))


class TestStreamedRows:
    """A space keeps its plan and echelon; the rows stream into the elimination."""

    def test_a_space_holds_box_code_plan_and_echelon(self):
        assert [f.name for f in dataclasses.fields(WindowSpace)] == ["box", "code", "plan", "echelon"]
        space = build_window_space(cube(2, 4), e2())
        assert "constraint_matrix" not in vars(space)
        # rebuilt from the plan on each access, for callers that read it
        assert space.constraint_matrix == space.constraint_matrix
        assert space.constraint_matrix is not space.constraint_matrix

    def test_plan_rows_are_a_one_pass_iterator(self):
        plan = build_window_space(cube(2, 4), e2()).plan
        rows = plan.rows()
        assert iter(rows) is rows
        assert [r << c for c, r in rows] == window_constraint_rows(cube(2, 4), e2())
        assert list(rows) == []

    def test_build_hands_the_elimination_an_iterator(self, monkeypatch):
        code = codes.repetition_code(3)
        seen = []
        echelon_pivots = gf2.echelon_pivots

        def recording(rows):
            seen.append(rows)
            return echelon_pivots(rows)

        monkeypatch.setattr(gf2, "echelon_pivots", recording)
        space = build_window_space(cube(3, 4), code)
        # the last elimination is the window rows; the dual code's come first
        rows = seen[-1]
        assert not isinstance(rows, (list, tuple))
        assert iter(rows) is rows
        # consumed by the one elimination
        assert next(rows, None) is None
        oracle_rows = window_constraint_rows(space.box, space.code)
        assert space.echelon == echelon_pivots(gf2.pivot_pairs(oracle_rows))

    def test_builds_of_one_code_reduce_its_dual_once(self, eliminations):
        code = codes.repetition_code(3)
        eliminations.clear()
        for n in (2, 3, 4):
            build_window_space(cube(3, n), code)
        # one elimination per box, and one for the dual code
        assert len(eliminations) == 4

    def test_build_peak_memory_is_near_the_echelon(self):
        box, code = cube(3, 12), codes.repetition_code(3)
        build_window_space(cube(3, 2), code)  # the dual code and its caches
        gc.collect()
        tracemalloc.start()
        try:
            space = build_window_space(box, code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        raw = sum(sys.getsizeof(r << c) for c, r in space.plan.rows())
        # storing the raw rows would put the peak above their own size; the
        # shifted echelon is a third of it
        assert peak <= raw, (peak, raw)

    @pytest.mark.parametrize("reach", ["anchor", "tap"])
    def test_a_plan_reaching_past_the_box_is_refused(self, monkeypatch, reach):
        stencil_plan = windows._stencil_plan

        def past_the_box(box, dual_rows):
            plan = stencil_plan(box, dual_rows)
            if reach == "anchor":
                return windows.StencilPlan(plan.anchor_mask | 1 << (box.site_count - 1), plan.taps)
            return windows.StencilPlan(plan.anchor_mask, ((box.site_count,),) + plan.taps)

        monkeypatch.setattr(windows, "_stencil_plan", past_the_box)
        with pytest.raises(ValueError, match="^stencil plan reaches past the box$"):
            build_window_space(cube(2, 3), e2())

    @pytest.mark.parametrize(
        "box, code",
        [
            (cube(2, 150), functools.partial(codes.even_weight_code, 2)),
            (cube(8, 3), lambda: rigidity.construct_system(8).code),
        ],
        ids=["planar", "d8b3"],
    )
    def test_the_build_hands_the_elimination_short_odd_rows(self, monkeypatch, box, code):
        code = code()
        codes.dual(code)  # the dual's own elimination, before recording
        calls = []
        echelon_pivots = gf2.echelon_pivots

        def recording(rows):
            calls.append(list(rows))
            return echelon_pivots(calls[-1])

        monkeypatch.setattr(gf2, "echelon_pivots", recording)
        space = build_window_space(box, code, max_sites=box.site_count)
        (pairs,) = calls
        reach = max(o for taps in space.plan.taps for o in taps)
        assert all(r & 1 for _, r in pairs)
        assert max(r.bit_length() for _, r in pairs) <= reach + 1
        oracle_rows = window_constraint_rows(box, code)
        assert [r << c for c, r in pairs] == oracle_rows
        assert space.echelon == echelon_pivots(gf2.pivot_pairs(oracle_rows))

    def test_a_plan_reaching_the_top_site_is_accepted(self):
        # the last anchor of [0, 4) reads site 3 through offset 0
        space = build_window_space(Box((0,), (4,)), codes.dual(codes.full_code(1)))
        assert space.plan.anchor_mask.bit_length() == 4
        assert space.rank == 4

    def test_src_never_reads_the_rebuilt_rows(self, monkeypatch):
        def unread(space):
            raise AssertionError("constraint_matrix read")

        monkeypatch.setattr(WindowSpace, "constraint_matrix", property(unread))
        assert rigidity.run_full_verification(8, box_size=2, samples=5).passed
        space = build_window_space(cube(2, 5), e2())
        x = sample(space, 0)
        assert contains(space, x)
        assert space.solution_basis.num_rows == log2_count(space)
        assert windows.entropy_profile(e2(), [1, 2, 3]) == [1, Fraction(3, 4), Fraction(5, 9)]


def _random_space_case(rng, d):
    """A seeded random box and code: negative lowers, width-1 axes, zero and full codes."""
    lower = tuple(rng.randint(-3, 3) for _ in range(d))
    widths = [1 if rng.random() < 0.1 else rng.randint(2, 4 if d <= 3 else 3) for _ in lower]
    box = Box(lower, tuple(l + w for l, w in zip(lower, widths)))
    kind = rng.randrange(5)
    if kind == 0:
        code = codes.dual(codes.full_code(d))
    elif kind == 1:
        code = codes.full_code(d)
    else:
        code = random_code(rng, d)
    return box, code


@st.composite
def small_space_cases(draw):
    """A small box (negative lowers and width-1 axes allowed) and a maker of a code on it.

    The test calls the maker, so that the ``@example`` cases, which are
    fixed when the file is imported, build no code then.
    """
    d = draw(st.integers(1, 4))
    lower = tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    widths = draw(st.lists(st.integers(1, 5 - (d + 1) // 2), min_size=d, max_size=d))
    box = Box(lower, tuple(l + w for l, w in zip(lower, widths)))
    kind = draw(st.sampled_from(["zero", "full", "random"]))
    if kind == "zero":
        return box, lambda: codes.dual(codes.full_code(d))
    if kind == "full":
        return box, lambda: codes.full_code(d)
    rows = draw(st.lists(st.integers(1, (1 << d) - 1), min_size=1, max_size=d))
    return box, lambda: code_from_generators(F2Matrix(tuple(rows), d))


def _drawn_by(space):
    """The class of the draw rule the space has set up; ``type(None)`` before its first draw."""
    return type(vars(space).get("_draws"))


def _few_rows(space):
    """Whether the space tests membership against its few echelon rows."""
    return isinstance(space._membership, windows._EchelonRows)


def _levels(space):
    """The stencil levels of a one-word space, whatever rules it takes."""
    return windows._StencilLevels(space.plan, space.site_count)


def _one_word_code(d, word):
    """The code of length d whose dual is spanned by one word."""
    return codes.dual(code_from_generators(F2Matrix((word,), d)))


def _two_word_code():
    """A code of length 4 with two dual words: on [0, 3)^4 rank 31 < free_dim 50."""
    return code_from_generators(F2Matrix((0b0011, 0b1100), 4))


class TestStencilPlan:
    """Membership and constraint rows from the stencil plan, against oracles."""

    def test_contains_matches_site_by_site_rule(self):
        rng = random.Random(21)
        verdicts = Counter()
        for _ in range(300):
            box, code = _random_space_case(rng, rng.randint(1, 5))
            space = build_window_space(box, code)
            n = box.site_count
            configs = []
            for _ in range(2):
                x = sample(space, rng.getrandbits(32))
                configs += [x, WindowConfig(box, x.bits ^ (1 << rng.randrange(n)))]
            configs.append(WindowConfig(box, rng.getrandbits(n)))
            for k, x in enumerate(configs):
                expected = window_rule_holds(box, code, x)
                assert contains(space, x) == expected, (box, code, x)
                if k in (0, 2):
                    assert expected
                verdicts[expected] += 1
        assert verdicts[True] > 600 and verdicts[False] > 200

    def test_rows_and_rank_match_per_anchor_assembly(self):
        rng = random.Random(22)
        shapes = Counter()
        for _ in range(300):
            box, code = _random_space_case(rng, rng.randint(1, 5))
            space = build_window_space(box, code)
            rows = window_constraint_rows(box, code)
            assert list(space.constraint_matrix.rows) == rows, (box, code)
            solver = SpanSolver()
            for r in rows:
                solver.add(r)
            assert space.rank == len(solver.pivots)
            shapes["rows"] += bool(rows)
            shapes["width 1"] += 1 in box.shape
            shapes["negative"] += min(box.lower) < 0
        assert shapes["rows"] > 120 and shapes["width 1"] > 50 and shapes["negative"] > 150

    def test_planar_rows_match_per_anchor_assembly(self):
        box = cube(2, 150)
        space = build_window_space(box, e2(), max_sites=box.site_count)
        rows = window_constraint_rows(box, e2())
        assert list(space.constraint_matrix.rows) == rows
        # each row has a site no earlier row touches, so all are independent
        assert space.rank == len(rows) == 149 * 149


class TestSampling:
    def test_deterministic(self):
        space = build_window_space(cube(8, 2), c8())
        assert sample(space, 12) == sample(space, 12)
        rng = random.Random(12)
        assert windows.sample_with(space, rng) == sample(space, 12)

    def test_samples_are_solutions(self):
        space = build_window_space(cube(2, 3), e2())
        for seed in range(200):
            assert contains(space, sample(space, seed))

    def test_zero_dimensional_space_samples_zero(self):
        zero = codes.dual(codes.full_code(1))
        space = build_window_space(Box((0,), (4,)), zero)
        assert log2_count(space) == 0
        assert sample(space, 99).is_zero

    def test_full_code_draws_the_mask_without_a_kernel(self):
        # rank 0: no pivots, so the parity form of a draw is the mask itself
        space = build_window_space(cube(2, 140), codes.full_code(2))
        assert space.rank == 0
        assert sample(space, 7).bits == random.Random(7).getrandbits(space.free_dim)
        assert "solution_basis" not in vars(space)

    def test_group_closure_of_samples(self):
        space = build_window_space(cube(2, 3), e2())
        for seed in range(0, 100, 2):
            s = sample(space, seed) + sample(space, seed + 1)
            assert contains(space, s)

    # each code is made in the test, not when the file is imported; a
    # partial has no __name__, so the test ids stay code0 .. code3
    @pytest.mark.parametrize(
        "code, box, expected",
        [
            (
                functools.partial(codes.even_weight_code, 2),
                cube(2, 6),
                [0xDAC630801, 0x211884253, 0xF7AD294A5, 0x3DEF39CE7, 0x3DEF38C63],
            ),
            (
                functools.partial(codes.repetition_code, 4),
                cube(4, 3),
                [
                    0xC760580010080E12020B,
                    0x12088CAEE2AB2FFAEBEFF,
                    0x1BBD2792880000B80030B,
                    0x12CF2D3CCB0BAFFBEBEFF,
                    0x98F0DAE830B2FEAEBFFF,
                ],
            ),
            # rank below free_dim: the first space, of one dual word, draws by
            # stencil levels; the second, rank 3 against 6 taps, from its echelon rows
            (
                functools.partial(codes.even_weight_code, 3),
                cube(3, 3),
                [0x6C11612, 0x11342F7, 0x7A5D343, 0x1E73995, 0x1E33EC7],
            ),
            (
                functools.partial(codes.repetition_code, 4),
                cube(4, 2),
                [0xD821, 0x2260, 0xF4A9, 0x3CE1, 0x3C61],
            ),
        ],
    )
    def test_seeded_streams_are_pinned(self, code, box, expected):
        # seeded reports replay these draws; a change to the kernel basis
        # or to how it is combined shows up here first
        space = build_window_space(box, code())
        assert [sample(space, seed).bits for seed in range(5)] == expected

    @pytest.mark.parametrize(
        "which, expected",
        [
            (
                "code",
                [
                    "5d0c47fa08b5054c1be5d915aef9e20769e9189755a50f21a26e1444fdea5d5e",
                    "31243520235f4bb34b39f8efa1cec89c50d6abbdf8372cacb4d936187b74767d",
                    "369441ddfc23876573c0a103e87b3057aba1d95c19fbe1f5b1478d5534afdbdf",
                ],
            ),
            (
                "product_code",
                [
                    "00f5c5e7c60c94fc89ade8b31db1e079ac97776130b61f45569a8febe29d940c",
                    "ebd403c365daf00d52b2c1e00052b6da972a021e4dca9abec4bd3a8bc519c29d",
                    "e3f2431f01b744764fc89a14e9e5e95d58ffd1240ed47c682125c026e292e24c",
                ],
            ),
        ],
    )
    def test_box3_seeded_draws_are_pinned(self, which, expected):
        # the two d = 8 box-3 spaces of `verify`: the code space, of several
        # dual words and rank 977 of 6,561 sites, draws through pivot parities,
        # and the product space, of one dual word and rank 256, by stencil
        # levels; recorded when both drew through pivot parities, as the
        # SHA-256 of each bit string
        space = build_window_space(cube(8, 3), getattr(rigidity.construct_system(8), which))
        assert space.rank < space.free_dim
        digests = [
            hashlib.sha256(sample(space, seed).to_bit_string().encode()).hexdigest()
            for seed in range(3)
        ]
        assert digests == expected

    @given(small_space_cases(), st.integers(0, 2**32))
    @example((cube(3, 3), lambda: codes.even_weight_code(3)), 0)  # levels: rank 8, free 19
    # levels: one word of offsets 8 and 2, so its pivots sit 2 above the anchors
    @example((Box((-1, -2, 0), (2, 1, 3)), lambda: _one_word_code(3, 0b011)), 0)
    @example((Box((2, -3), (5, 0)), lambda: _one_word_code(2, 0b01)), 0)  # levels, no reads
    @example((cube(4, 3), _two_word_code), 0)  # parities: rank 31, free 50
    @example((cube(2, 4), e2), 0)  # levels by jumps: one read, rank 9, free 7
    @example((cube(3, 4), lambda: codes.repetition_code(3)), 0)  # parities: rank 46, free 18
    @example((Box((0,), (4,)), lambda: codes.dual(codes.full_code(1))), 0)  # free_dim 0
    @example((cube(2, 3), lambda: codes.full_code(2)), 0)  # rank 0
    def test_draw_is_the_masked_kernel_combination(self, case, seed):
        # whichever way a space draws, the bits are those of the kernel
        # rows selected by one getrandbits(free_dim) call on the stream
        box, make = case
        code = make()
        space = build_window_space(box, code)
        rng = random.Random(seed)
        x = windows.sample_with(space, rng)
        ref = random.Random(seed)
        mask = ref.getrandbits(space.free_dim) if space.free_dim else 0
        expected = 0
        for k, row in enumerate(space.solution_basis.rows):
            if (mask >> k) & 1:
                expected ^= row
        assert x.bits == expected
        assert rng.getrandbits(32) == ref.getrandbits(32)
        assert window_rule_holds(box, code, x)

    @given(
        st.lists(small_space_cases(), min_size=1, max_size=2),
        st.integers(0, 2**32),
        st.sampled_from([1, 7, windows._DRAW_CHUNK + 1]),
    )
    @example([(cube(3, 3), lambda: codes.even_weight_code(3))], 0, 7)  # levels
    @example([(cube(4, 3), _two_word_code)], 0, 7)  # parities
    @example([(cube(2, 4), e2)], 0, 7)  # levels by jumps
    @example([(Box((0,), (4,)), lambda: codes.dual(codes.full_code(1)))], 0, 7)  # free_dim 0
    @example([(cube(2, 3), lambda: codes.full_code(2))], 0, 7)  # rank 0
    @example(
        [(cube(3, 3), lambda: codes.even_weight_code(3)), (cube(2, 4), e2)],
        5,
        windows._DRAW_CHUNK + 1,
    )
    def test_rounds_are_successive_draws(self, cases, seed, rounds):
        # the first space comes twice in a round, as the code space does in
        # verify: one batch serves both of its places
        built = [build_window_space(box, make()) for box, make in cases]
        spaces = (*built, built[0])
        rng = random.Random(seed)
        drawn = windows.sample_rounds(spaces, rng, rounds)
        ref = random.Random(seed)
        assert drawn == [tuple(windows.sample_with(s, ref) for s in spaces) for _ in range(rounds)]
        assert rng.getrandbits(32) == ref.getrandbits(32)
        # and each draw is the kernel combination its mask selects
        again = random.Random(seed)
        for draws in drawn:
            for space, x in zip(spaces, draws):
                mask = again.getrandbits(space.free_dim) if space.free_dim else 0
                expected = 0
                for k, row in enumerate(space.solution_basis.rows):
                    if (mask >> k) & 1:
                        expected ^= row
                assert x.bits == expected

    @pytest.mark.parametrize(
        "spaces, rounds, match",
        [
            ("one", -3, r"^need rounds >= 0, got -3$"),
            ("one", 2.0, r"^rounds must be integers$"),
            ("one", "2", r"^rounds must be integers$"),
            ("none", 2, r"^spaces must hold at least one window space$"),
        ],
    )
    def test_sample_rounds_refuses_bad_arguments_before_drawing(self, spaces, rounds, match):
        one = (build_window_space(cube(2, 3), e2()),)
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match=match):
            windows.sample_rounds(one if spaces == "one" else (), rng, rounds)
        assert rng.getstate() == state

    def test_sample_rounds_accepts_zero_and_integer_like_rounds(self):
        space = build_window_space(cube(2, 3), e2())
        rng = random.Random(5)
        state = rng.getstate()
        assert windows.sample_rounds((space,), rng, 0) == []
        assert rng.getstate() == state
        assert windows.sample_rounds((space,), rng, Index(2)) == windows.sample_rounds(
            (space,), random.Random(5), 2
        )

    @staticmethod
    def _transient(space, rounds):
        """What one sample_rounds call holds at its peak beyond the draws it returns."""
        gc.collect()
        tracemalloc.start()
        try:
            drawn = windows.sample_rounds((space,), random.Random(1), rounds)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(drawn) == rounds
        return peak - kept

    def test_batch_memory_stops_growing_past_one_chunk(self):
        # rank 256 of 625 sites and one dual word, drawn by stencil levels;
        # what a call holds beyond the draws it returns is one chunk's masks
        # and draws
        space = build_window_space(cube(4, 5), codes.even_weight_code(4))
        sample(space, 0)
        one = self._transient(space, windows._DRAW_CHUNK)
        four = self._transient(space, 4 * windows._DRAW_CHUNK)
        # holding all four chunks at once took 4.9 times one
        assert four <= 1.2 * one, (one, four)

    def test_lane_batch_memory_stops_growing_past_one_chunk(self):
        # four dual words, rank 215 of 729 sites, drawn through pivot
        # parities: one chunk's masks, byte matrix and lanes
        space = build_window_space(
            cube(6, 3), code_from_generators(F2Matrix((0b000011, 0b110000), 6))
        )
        sample(space, 0)
        assert _drawn_by(space) is windows._PivotParities
        one = self._transient(space, windows._DRAW_CHUNK)
        four = self._transient(space, 4 * windows._DRAW_CHUNK)
        # holding all four chunks at once took 4.0 times one
        assert four <= 1.2 * one, (one, four)

    def test_marginals_near_half(self):
        space = build_window_space(cube(2, 2), e2())
        basis = space.solution_basis.rows
        nonconstant = [
            k for k in range(space.site_count) if any((r >> k) & 1 for r in basis)
        ]
        assert nonconstant
        k = nonconstant[0]
        hits = sum((sample(space, seed).bits >> k) & 1 for seed in range(10_000))
        assert 0.45 <= hits / 10_000 <= 0.55


class TestOneElimination:
    """A space eliminates its constraint rows once; rank, draws and kernel share it."""

    @pytest.mark.parametrize(
        "box, code, path",
        [
            # one dual word, rank 8, free 19
            (cube(3, 3), functools.partial(codes.even_weight_code, 3), windows._StencilLevels),
            # one dual word of one read, rank 9, free 7
            (cube(2, 4), functools.partial(codes.even_weight_code, 2), windows._StencilLevels),
            # two dual words, rank 31, free 50
            (cube(4, 3), _two_word_code, windows._PivotParities),
            # two dual words, rank 46, free 18
            (cube(3, 4), functools.partial(codes.repetition_code, 3), windows._PivotParities),
        ],
        ids=["levels", "jumps", "parities", "lanes_at_high_rank"],
    )
    def test_build_sample_and_kernel(self, eliminations, box, code, path):
        # the code is made here, not when the file is imported, as in
        # test_seeded_streams_are_pinned; a draw builds only its own path
        space = build_window_space(box, code())
        sample(space, 0)
        assert _drawn_by(space) is path
        # no draw rule makes kernel rows
        assert "solution_basis" not in vars(space)
        basis = space.solution_basis
        rows = list(space.constraint_matrix.rows)
        assert eliminations.count(rows) == 1
        # back-substitution leaves the echelon of the rank as it was
        assert space.echelon == gf2.echelon_pivots(gf2.pivot_pairs(rows))
        assert basis.num_rows == space.free_dim

    def test_planar_kernel_is_the_anti_diagonals(self):
        # x(i + e_1) = x(i + e_2) at every anchor makes a solution constant
        # on each anti-diagonal a + b = s; the free column of diagonal s is
        # its highest site, so free-column order is s = 0 .. 2N - 2
        n = 150
        space = build_window_space(cube(2, n), codes.even_weight_code(2), max_sites=n * n)
        diagonals = [
            sum(1 << (a * n + s - a) for a in range(max(0, s - n + 1), min(s, n - 1) + 1))
            for s in range(2 * n - 1)
        ]
        gc.collect()
        tracemalloc.start()
        try:
            rows = space.solution_basis.rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(rows) == diagonals
        # each part holds one bit; reduced rows as wide as the box peaked
        # near 58 MB
        assert peak <= 12_000_000, peak

    def test_verify_at_box_3(self, eliminations):
        system = rigidity.construct_system(8)
        spaces = [build_window_space(cube(8, 3), c) for c in (system.code, system.product_code)]
        eliminations.clear()
        report = rigidity.run_full_verification(8, box_size=3)
        assert report.passed
        for space, n_rows in zip(spaces, (1024, 256)):
            rows = list(space.constraint_matrix.rows)
            assert len(rows) == n_rows
            assert eliminations.count(rows) == 1


def _row(*bits):
    return sum(1 << b for b in bits)


@st.composite
def parity_systems(draw):
    """A matrix of dense rows and sparse ones (unit rows among them).

    Past 140 columns most dense rows reduce to parts of well over 64 free
    bits, wider than any part of the benchmark's window spaces.
    """
    cols = draw(st.one_of(st.integers(1, 40), st.integers(140, 300)))
    # hypothesis leans to small integers, so dense rows come from a seeded stream
    dense = st.integers(0, 2**32).map(lambda seed: random.Random(seed).getrandbits(cols))
    sparse = st.lists(st.integers(0, cols - 1), max_size=4, unique=True).map(lambda b: _row(*b))
    return F2Matrix(tuple(draw(st.lists(st.one_of(dense, sparse), max_size=12))), cols)


def _parities(m):
    return windows._PivotParities(gf2.echelon_pivots(gf2.pivot_pairs(m.rows)), m.cols)


class TestPivotParities:
    """Draws against the kernel elements their free bits fix, found without the library."""

    @staticmethod
    def _assert_kernel_elements(m, seed, draws):
        # one batch of masks; each draw must stand on its own
        free = free_column_mask(m.rows, m.cols)
        rng = random.Random(seed)
        masks = [rng.getrandbits(free.bit_count()) for _ in range(draws)]
        xs = _parities(m).combine(masks)
        assert len(xs) == draws
        for mask, x in zip(masks, xs):
            # the free bits fix a kernel element; every row meets it evenly
            assert 0 <= x < 1 << m.cols
            assert x & free == expand_bits(mask, free)
            assert all((row & x).bit_count() % 2 == 0 for row in m.rows)

    @given(parity_systems(), st.integers(0, 2**32), st.integers(1, 9))
    @example(F2Matrix((), 5), 0, 1)  # rank 0
    @example(F2Matrix((0, 0), 1), 0, 3)  # rank 0, no free bit drawn either
    @example(F2Matrix((_row(0), _row(0, 1), _row(1, 2)), 4), 0, 2)  # no free bits in any row
    @example(F2Matrix((_row(0, 1),), 2), 0, 1)  # a single held column in total
    @example(F2Matrix((_row(*range(100)), _row(1, 150)), 160), 2, 5)  # a part of 99 free bits
    @example(F2Matrix((_row(0, 3, 5), _row(1, 5, 6), _row(2, 3)), 8), 1, 300)  # a wide batch
    @example(F2Matrix((_row(0, 1), _row(1, 2), _row(2, 3)), 5), 0, 8)  # each pivot reads the next
    # the byte edges of the two transposes: free_dim 16, 9, 15 and 7, so
    # 0, 1, 7 and 7 mod 8, held columns at the top of a whole last mask
    # byte, alone in a partial one and at the top of one
    @example(F2Matrix((_row(0, 5, 17), _row(1, 17)), 18), 0, 8)
    @example(F2Matrix((_row(0, 3, 9),), 10), 1, 8)
    @example(F2Matrix((_row(0, 2, 15),), 16), 2, 1)
    @example(F2Matrix((_row(0, 7),), 8), 3, 1)
    # pivots at bit 7 of site byte 0 and bit 0 of site byte 1, the lower
    # reading the higher, in batches of 8 and of one chunk and one more
    @example(F2Matrix((_row(7, 8, 12), _row(8, 20)), 24), 4, 8)
    @example(F2Matrix((_row(7, 8, 12), _row(8, 20), _row(0, 3, 9)), 24), 5, windows._DRAW_CHUNK + 1)
    def test_combine_is_the_kernel_element_of_its_free_bits(self, m, seed, draws):
        self._assert_kernel_elements(m, seed, draws)

    def test_rows_either_side_of_the_cut(self):
        # reduced rows with 64 and 65 free bits, either side of the 64-bit
        # width that once sent a part to a loop of its own: both take the
        # batch; lanes run from the highest pivot down, and neither row
        # meets the other's pivot
        m = F2Matrix((_row(0, *range(2, 66)), _row(1, *range(70, 135))), 200)
        parities = _parities(m)
        # both pivots sit in site byte 0, each reading its row's columns
        assert parities.lanes == [(0, [(1, list(range(134, 69, -1))), (0, list(range(65, 1, -1)))])]
        # sites 2..65 are free columns 0..63, mask bytes 0..7 whole, and
        # sites 70..134 are free columns 68..132
        held = [(j, 8 * b + s) for b, columns in parities.held for j, s in columns]
        assert held == [(j, j - 2) for j in [*range(2, 66), *range(70, 135)]]
        for seed in range(4):
            self._assert_kernel_elements(m, seed, 20)

    def test_lanes_read_the_higher_pivots(self):
        # the rows' own bits, not their reduced forms: pivot 0 reads the
        # lane of pivot 1, which reads that of pivot 2, which reads column 3
        m = F2Matrix((_row(0, 1), _row(1, 2), _row(2, 3)), 5)
        parities = _parities(m)
        assert parities.lanes == [(0, [(2, [3]), (1, [2]), (0, [1])])]
        # column 3, the one held column, is free column 0: bit 0 of mask byte 0
        assert parities.held == [(0, [(3, 0)])]

    @pytest.mark.parametrize("d, n", [(3, 5), (4, 4)])
    def test_high_rank_spaces_draw_the_masked_kernel_combination(self, d, n):
        # several dual words and rank >= free_dim (101 >= 24, 179 >= 77):
        # the lanes serve these spaces too
        space = build_window_space(cube(d, n), codes.repetition_code(d))
        assert len(space.plan.taps) > 1 and space.rank >= space.free_dim
        drawn = windows.sample_rounds((space,), random.Random(n), 5)
        assert _drawn_by(space) is windows._PivotParities
        ref = random.Random(n)
        for (x,) in drawn:
            assert x.bits == _basis_combination(space, ref.getrandbits(space.free_dim))

    def test_set_up_at_d10_box_3_holds_no_reduced_row(self):
        # reduced rows in free coordinates, as wide as the code space's
        # 55,141 free columns, peaked at 22.7 MB; the walk over the echelon's
        # set bits holds the lanes' reads and the free columns' moves, 2.1 MB
        space = build_window_space(
            cube(10, 3), rigidity.construct_system(10).code, max_sites=60_000
        )
        gc.collect()
        tracemalloc.start()
        try:
            space._draws
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6_000_000, peak


def _side_2_case(rng, d):
    """A seeded random box with every side 1 or 2, and a random, full or zero code."""
    lower = tuple(rng.randint(-2, 2) for _ in range(d))
    box = Box(lower, tuple(l + (1 if rng.random() < 0.1 else 2) for l in lower))
    kind = rng.randrange(4)
    if kind == 0:
        return box, codes.full_code(d)
    if kind == 1:
        return box, codes.dual(codes.full_code(d))
    return box, random_code(rng, d, max(1, d - 1))


def _digest(x):
    return hashlib.sha256(x.to_bit_string().encode()).hexdigest()


class TestRuleSetUp:
    """Each rule is set up on first use, and membership sets up no draw rule."""

    def test_contains_above_the_cut_sets_up_no_draw_rule(self):
        # the d = 8 box-3 code space draws by lanes, and the d = 8 box-3
        # product space and the 40 x 40 planar space by levels
        system = rigidity.construct_system(8)
        spaces = [
            build_window_space(cube(8, 3), system.code),
            build_window_space(cube(8, 3), system.product_code),
            build_window_space(cube(2, 40), e2(), max_sites=1_600),
        ]
        for space in spaces:
            assert contains(space, WindowConfig.zero(space.box))
            assert space._membership is space.plan
            assert "_draws" not in vars(space)

    def test_a_box_2_draw_reuses_the_membership_rows(self):
        space = build_window_space(cube(8, 2), rigidity.construct_system(8).code)
        assert contains(space, WindowConfig.zero(space.box))
        assert "_draws" not in vars(space)
        x = sample(space, 0)
        assert space._draws is space._membership
        assert contains(space, x)


class TestEchelonRows:
    """Spaces of few echelon rows test membership and draw straight from those rows."""

    def test_the_box_2_spaces_take_the_few_row_path(self):
        # rank 4 and 1 against 16 and 8 taps at d8b2; rank 977 and 256
        # against 16 and 8 at d8b3, and 22,201 against 2 on the planar box
        system = rigidity.construct_system(8)
        for code in (system.code, system.product_code):
            space = build_window_space(cube(8, 2), code)
            assert _few_rows(space)
            x = sample(space, 0)
            assert contains(space, x)
            assert _drawn_by(space) is not windows._PivotParities
            assert "solution_basis" not in vars(space)
            assert space._membership.rows == [
                (r << c, 1 << c) for c, r in sorted(space.echelon.items(), reverse=True)
            ]
        for code in (system.code, system.product_code):
            assert not _few_rows(build_window_space(cube(8, 3), code))
        planar = build_window_space(cube(2, 150), e2(), max_sites=22_500)
        assert not _few_rows(planar)
        # the toy's space, rank 2 against 4 taps, reads its rows too
        assert _few_rows(build_window_space(cube(3, 2), codes.repetition_code(3)))

    @pytest.mark.parametrize(
        "d, which, expected",
        [
            (
                8,
                "code",
                [
                    0xF728B4F42485E3A0A5D2F346BAA9455E3E70682C2094CAC629F6FBED82C13E67,
                    0x1E2FEB8414C343C1027C4D1C386BBC4CD613E30D8F16ADF91B7584A2265B8FA5,
                    0x5C6E43315BA2BDD177219D30E7A269FD95BAFC8F2A4D27BDCF4BB99F4BEB4B9F,
                    0x795B9299A9A80FDEA7B5BF55EB561A4216363698B529B4A97B750923CEB2FFE3,
                    0x1710CF527AC435A7A97C643656412A9B8A1ABCD1A6916C74DA4F9FC3C6DA2EBB,
                ],
            ),
            (
                12,
                "product_code",
                [
                    "bd9a10a9a3deb53e965c687bf77182e5468d5659ecf21fabdd10a5cc2485b916",
                    "31ecaa8a4b73b08f8aee7e30d2c3c9ae234c24e794c4bffd893f2a6794e075d2",
                    "128fc6b0a9e5ed3ed2435f255c97cbf126fc081bd6f4e31de6df07a5aaebf566",
                    "859fb0613927adbe1efd9c5dd86463deab72f02ff37cbe1dce886c3d407d498f",
                    "a060a4a6a0ef1fc6f34e2e9ac74e198e4adbfa77c40343df9a566e504642ddfb",
                ],
            ),
        ],
        ids=["d8b2_code", "d12b2_product_code"],
    )
    def test_box_2_seeded_draws_are_pinned(self, d, which, expected):
        # recorded when these spaces still drew through pivot lanes; the
        # d = 12 draws are 4,096 bits, pinned by the SHA-256 of each bit string
        space = build_window_space(cube(d, 2), getattr(rigidity.construct_system(d), which))
        drawn = [sample(space, seed) for seed in range(5)]
        if d == 8:
            assert [x.bits for x in drawn] == expected
        else:
            assert [_digest(x) for x in drawn] == expected

    def test_box_2_round_batch_is_pinned(self):
        # one batch of verify's (xy, xy, z) rounds at d8b2, recorded when
        # these spaces still drew through pivot lanes
        system = rigidity.construct_system(8)
        xy = build_window_space(cube(8, 2), system.code)
        z = build_window_space(cube(8, 2), system.product_code)
        rounds = windows.sample_rounds((xy, xy, z), random.Random(3), 4)
        joined = "".join(x.to_bit_string() for t in rounds for x in t)
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "b726b837166736e6a4144d79006f4992a8e64d92d9e7cbaabb0ad2e64184ed51"
        )

    def test_contains_matches_the_rule_on_side_2_boxes(self):
        rng = random.Random(38)
        seen = Counter()
        cases = [_side_2_case(rng, d) for d in range(1, 7) for _ in range(40)]
        # rank 0; the zero code, rank 2 against 2 taps; a one-dimensional
        # box whose single anchor sits one step below it
        cases += [
            (cube(5, 2), codes.full_code(5)),
            (cube(2, 2), codes.dual(codes.full_code(2))),
            (Box((3,), (4,)), codes.dual(codes.full_code(1))),
        ]
        for box, code in cases:
            space = build_window_space(box, code)
            few = _few_rows(space)
            n = box.site_count
            configs = []
            for _ in range(2):
                x = sample(space, rng.getrandbits(32))
                configs += [x, WindowConfig(box, x.bits ^ (1 << rng.randrange(n)))]
            configs.append(WindowConfig(box, rng.getrandbits(n)))
            for k, x in enumerate(configs):
                expected = window_rule_holds(box, code, x)
                assert contains(space, x) == expected, (box, code, x)
                if k in (0, 2):
                    assert expected
                seen[few, expected] += 1
            seen["rank 0"] += few and space.rank == 0
            seen["anchor below"] += few and box.dimension == 1 and space.rank > 0
        assert seen[True, True] > 800 and seen[True, False] > 100, seen
        assert seen["rank 0"] and seen["anchor below"], seen

    def test_draws_keep_the_rule_and_their_mask(self):
        rng = random.Random(380)
        drawn = 0
        for d in range(1, 7):
            for _ in range(20):
                box, code = _side_2_case(rng, d)
                space = build_window_space(box, code)
                if not _few_rows(space) or not space.free_dim:
                    continue
                free = free_column_mask(space.constraint_matrix.rows, space.site_count)
                assert free.bit_count() == space.free_dim
                masks = [rng.getrandbits(space.free_dim) for _ in range(5)]
                drawn_bits = space._draws.combine(masks)
                # the pivot lanes solve the same echelon by a path of their own
                lanes = windows._PivotParities(space.echelon, space.site_count)
                assert drawn_bits == lanes.combine(masks), (box, code)
                for mask, bits in zip(masks, drawn_bits):
                    assert bits & free == expand_bits(mask, free)
                    assert window_rule_holds(box, code, WindowConfig(box, bits))
                    drawn += 1
        assert drawn > 300, drawn

    def test_few_row_spaces_never_back_substitute(self, monkeypatch):
        # building a code's dual back-substitutes, so the spaces are built
        # before the patch; their draws and membership tests then solve the
        # pivots from the echelon rows alone
        systems = [rigidity.construct_system(d) for d in (8, 12)]
        spaces = [
            build_window_space(cube(s.code.length, 2), code)
            for s in systems
            for code in (s.code, s.product_code)
        ]
        spaces.append(build_window_space(cube(3, 2), codes.repetition_code(3)))

        def unreachable(*args):
            raise AssertionError("back_substitute called")

        monkeypatch.setattr(gf2, "back_substitute", unreachable)
        for space in spaces:
            assert _few_rows(space)
            for seed in range(3):
                x = sample(space, seed)
                assert contains(space, x)
                # a pivot bit lies on its own row, so flipping it breaks the rule
                flipped = WindowConfig(space.box, x.bits ^ 1 << min(space.echelon))
                assert not contains(space, flipped)


@st.composite
def one_word_space_cases(draw):
    """A small box (negative lowers and width-1 axes allowed) and one nonzero dual word."""
    d = draw(st.integers(1, 4))
    lower = tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    widths = draw(st.lists(st.integers(1, 5 - (d + 1) // 2), min_size=d, max_size=d))
    box = Box(lower, tuple(l + w for l, w in zip(lower, widths)))
    return box, draw(st.integers(1, (1 << d) - 1))


def _set_bits(x):
    return [k for k in range(x.bit_length()) if x >> k & 1]


@st.composite
def one_read_space_cases(draw):
    """A box (negative lowers allowed) and a dual word of two taps, or the lone tap at d = 1.

    Every side is at least 2, so every box has anchors; a word on two
    axes before the last has its lowest offset lo above 0.
    """
    d = draw(st.integers(1, 4))
    lower = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    widest = {1: 16, 2: 12, 3: 5, 4: 3}[d]
    widths = draw(st.lists(st.integers(2, widest), min_size=d, max_size=d))
    box = Box(lower, tuple(l + w for l, w in zip(lower, widths)))
    if d == 1:
        return box, 0b1
    a, b = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    return box, 1 << a | 1 << b


def _basis_combination(space, mask):
    """The XOR of the ``solution_basis`` rows that ``mask`` selects, bit k for row k."""
    bits = 0
    for k, row in enumerate(space.solution_basis.rows):
        if mask >> k & 1:
            bits ^= row
    return bits


class TestStencilLevels:
    """Spaces of one dual word draw a dependency level of pivots at a time."""

    def test_the_d8_box_3_spaces_take_their_own_paths(self):
        system = rigidity.construct_system(8)
        z = build_window_space(cube(8, 3), system.product_code)
        xy = build_window_space(cube(8, 3), system.code)
        planar = build_window_space(cube(2, 40), e2(), max_sites=1_600)
        for space in (z, xy, planar):
            sample(space, 0)
        assert _drawn_by(z) is windows._StencilLevels
        assert _drawn_by(xy) is windows._PivotParities
        # one dual word of one read, rank 1,521 >= free_dim 79: levels too,
        # by jumps, and no kernel row is made
        assert _drawn_by(planar) is windows._StencilLevels
        assert "solution_basis" not in vars(planar)
        # the anchors whose reads are all free columns, then the rest
        assert [level.bit_count() for _, level in z._draws.levels] == [129, 127]
        # the longest chain holds 39 pivots: ceil(log2 40) jump levels
        assert len(planar._draws.levels) == 6

    @pytest.mark.parametrize(
        "which, count",
        [("planar_150", 8), ("planar_300", 9), ("d8_box_3_product", 2)],
    )
    def test_level_counts_are_pinned(self, which, count):
        # a lone read doubles after every level, so the planar spaces, whose
        # longest pivot chains hold n - 1 pivots, take ceil(log2 n) levels
        # where one read at a time took n - 1; the d = 8 product word has
        # eight reads, which never double
        if which == "d8_box_3_product":
            space = build_window_space(cube(8, 3), rigidity.construct_system(8).product_code)
        else:
            n = int(which.removeprefix("planar_"))
            space = build_window_space(cube(2, n), e2(), max_sites=n * n)
        assert len(space._draws.levels) == count

    @given(small_space_cases(), st.integers(0, 2**32))
    @example((cube(3, 3), lambda: codes.even_weight_code(3)), 0)
    @example((cube(4, 3), _two_word_code), 0)
    @example((cube(2, 5), e2), 0)  # one read, rank 16 >= free_dim 9
    @example((cube(3, 4), lambda: codes.repetition_code(3)), 0)  # two words, rank 46, free 18
    def test_levels_are_taken_by_every_one_word_space_above_the_cut(self, case, seed):
        # whatever its rank; every other space above the cut takes the lanes
        box, make = case
        space = build_window_space(box, make())
        sample(space, seed)
        drawn = not _few_rows(space) and space.free_dim > 0
        one_word = len(space.plan.taps) == 1
        assert (_drawn_by(space) is windows._StencilLevels) == (drawn and one_word)
        assert (_drawn_by(space) is windows._PivotParities) == (drawn and not one_word)
        assert "solution_basis" not in vars(space)

    @given(one_word_space_cases(), st.integers(0, 2**32))
    @example((cube(3, 3), 0b111), 0)
    @example((Box((-1, -2, 0), (2, 1, 3)), 0b011), 1)  # pivots 2 above their anchors
    @example((Box((0, 0, -1), (3, 1, 2)), 0b111), 2)  # a width-1 axis: no anchor, zero levels
    @example((Box((-2,), (3,)), 0b1), 3)  # every site a pivot
    @example((cube(2, 6), 0b11), 4)  # one read, doubled after each level
    def test_levels_draw_what_the_pivot_lanes_draw(self, case, seed):
        box, word = case
        code = _one_word_code(box.dimension, word)
        space = build_window_space(box, code)
        (taps,) = space.plan.taps
        pattern = 0
        for o in taps:
            pattern ^= 1 << o
        lo = (pattern & -pattern).bit_length() - 1 if pattern else 0
        reads = _set_bits(pattern >> lo)[1:]
        pivots = _set_bits(space.plan.anchor_mask << lo)
        # every row is a pivot as it comes, at its anchor bit plus lo
        assert sorted(space.echelon) == pivots
        # the levels split the pivots; none reads a pivot of its own level or a later one
        levels = _levels(space).levels
        assert all(level for _, level in levels)
        assert sorted(q for _, level in levels for q in _set_bits(level)) == pivots
        # a lone read doubles after every level; several stay the word's own
        assert [level_reads for level_reads, _ in levels] == [
            [reads[0] << k] if len(reads) == 1 else reads for k in range(len(levels))
        ]
        later = 0
        for level_reads, level in reversed(levels):
            later |= level
            for q in _set_bits(level):
                for t in level_reads:
                    assert not later >> q + t & 1, (q, t)
        if not pivots:
            assert levels == []
        rng = random.Random(seed)
        masks = [rng.getrandbits(space.free_dim) for _ in range(5)]
        drawn = _levels(space).combine(masks)
        lanes = windows._PivotParities(space.echelon, space.site_count)
        assert drawn == lanes.combine(masks)
        # and each draw keeps the rule and carries its mask on the free columns
        free = free_column_mask(space.constraint_matrix.rows, space.site_count)
        for mask, bits in zip(masks, drawn):
            assert bits & free == expand_bits(mask, free)
            assert window_rule_holds(box, code, WindowConfig(box, bits))

    @given(one_read_space_cases(), st.integers(0, 2**32))
    @example((Box((-3, 2), (9, 14)), 0b11), 0)  # 12 x 12: 11 pivots on the longest chain
    @example((Box((-1, 0, 1), (4, 5, 6)), 0b011), 1)  # lo = 4
    @example((Box((-5,), (11,)), 0b1), 2)  # d = 1: a lone tap and no read
    def test_jumps_draw_the_masked_kernel_combination(self, case, seed):
        # a pivot q with one read t copies the bit q + t, so the pivots
        # form chains q, q + t, q + 2t, ... that end on a free column; a
        # chain of L pivots is solved in ceil(log2(L + 1)) jump levels
        box, word = case
        code = _one_word_code(box.dimension, word)
        space = build_window_space(box, code)
        levels = _levels(space).levels
        assert len(levels[0][0]) == (box.dimension > 1)
        run = {}
        for q in sorted(space.echelon, reverse=True):
            run[q] = 1 + (run.get(q + levels[0][0][0], 0) if levels[0][0] else 0)
        assert len(levels) == max(run.values()).bit_length()
        rng = random.Random(seed)
        masks = [rng.getrandbits(space.free_dim) if space.free_dim else 0 for _ in range(5)]
        drawn = _levels(space).combine(masks)
        assert drawn == [_basis_combination(space, mask) for mask in masks]
        for bits in drawn:
            assert window_rule_holds(box, code, WindowConfig(box, bits))


class TestShiftRestrict:
    def test_zero_shift_is_identity(self):
        space = build_window_space(cube(2, 3), e2())
        x = sample(space, 4)
        assert windows.shift_restrict(x, (0, 0)) == x

    def test_values_move_correctly(self):
        b = cube(2, 3)
        x = WindowConfig(b, sum((i % 2) << i for i in range(9)))
        y = windows.shift_restrict(x, (1, 0))
        assert y.box == Box((0, 0), (2, 3))
        for site in sites(y.box):
            assert value(y, site) == value(x, (site[0] + 1, site[1]))

    def test_negative_shift(self):
        b = cube(2, 3)
        x = WindowConfig(b, sum(((i * 5 + 3) % 2) << i for i in range(9)))
        y = windows.shift_restrict(x, (-1, -2))
        assert y.box == Box((1, 2), (3, 3))
        for site in sites(y.box):
            assert value(y, site) == value(x, (site[0] - 1, site[1] - 2))

    def test_composition(self):
        b = cube(2, 4)
        rng = random.Random(7)
        for _ in range(50):
            x = WindowConfig(b, rng.getrandbits(16))
            m1 = (rng.randint(-1, 1), rng.randint(-1, 1))
            m2 = (rng.randint(-1, 1), rng.randint(-1, 1))
            try:
                once = windows.shift_restrict(windows.shift_restrict(x, m1), m2)
                both = windows.shift_restrict(x, (m1[0] + m2[0], m1[1] + m2[1]))
            except ValueError:
                continue
            # once.box lies inside both.box, and the two agree on it
            assert windows.restrict(both, once.box) == once

    def test_empty_overlap_errors(self):
        x = WindowConfig.zero(cube(2, 2))
        with pytest.raises(ValueError):
            windows.shift_restrict(x, (2, 0))
        with pytest.raises(ValueError):
            windows.shift_restrict(x, (0, 0, 0))

    def test_shifted_solutions_stay_solutions(self):
        space = build_window_space(cube(2, 4), e2())
        for seed in range(20):
            x = sample(space, seed)
            for m in [(1, 0), (0, 1), (1, 1), (-1, 0), (2, -1)]:
                y = windows.shift_restrict(x, m)
                inner = build_window_space(y.box, e2())
                assert contains(inner, y)

    @pytest.mark.parametrize("m", [(0.9, 0), (0, 1.5), (1.0, 0), (Fraction(1), 0), ("1", 0)])
    def test_non_integral_shift_rejected(self, m):
        x = WindowConfig(cube(2, 2), 0b1011)
        with pytest.raises(ValueError, match="integers"):
            windows.shift_restrict(x, m)

    def test_integer_like_entries_are_accepted(self):
        x = WindowConfig(cube(2, 3), 0b110101101)
        assert windows.shift_restrict(x, [True, 0]) == windows.shift_restrict(x, (1, 0))

    def test_repeated_shift_shares_one_domain_box(self):
        box = cube(3, 3)
        x = WindowConfig(box, 0b101)
        y = WindowConfig(Box(box.lower, box.upper), 0b110)  # equal box, another object
        for m in [(1, 0, 0), (0, -1, 1), (1, 1, 1)]:
            a, b = windows.shift_restrict(x, m), windows.shift_restrict(y, list(m))
            assert a.box is b.box
        assert windows.shift_restrict(x, (1, 0, 0)).box != windows.shift_restrict(x, (0, 1, 0)).box

    @pytest.mark.parametrize(
        "m, match",
        [
            ((1, 0, 0), "arity mismatch"),
            ((1,), "arity mismatch"),
            ((0.5, 0), "integers"),
            (("1", 0), "integers"),
            ((3, 0), "empty overlap"),
            ((0, -3), "empty overlap"),
        ],
    )
    def test_gather_raises_as_shift_restrict_does(self, m, match):
        x = WindowConfig(cube(2, 3), 0b110101101)
        with pytest.raises(ValueError, match=match) as restricted:
            windows.shift_restrict(x, m)
        with pytest.raises(ValueError, match=match) as gathered:
            windows.shift_gather(x.box, m)
        assert str(restricted.value) == str(gathered.value)

    def test_shift_restrict_equals_the_gather(self):
        rng = random.Random(35)
        for _ in range(200):
            d = rng.randint(1, 4)
            lower = tuple(rng.randint(-3, 1) for _ in range(d))
            box = Box(lower, tuple(l + rng.randint(1, 4) for l in lower))
            x = WindowConfig(box, rng.getrandbits(box.site_count))
            m = tuple(rng.randint(-2, 2) for _ in range(d))
            if windows._overlap(box, (m,)) is None:
                continue
            y = windows.shift_restrict(x, m)
            assert y == windows.shift_gather(box, m)(x)
            assert y.box is windows.shift_gather(box, m)(x).box

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_gather_oracle(self, data):
        d = data.draw(st.integers(1, 4))
        lower = tuple(data.draw(st.integers(-3, 3)) for _ in range(d))
        upper = tuple(l + data.draw(st.integers(1, 4)) for l in lower)
        box = Box(lower, upper)
        bits = data.draw(st.integers(0, (1 << box.site_count) - 1))
        m = tuple(data.draw(st.integers(-4, 4)) for _ in range(d))
        expected = gathered_shift(lower, upper, bits, m)
        x = WindowConfig(box, bits)
        if expected is None:
            with pytest.raises(ValueError, match="empty overlap"):
                windows.shift_restrict(x, m)
            return
        y = windows.shift_restrict(x, m)
        assert (y.box.lower, y.box.upper, y.bits) == expected


class TestRestrict:
    def test_restriction_passes_inner_window(self):
        outer = build_window_space(cube(2, 5), e2())
        inner_box = Box((1, 1), (4, 4))
        inner = build_window_space(inner_box, e2())
        for seed in range(20):
            x = sample(outer, seed)
            assert contains(inner, windows.restrict(x, inner_box))

    def test_containment_required(self):
        x = WindowConfig.zero(cube(2, 2))
        with pytest.raises(ValueError):
            windows.restrict(x, cube(2, 3))

    def test_values_preserved(self):
        b = cube(2, 3)
        x = WindowConfig(b, sum((i % 2) << i for i in range(9)))
        sub = Box((1, 0), (3, 2))
        y = windows.restrict(x, sub)
        for site in sites(sub):
            assert value(y, site) == value(x, site)


class TestStar:
    @given(st.integers(0, 511), st.integers(0, 511))
    def test_sitewise_product(self, a, b):
        box = cube(2, 3)
        x, y = WindowConfig(box, a), WindowConfig(box, b)
        p = windows.star(x, y)
        for site in sites(box):
            assert value(p, site) == value(x, site) * value(y, site)

    def test_idempotent_and_unit(self):
        box = cube(2, 3)
        x = WindowConfig(box, 0b101010101)
        ones = WindowConfig(box, (1 << 9) - 1)
        assert windows.star(x, x) == x
        assert windows.star(x, ones) == x

    def test_box_mismatch(self):
        with pytest.raises(ValueError):
            windows.star(WindowConfig.zero(cube(2, 2)), WindowConfig.zero(cube(2, 3)))

    def test_boxes_compare_by_value(self):
        x = WindowConfig(Box((0, 0), (2, 2)), 0b0110)
        assert windows.star(x, WindowConfig(Box((0, 0), (2, 2)), 0b0011)).bits == 0b0010
        with pytest.raises(ValueError, match="box mismatch"):
            windows.star(x, WindowConfig(Box((1, 1), (3, 3)), 0b0011))

    def test_closure_into_product_code_space(self):
        xy_space = build_window_space(cube(8, 2), c8())
        z_space = build_window_space(cube(8, 2), codes.even_weight_code(8))
        for seed in range(0, 60, 2):
            x, y = sample(xy_space, seed), sample(xy_space, seed + 1)
            assert contains(z_space, windows.star(x, y))


class TestApplyPoly:
    def test_annihilator_generators_vanish_at_anchors(self):
        # the window system imposes the local rule at anchors only, so a
        # dual form with partial support may be nonzero on boundary
        # sites of its natural domain; the anchor sub-box must vanish
        cases = [
            (e2(), cube(2, 4)),
            (c8(), cube(8, 2)),
            (codes.even_weight_code(8), cube(8, 2)),
        ]
        for code, box in cases:
            space = build_window_space(box, code)
            anchor_box = Box(box.lower, tuple(u - 1 for u in box.upper))
            for seed in range(10):
                x = sample(space, seed)
                for g in annihilator_ideal(code).generators:
                    acted = windows.apply_poly(g, x)
                    assert windows.restrict(acted, anchor_box).is_zero

    def test_annihilator_generators_kill_margin_restricted_samples(self):
        # sampling on a margin-enlarged box and restricting makes every
        # site of the inner domain an anchor of the big box, so the
        # action vanishes on its whole natural domain
        cases = [
            (e2(), cube(2, 4), cube(2, 3)),
            (c8(), cube(8, 3), cube(8, 2)),
            (codes.even_weight_code(8), cube(8, 3), cube(8, 2)),
        ]
        for code, big, inner in cases:
            space = build_window_space(big, code)
            for seed in range(5):
                y = windows.restrict(sample(space, seed), inner)
                for g in annihilator_ideal(code).generators:
                    assert windows.apply_poly(g, y).is_zero

    def test_monomial_action_is_shift(self):
        rng = random.Random(21)
        acted = 0
        for _ in range(300):
            d = rng.randint(1, 4)
            lower = tuple(rng.randint(-3, 0) for _ in range(d))
            box = Box(lower, tuple(l + rng.randint(1, 3) for l in lower))
            x = WindowConfig(box, rng.getrandbits(box.site_count))
            m = tuple(rng.randint(-2, 2) for _ in range(d))
            p = LaurentPoly.from_terms(d, [m])
            try:
                shifted = windows.shift_restrict(x, m)
            except ValueError:
                with pytest.raises(ValueError):
                    windows.apply_poly(p, x)
                continue
            acted += 1
            assert windows.apply_poly(p, x) == shifted
        assert acted > 50

    def test_domain_is_the_sitewise_overlap(self):
        # the domain is every site i of the box with i + t in the box for
        # each term t, found here site by site
        rng = random.Random(22)
        acted = 0
        for _ in range(300):
            d = rng.randint(1, 4)
            lower = tuple(rng.randint(-3, 0) for _ in range(d))
            box = Box(lower, tuple(l + rng.randint(1, 4) for l in lower))
            x = WindowConfig(box, rng.getrandbits(box.site_count))
            offsets = list(itertools.product(range(-1, 2), repeat=d))
            terms = rng.sample(offsets, rng.randint(2, min(4, len(offsets))))
            p = LaurentPoly.from_terms(d, terms)
            inside = set(sites(box))
            domain = {
                i
                for i in inside
                if all(tuple(a + v for a, v in zip(i, t)) in inside for t in p.terms)
            }
            if not domain:
                with pytest.raises(ValueError, match="empty domain"):
                    windows.apply_poly(p, x)
                continue
            acted += 1
            assert set(sites(windows.apply_poly(p, x).box)) == domain
        assert acted > 50

    def test_addition_action(self):
        # (1 + u^m) x = x + shift(x) on the overlap
        b = cube(2, 4)
        rng = random.Random(5)
        for _ in range(20):
            x = WindowConfig(b, rng.getrandbits(16))
            p = LaurentPoly.from_terms(2, [(0, 0), (0, 1)])
            acted = windows.apply_poly(p, x)
            shifted = windows.shift_restrict(x, (0, 1))
            plain = windows.restrict(x, shifted.box)
            assert acted == plain + shifted

    def test_empty_domain_errors(self):
        x = WindowConfig.zero(cube(2, 2))
        p = LaurentPoly.from_terms(2, [(0, 0), (3, 0)])
        with pytest.raises(ValueError):
            windows.apply_poly(p, x)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            windows.apply_poly(LaurentPoly.one(3), WindowConfig.zero(cube(2, 2)))


@st.composite
def bit_masks(draw):
    """(n, mask) for n = 1..300, with masks no box produces among them."""
    n = draw(st.integers(1, 300))
    full = (1 << n) - 1
    mask = draw(
        st.one_of(
            st.integers(0, full),
            st.sampled_from([0, full, full // 3, full - full // 3]),  # alternating bits
            st.integers(0, n - 1).map(lambda j: 1 << j),
            st.integers(0, n - 1).map(lambda j: full ^ ((1 << j) - 1)),  # high bits only
        )
    )
    return n, mask


def _expand(x: int, mask: int, moves) -> int:
    """The low bits of x spread in order onto ``mask``, the inverse of ``_compress``."""
    return windows._spread(x, mask, windows._expand_steps(mask, moves))


class TestCompressExpand:
    """The bit-permutation primitive against bit-by-bit compress and expand."""

    @given(bit_masks(), st.data())
    def test_against_the_bitwise_oracle(self, case, data):
        n, mask = case
        moves = windows._moves(mask, n)
        x = data.draw(st.integers(0, (1 << (n + 8)) - 1))
        assert windows._compress(x, mask, moves) == compress_bits(x, mask)
        v = data.draw(st.integers(0, (1 << mask.bit_count()) - 1))
        assert _expand(v, mask, moves) == expand_bits(v, mask)
        assert windows._compress(_expand(v, mask, moves), mask, moves) == v

    @pytest.mark.deadline(1.0)
    def test_moves_end_on_a_few_masks(self):
        # _moves runs until no mask bit has a clear bit below it inside the
        # n bits; a fault there loops forever, which the deadline turns
        # into a failure
        full = (1 << 300) - 1
        masks = [(1, 1), (8, 0b10110010), (64, 1 << 63), (300, full ^ 1 << 5), (300, full // 3)]
        for n, mask in masks:
            moves = windows._moves(mask, n)
            x = random.Random(n).getrandbits(n)
            assert windows._compress(x, mask, moves) == compress_bits(x, mask)

    def test_every_value_round_trips_on_every_small_mask(self):
        for n in range(1, 7):
            for mask in range(1 << n):
                moves = windows._moves(mask, n)
                for v in range(1 << mask.bit_count()):
                    spread = _expand(v, mask, moves)
                    assert spread == expand_bits(v, mask)
                    assert windows._compress(spread, mask, moves) == v
                for x in range(1 << n):
                    assert windows._compress(x, mask, moves) == compress_bits(x, mask)


@pytest.mark.deadline(1.0)
def test_moves_end_on_the_low_bits_below_a_clear_top_bit():
    # the n - 1 low bits compress to themselves, so no bit moves; the clear
    # top bit, shifted up past the n bits, is ended only by the truncation
    # of the zeros to n bits, and a fault there loops forever
    for n in (1, 2, 8, 300):
        mask = (1 << n - 1) - 1
        assert windows._moves(mask, n) == ()
        x = random.Random(n).getrandbits(n)
        assert windows._compress(x, mask, ()) == compress_bits(x, mask)


def _random_config(rng, d):
    lower = tuple(rng.randint(-3, 3) for _ in range(d))
    box = Box(lower, tuple(l + rng.randint(1, 4) for l in lower))
    return WindowConfig(box, rng.getrandbits(box.site_count))


class TestGatherOracle:
    """shift_restrict, restrict and apply_poly against the oracle numbering, site by site."""

    def test_shift_restrict(self):
        rng = random.Random(11)
        overlaps = 0
        for _ in range(2000):
            d = rng.randint(1, 5)
            x = _random_config(rng, d)
            m = tuple(rng.randint(-3, 3) for _ in range(d))
            lower = tuple(max(l, l - v) for l, v in zip(x.box.lower, m))
            upper = tuple(min(u, u - v) for u, v in zip(x.box.upper, m))
            if any(u <= l for l, u in zip(lower, upper)):
                with pytest.raises(ValueError, match="empty overlap"):
                    windows.shift_restrict(x, m)
                continue
            overlaps += 1
            y = windows.shift_restrict(x, m)
            assert y.box == Box(lower, upper)
            for site in sites(y.box):
                assert value(y, site) == value(x, tuple(i + v for i, v in zip(site, m)))
        assert overlaps > 200

    def test_one_site_overlaps(self):
        rng = random.Random(12)
        for _ in range(300):
            d = rng.randint(1, 5)
            x = _random_config(rng, d)
            m = tuple(rng.choice((1, -1)) * (s - 1) for s in x.box.shape)
            y = windows.shift_restrict(x, m)
            assert y.box.site_count == 1
            (site,) = sites(y.box)
            assert y.bits == value(x, tuple(i + v for i, v in zip(site, m)))

    def test_restrict(self):
        rng = random.Random(13)
        for _ in range(1000):
            d = rng.randint(1, 5)
            x = _random_config(rng, d)
            assert windows.restrict(x, x.box) == x
            lower = tuple(rng.randint(l, u - 1) for l, u in zip(x.box.lower, x.box.upper))
            upper = tuple(rng.randint(l + 1, u) for l, u in zip(lower, x.box.upper))
            y = windows.restrict(x, Box(lower, upper))
            assert y.box == Box(lower, upper)
            for site in sites(y.box):
                assert value(y, site) == value(x, site)

    def test_apply_poly(self):
        rng = random.Random(14)
        acted = 0
        for _ in range(1000):
            d = rng.randint(1, 5)
            x = _random_config(rng, d)
            offsets = list(itertools.product(range(-1, 2), repeat=d))
            p = LaurentPoly.from_terms(d, rng.sample(offsets, rng.randint(1, min(3, len(offsets)))))
            # like shift_restrict, the domain never leaves the box itself
            lower = tuple(
                l - min(0, *(t[a] for t in p.terms)) for a, l in enumerate(x.box.lower)
            )
            upper = tuple(
                u - max(0, *(t[a] for t in p.terms)) for a, u in enumerate(x.box.upper)
            )
            if any(u <= l for l, u in zip(lower, upper)):
                with pytest.raises(ValueError, match="empty domain"):
                    windows.apply_poly(p, x)
                continue
            acted += 1
            y = windows.apply_poly(p, x)
            assert y.box == Box(lower, upper)
            for site in sites(y.box):
                expected = 0
                for t in p.terms:
                    expected ^= value(x, tuple(i + e for i, e in zip(site, t)))
                assert value(y, site) == expected
        assert acted > 200


class TestGatherStart:
    """Plans compress from their domain's first source bit, so one run of bits needs no move."""

    @pytest.mark.parametrize("d", [3, 8, 12])
    def test_diagonal_plan_of_the_box_2_cube_has_no_moves(self, d):
        domain, start, mask, moves = windows._gather_plan(cube(d, 2), None, (1,) * d)
        assert domain == Box((0,) * d, (1,) * d)
        assert (start, mask, moves) == ((1 << d) - 1, 1, ())

    def test_e0_plan_of_the_box_3_cube_at_d8_has_no_moves(self):
        domain, start, mask, moves = windows._gather_plan(cube(8, 3), None, (1,) + (0,) * 7)
        assert domain == Box((0,) * 8, (2,) + (3,) * 7)
        assert (start, mask, moves) == (3**7, (1 << 2 * 3**7) - 1, ())

    def test_e1_plan_of_the_box_3_cube_at_d8_moves_whole_units(self):
        # axes 2..7 are whole, so the plan moves runs of 3^6 bits, twice
        domain, start, mask, moves = windows._gather_plan(cube(8, 3), None, (0, 1) + (0,) * 6)
        unit = 3**6
        assert (start, len(moves)) == (unit, 2)
        assert [s for _, s in moves] == [unit, 2 * unit]
        # the widened mask is the sub-box's mask at bit level
        assert mask == windows._sub_box_mask(windows._strides((3,) * 8), 0, (3, 2) + (3,) * 6)

    @pytest.mark.parametrize("d", [3, 8, 12])
    def test_unit_shift_plans_of_the_box_2_cube_take_j_moves(self, d):
        for j in range(d):
            m = tuple(int(a == j) for a in range(d))
            assert len(windows._gather_plan(cube(d, 2), None, m)[3]) == j

    def test_restrict_and_apply_poly_from_a_nonzero_start(self):
        rng = random.Random(16)
        acted = 0
        for _ in range(300):
            d = rng.randint(1, 4)
            lower = tuple(rng.randint(-4, -1) for _ in range(d))
            box = Box(lower, tuple(l + rng.randint(2, 4) for l in lower))
            x = WindowConfig(box, rng.getrandbits(box.site_count))
            # the sub-box starts past the box's lower corner on one axis at least
            moved = rng.randrange(d)
            sub_lower = tuple(
                rng.randint(l + (a == moved), u - 1)
                for a, (l, u) in enumerate(zip(box.lower, box.upper))
            )
            sub = Box(sub_lower, tuple(rng.randint(l + 1, u) for l, u in zip(sub_lower, box.upper)))
            assert windows._gather_plan(box, sub, (0,) * d)[1] > 0
            y = windows.restrict(x, sub)
            for site in sites(sub):
                assert value(y, site) == value(x, site)
            # terms in {0, 1, 2}^d, none zero, keep the box's lower corner
            # and start past its first bit
            offsets = [t for t in itertools.product(range(3), repeat=d) if any(t)]
            p = LaurentPoly.from_terms(d, rng.sample(offsets, rng.randint(1, min(3, len(offsets)))))
            domain = windows._overlap(box, p.terms)
            if domain is None:
                continue
            assert all(windows._gather_plan(box, domain, t)[1] > 0 for t in p.terms)
            acted += 1
            y = windows.apply_poly(p, x)
            assert y.box == domain
            for site in sites(domain):
                expected = 0
                for t in p.terms:
                    expected ^= value(x, tuple(i + e for i, e in zip(site, t)))
                assert value(y, site) == expected
        assert acted > 100


class TestEntropyProfile:
    def test_even2_profile(self):
        assert windows.entropy_profile(e2(), [2, 3, 4]) == [
            Fraction(3, 4),
            Fraction(5, 9),
            Fraction(7, 16),
        ]

    def test_full_code_profile_is_one(self):
        assert windows.entropy_profile(codes.full_code(2), [2, 3, 4]) == [1, 1, 1]

    def test_proper_codes_decrease(self):
        for code in (e2(), codes.even_weight_code(8), c8()):
            sizes = [2, 3] if code.length == 8 else [2, 3, 4]
            profile = windows.entropy_profile(code, sizes)
            assert all(v < 1 for v in profile)
            assert all(a > b for a, b in zip(profile, profile[1:]))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            windows.entropy_profile(e2(), [0])

    def test_guard_passthrough(self):
        with pytest.raises(GuardExceededError):
            windows.entropy_profile(e2(), [200])
