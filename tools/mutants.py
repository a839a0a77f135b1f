"""The committed mutant catalogue: each known fault, applied alone, must fail Tier-1.

Run from the root of a source checkout:

    python3 tools/mutants.py

Each mutant is one (file, old, new) text replacement under ``src/``; the
old text must occur exactly once.  The script first runs Tier-1 on an
unmutated copy of ``src/``, ``tests/``, ``perfbench/`` (whose hooks a
test loads) and ``pyproject.toml`` in a temporary directory, then on
one fresh copy per mutant, and writes ``tools/mutants.json``: the
hypothesis seed of every run, and per mutant ``killed`` with the first
failing test, or ``survived``.  The seed is fixed, so two runs on one
tree give the same verdicts.  A run that outlives five times the
unmutated run (plus 30 s) is stopped and counts as killed by the
timeout.  A SIGTERM to the script stops the current run's process group
and removes the copies before it exits.  A survivor is a finding to fix
in the program or the tests, never a reason to loosen a test.  Standard
library only; not part of Tier-1, but ``tests/test_mutant_catalogue.py``
checks there that every old text still occurs once and that
``tools/mutants.json`` records every mutant killed by a named test
under ``HYPOTHESIS_SEED``; a kill by a collection error or a timeout
names none.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tools" / "mutants.json"
# a fixed hypothesis seed, so that a second run of the catalogue gives the same verdicts
HYPOTHESIS_SEED = 0
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", f"--hypothesis-seed={HYPOTHESIS_SEED}"]

G = "src/starshift/gf2.py"
W = "src/starshift/windows.py"
R = "src/starshift/rigidity.py"
C = "src/starshift/cli.py"
K = "src/starshift/codes.py"
L = "src/starshift/laurent.py"

# (name, file, old, new)
MUTANTS = [
    (
        "expand_moves_in_forward_order", W,
        "    return tuple((full ^ mv, mv, s) for mv, s in reversed(moves))\n",
        "    return tuple((full ^ mv, mv, s) for mv, s in moves)\n",
    ),
    (
        "compress_without_initial_mask", W,
        "    x &= mask\n    for mv, s in moves:\n",
        "    for mv, s in moves:\n",
    ),
    (
        "moves_without_full_truncation", W,
        "    zeros = (starts ^ mask) << unit & full\n",
        "    zeros = (starts ^ mask) << unit\n",
    ),
    (
        "sub_box_mask_one_copy_short_per_axis", W,
        "        for k in range(width):\n",
        "        for k in range(width - 1):\n",
    ),
    (
        # a plan cache keyed on (source box, domain) alone
        "plan_key_without_offset", W,
        "@functools.lru_cache(maxsize=64)\ndef _gather_plan(",
        "def _gather_plan(source, domain, offset, _plans={}):\n"
        "    if (source, domain) not in _plans:\n"
        "        _plans[source, domain] = _gather_plan_for(source, domain, offset)\n"
        "    return _plans[source, domain]\n\n\n"
        "def _gather_plan_for(",
    ),
    (
        # the start bit read as if the source box had its lower corner at
        # the origin, which only boxes that do can hide
        "gather_start_without_the_source_corner", W,
        "sum((i + v - l) * s for i, v, l, s in",
        "sum((i + v) * s for i, v, l, s in",
    ),
    (
        # the own pivot bit of a row lands on a free bit of its part, so the
        # taps of a draw gather it
        "taps_keep_the_rows_own_pivot_bit", G,
        "        row, part = pivots[c] ^ 1, 0\n",
        "        row, part = pivots[c], 0\n",
    ),
    (
        # ["10", "100"] builds a 2-column matrix whose second row reads "10"
        "from_strings_without_its_width_check", G,
        "        if any(v.length != width for v in vecs):\n"
        "            raise ValueError(\"rows have mixed lengths\")\n",
        "",
    ),
    (
        # back-substitution writing the reduced rows into the space's echelon
        "back_substitution_in_place", G,
        "    parts: dict[int, int] = {}\n",
        "    parts = pivots\n",
    ),
    (
        # echelon rows kept where they stand, not shifted down to their pivots
        "echelon_rows_unshifted", G,
        "            yield c, r >> c\n",
        "            yield c, r\n",
    ),
    (
        # a row whose XOR clears its low bit is not shifted down to its new
        # lowest set bit, so it meets the same pivot again and undoes the
        # XOR, forever
        "echelon_skips_renormalising_after_an_xor", G,
        "            k = (cur ^ (cur - 1)).bit_length() - 1\n"
        "            cur >>= k\n"
        "            c += k\n",
        "",
    ),
    (
        # echelon rows XORed in where they stand, not back at their pivots
        "reduce_bits_ignores_the_pivot_shift", G,
        "            cur ^= row << col\n",
        "            cur ^= row\n",
    ),
    (
        # a free column counts one pivot too few below it
        "free_index_off_by_one", G,
        "part ^= 1 << (col - bisect.bisect_left(cols, col))",
        "part ^= 1 << (col - bisect.bisect_left(cols, col) + 1)",
    ),
    (
        # the lanes solved from a second elimination of the rows, not from
        # the space's echelon
        "parities_eliminate_the_rows_again", W,
        "        return _PivotParities(self.echelon, self.site_count)\n",
        "        return _PivotParities(\n"
        "            gf2.echelon_pivots(gf2.pivot_pairs(self.constraint_matrix.rows)), self.site_count\n"
        "        )\n",
    ),
    (
        # a lane reads the lanes of lower pivots, not yet solved in the
        # batch, as though they were
        "lanes_solved_from_the_lowest_pivot", W,
        "        pivot_cols = sorted(echelon, reverse=True)\n",
        "        pivot_cols = sorted(echelon)\n",
    ),
    (
        # a pivot's bit is the XOR of its free columns alone, the higher
        # pivots its row meets left out
        "lane_drops_its_pivot_reads", W,
        "            [column[j] for j in free] + [self.stride + k for k in read]\n",
        "            [column[j] for j in free]\n",
    ),
    (
        # the pivots of every level after the first stay clear
        "levels_only_the_first_applied", W,
        "            for reads, level in self.levels:\n",
        "            for reads, level in self.levels[:1]:\n",
    ),
    (
        # a level's pivots leave out the bit at the word's second offset
        "level_draw_skips_one_read", W,
        "                for t in reads:\n                    s ^= x >> t\n",
        "                for t in reads[1:]:\n                    s ^= x >> t\n",
    ),
    (
        # a pivot is blocked by pivots already solved, so the first level
        # takes every pivot and reads pivots not yet set
        "levels_peeled_against_solved_pivots", W,
        "                blocked |= unsolved >> t\n",
        "                blocked |= (pivots ^ unsolved) >> t\n",
    ),
    (
        # a level's pivots are set at their anchor bits, not lo above them;
        # the d = 8 product space has lo = 0, so only smaller boxes see it
        "level_pivots_at_the_anchor_bits", W,
        "            self.levels.append((reads, level))\n",
        "            self.levels.append((reads, level >> lo))\n",
    ),
    (
        # the spaces of several dual words draw by levels, and those of one
        # by the pivot lanes
        "one_word_selection_inverted", W,
        "        if len(self.plan.taps) == 1:\n",
        "        if len(self.plan.taps) != 1:\n",
    ),
    (
        # a lone read is never doubled: the same draws, one level per pivot
        # of the longest chain, 149 on the 150 x 150 planar space
        "lone_read_never_doubled", W,
        "            if len(reads) == 1:\n"
        "                # an unsolved pivot equals the bit twice as far above it\n"
        "                reads = [2 * reads[0]]\n",
        "",
    ),
    (
        # the read is doubled before the level it peels is stored, so each
        # level copies the bit twice as far above as the peel checked
        "lone_read_doubled_before_its_level", W,
        "            self.levels.append((reads, level))\n"
        "            unsolved ^= level\n"
        "            if len(reads) == 1:\n"
        "                # an unsolved pivot equals the bit twice as far above it\n"
        "                reads = [2 * reads[0]]\n",
        "            if len(reads) == 1:\n"
        "                reads = [2 * reads[0]]\n"
        "            self.levels.append((reads, level))\n"
        "            unsolved ^= level\n",
    ),
    (
        # the read quadruples, so each jump level after the first skips the
        # one that would read twice as far
        "one_jump_level_dropped", W,
        "                reads = [2 * reads[0]]\n",
        "                reads = [4 * reads[0]]\n",
    ),
    (
        # a pivot is set whenever its row meets the draw at all
        "few_row_draw_parity_without_its_low_bit", W,
        "                if (x & row).bit_count() & 1:\n",
        "                if (x & row).bit_count():\n",
    ),
    (
        # a draw keeps its mask on the free columns and leaves every pivot clear
        "few_row_draw_never_sets_a_pivot", W,
        "                    x |= pivot\n",
        "                    pass\n",
    ),
    (
        # a configuration meeting a row twice is refused
        "few_row_membership_parity_without_its_low_bit", W,
        "            if (bits & row).bit_count() & 1:\n",
        "            if (bits & row).bit_count():\n",
    ),
    (
        "few_row_membership_reads_only_the_first_row", W,
        "        for row, _ in self.rows:\n",
        "        for row, _ in self.rows[:1]:\n",
    ),
    (
        # a pivot is solved before the higher pivots its row reads are set
        "few_row_pivots_solved_lowest_first", W,
        "        self.rows = [(r << c, 1 << c) for c, r in sorted(echelon.items(), reverse=True)]\n",
        "        self.rows = [(r << c, 1 << c) for c, r in sorted(echelon.items())]\n",
    ),
    (
        # the box-2 spaces scan their plan and draw by lanes, while the
        # planar and box-3 spaces widen every echelon row; outputs agree
        "few_row_cut_inverted", W,
        "        if self.rank > sum(map(len, self.plan.taps)):\n",
        "        if self.rank <= sum(map(len, self.plan.taps)):\n",
    ),
    (
        "plan_scan_reads_only_the_first_dual_word", W,
        "    for taps in plan.taps:\n",
        "    for taps in plan.taps[:1]:\n",
    ),
    (
        # the one-dimensional anchor one step below the box is never judged
        "plan_scan_drops_anchor_bit_0", W,
        "        if acc & plan.anchor_mask:\n",
        "        if acc & plan.anchor_mask & ~1:\n",
    ),
    (
        # a one-dimensional box loses the anchor one step below it
        "one_dimensional_anchors_inside_the_box", W,
        "    low = -1 if box.dimension == 1 else 0\n",
        "    low = 0\n",
    ),
    (
        # rows past the box go into the elimination unnoticed
        "plan_reach_unchecked", W,
        "    if plan.anchor_mask.bit_length() + reach > n_sites:\n"
        "        raise ValueError(\"stencil plan reaches past the box\")\n",
        "",
    ),
    (
        "plan_reach_refuses_the_top_site", W,
        "    if plan.anchor_mask.bit_length() + reach > n_sites:\n",
        "    if plan.anchor_mask.bit_length() + reach >= n_sites:\n",
    ),
    (
        # each row's pair names its anchor bit, not its lowest set bit
        "row_pair_column_without_the_lowest_offset", W,
        "return ((base + lo, r) for base",
        "return ((base, r) for base",
    ),
    (
        # the highest anchor bit is the last character of the string
        "row_stream_skips_the_top_anchor", W,
        "for base, ch in enumerate(bits) if ch",
        "for base, ch in enumerate(bits[:-1]) if ch",
    ),
    (
        # column i reads character i + 1 of every formatted mask
        "batch_column_slice_one_character_off", W,
        "int.from_bytes(matrix[i::stride], \"little\")",
        "int.from_bytes(matrix[i + 1::stride], \"little\")",
    ),
    (
        # the XOR of an even number of ASCII digits clears bits 4 and 5,
        # so only bit 0 carries the parity
        "batch_parity_read_from_bit_one", W,
        "_LOW_BIT_TO_ASCII = bytes(0x30 | b & 1 for b in range(256))",
        "_LOW_BIT_TO_ASCII = bytes(0x30 | b >> 1 & 1 for b in range(256))",
    ),
    (
        "batch_draw_rows_read_in_reverse", W,
        "parities = int(rows[t::n]",
        "parities = int(rows[n - 1 - t::n]",
    ),
    (
        # the last round of every full chunk is never drawn
        "batch_chunk_one_round_short", W,
        "places = spaces * min(_DRAW_CHUNK, rounds - start)",
        "places = spaces * min(_DRAW_CHUNK - 1, rounds - start)",
    ),
    (
        "contains_box_ignores_arity", W,
        "            self.dimension == other.dimension\n            and all(",
        "            all(",
    ),
    (
        "overlap_reads_only_the_first_offset", W,
        "    for t in offsets:\n",
        "    for t in list(offsets)[:1]:\n",
    ),
    (
        # eq=False leaves Box equality to object identity
        "box_eq_false_restored", W,
        "@dataclass(frozen=True)\nclass Box:\n",
        "@dataclass(frozen=True, eq=False)\nclass Box:\n",
    ),
    (
        # Box((0,), (2.5,)) keeps its float bound and 2.5 sites
        "box_bounds_not_normalised", W,
        "        lower = int_tuple(self.lower, \"box bounds\")\n"
        "        upper = int_tuple(self.upper, \"box bounds\")\n"
        "        # frozen: the normalised bounds replace the given ones in place\n"
        "        object.__setattr__(self, \"lower\", lower)\n"
        "        object.__setattr__(self, \"upper\", upper)\n",
        "",
    ),
    (
        # cube(2.5, 2) fails inside tuple repetition with a TypeError
        "cube_without_its_d_read", W,
        "    (d,) = int_tuple((d,), \"d\")\n    return Box(",
        "    return Box(",
    ),
    (
        # a size "3" fails in the comparison with 1 with a TypeError
        "entropy_profile_without_its_size_read", W,
        "    for n in int_tuple(sizes, \"box bounds\"):\n",
        "    for n in sizes:\n",
    ),
    (
        # a hand-written hash over the lower bound alone overrides the
        # frozen dataclass's hash((lower, upper))
        "box_hash_of_lower_only", W,
        "    upper: IntVector\n\n    def __post_init__(self):\n",
        "    upper: IntVector\n\n    def __hash__(self):\n        return hash((self.lower,))\n\n"
        "    def __post_init__(self):\n",
    ),
    (
        "values_length_unchecked", W,
        "    if len(chars) != box.site_count:\n",
        "    if False:\n",
    ),
    (
        "box_mismatch_by_identity_only", W,
        "    if x.box is not y.box and x.box != y.box:\n",
        "    if x.box is not y.box:\n",
    ),
    (
        "bits_bound_rejects_the_top_site", W,
        "bits.bit_length() > box.site_count",
        "bits.bit_length() >= box.site_count",
    ),
    (
        "bits_type_check_dropped", W,
        "if not isinstance(bits, int) or bits < 0",
        "if bits < 0",
    ),
    (
        # a shift's gather reads its domain from bit 0 of the source, not
        # from the domain's first source bit
        "gather_ignores_its_start", W,
        "        return WindowConfig(domain, _compress(x.bits >> start, mask, moves))\n",
        "        return WindowConfig(domain, _compress(x.bits, mask, moves))\n",
    ),
    (
        # a configuration on another box is gathered through the plan of
        # the box the shift was validated on
        "gather_reads_every_box_through_one_plan", W,
        "        if x.box is not box and x.box != box:\n"
        "            return shift_gather(x.box, mm)(x)\n",
        "",
    ),
    (
        # shift_restrict reads its shift's axes in reverse; the toy sweep
        # and the sampled check never call it, so the gather oracles must
        "shift_restrict_reverses_its_shift", W,
        "    return shift_gather(x.box, m)(x)\n",
        "    return shift_gather(x.box, m[::-1])(x)\n",
    ),
    (
        # a plan's moves shift their runs by a count of units read as
        # bits; plans of unit 1, and so every draw, are untouched
        "gather_moves_unscaled_by_the_unit", W,
        "    s = unit\n",
        "    s = 1\n",
    ),
    (
        "shift_entries_truncated_by_int", W,
        "    mm = int_tuple(m, \"shift entries\")\n",
        "    mm = tuple(map(int, m))\n",
    ),
    (
        # the shift overlaps memoised per source box, whatever the shift
        "overlap_memo_keyed_on_the_box_alone", W,
        "@functools.lru_cache(maxsize=64)\ndef _gather_plan(",
        "def _gather_plan(source, domain, offset, _plans={}):\n"
        "    key = source if domain is None else (source, domain, offset)\n"
        "    if key not in _plans:\n"
        "        _plans[key] = _gather_plan_for(source, domain, offset)\n"
        "    return _plans[key]\n\n\n"
        "def _gather_plan_for(",
    ),
    (
        "triple_checks_only_x_against_y", R,
        "        if (y.box is not box and y.box != box) or (z.box is not box and z.box != box):\n",
        "        if y.box is not box and y.box != box:\n",
    ),
    (
        # the shear's image keeps x * y and drops z: still shift-commuting
        # and not affine, but no involution
        "shear_without_its_z_term", R,
        "WindowConfig(x.box, x.bits & y.bits ^ t.z.bits)",
        "WindowConfig(x.box, x.bits & y.bits)",
    ),
    (
        "shifts_without_the_diagonal", R,
        " for j in range(d)] + [(1,) * d]\n",
        " for j in range(d)]\n",
    ),
    (
        "samples_below_one_check_dropped", R,
        "    if samples < 1:\n        raise ValueError(f\"need samples >= 1, got {samples}\")\n",
        "",
    ),
    (
        # Fraction(5, 2) samples fail inside range with a TypeError
        "verify_dynamics_without_its_samples_read", R,
        "    (samples,) = int_tuple((samples,), \"samples\")\n    if samples < 1:\n",
        "    if samples < 1:\n",
    ),
    (
        # construct_system(8.0) passes as the d = 8 pair
        "construct_system_without_its_d_read", R,
        "    (d,) = int_tuple((d,), \"d\")\n    if d < 8:\n",
        "    if d < 8:\n",
    ),
    (
        # run_full_verification(8.0) fails inside itertools.repeat with a TypeError
        "verification_without_its_d_read", R,
        "    (d,) = int_tuple((d,), \"d\")\n    (samples,) = int_tuple(",
        "    (samples,) = int_tuple(",
    ),
    (
        # samples=10.0 is refused only after both window spaces are built
        "verification_without_its_samples_read", R,
        "    (samples,) = int_tuple((samples,), \"samples\")\n    (box_size,) = int_tuple(",
        "    (box_size,) = int_tuple(",
    ),
    (
        # box_size="3" fails in the comparison with 2 with a TypeError
        "verification_without_its_box_size_read", R,
        "    (box_size,) = int_tuple((box_size,), \"box bounds\")\n",
        "",
    ),
    (
        # a double shear that moves only z passes
        "toy_involution_compares_only_x_and_y", R,
        "        return shear(shear(t)) == t, witness\n",
        "        s = shear(shear(t))\n        return (s.x, s.y) == (t.x, t.y), witness\n",
    ),
    (
        # every tiled pair reads (x, x), so no pair with x != y is swept
        "toy_tiles_x_in_place_of_y", R,
        "            WindowConfig(tiled, y_bits),\n",
        "            WindowConfig(tiled, x_bits),\n",
    ),
    (
        # the list of round tuples lives until the last triple is made
        "sampled_round_tuples_kept_beside_the_triples", R,
        "    for k, t in enumerate(triples):\n        triples[k] = TripleConfig(*t)\n",
        "    triples = [TripleConfig(*t) for t in triples]\n",
    ),
    (
        # the first 64 bytes of xys pair the zero solution with every other,
        # so the only product judged is 0
        "toy_closure_judges_only_the_first_64_products", R,
        "        return all(windows_mod.contains(space, configs[b]) for b in products), witness\n",
        "        return all(windows_mod.contains(space, configs[b]) for b in set(xys[:64])), witness\n",
    ),
    (
        # every shift's gathers go through the plan of the first unit shift;
        # the shear commutes with that one too, so only a map that fails
        # on some other shift, or a count of the plans, tells
        "equivariance_gathers_every_shift_through_the_first_plan", R,
        "                gathers.append((m, windows_mod.shift_gather(space_xy.box, m)))\n",
        "                gathers.append((m, windows_mod.shift_gather(space_xy.box, shifts[0])))\n",
    ),
    (
        # every toy shift's gathers go through the plan of the first unit
        # shift; the shear commutes with that one too, so only a count of
        # the plans tells
        "toy_gathers_every_shift_through_the_first_plan", R,
        "            gather = windows_mod.shift_gather(box, m)\n",
        "            gather = windows_mod.shift_gather(box, shifts[0])\n",
    ),
    (
        # a map that replaces x or y is compared against t's shifted x and y
        "equivariance_reuses_a_replaced_component", R,
        "                    shifted.x if image.x is t.x else gather(image.x),\n"
        "                    shifted.y if image.y is t.y else gather(image.y),\n",
        "                    shifted.x,\n"
        "                    shifted.y,\n",
    ),
    (
        "sampled_site_guard_doubled", R,
        "MAX_SAMPLED_SITES = 1 << 24\n",
        "MAX_SAMPLED_SITES = 1 << 25\n",
    ),
    (
        # the witness drawn from the window space, a locally admissible
        # pattern that need not extend to a point of X_C
        "non_affine_witness_drawn", R,
        "    x = WindowConfig(box, (1 << space.site_count) - 1)\n",
        "    x = windows_mod.sample(space, 0)\n",
    ),
    (
        "non_affine_witness_skips_membership", R,
        "verdicts = (\"in_window_space\", \"second_difference_x_zero\",",
        "verdicts = (\"second_difference_x_zero\",",
    ),
    (
        "weight_stream_skips_the_zero_word", K,
        "    for k in range(length + 1):\n        tested += math.comb(length, k)\n",
        "    for k in range(1, length + 1):\n        tested += math.comb(length, k)\n",
    ),
    (
        "weight_fallback_drops_weight_k", K,
        "if gf2.weight(v) >= k)",
        "if gf2.weight(v) > k)",
    ),
    (
        # each coordinate with a nonzero column is a class of its own
        "column_classes_keyed_by_coordinate", K,
        "            sums[column] = sums.get(column, 0) + x\n",
        "            sums[len(sums)] = x\n",
    ),
    (
        # column j is read off bit length - 1 - j
        "columns_read_right_to_left", K,
        "format(r, f\"0{c.length}b\")[::-1] for r in",
        "format(r, f\"0{c.length}b\") for r in",
    ),
    (
        # a zero code has no columns, so it reads as non-degenerate
        "zero_code_has_no_columns", K,
        "    if c.dim == 0:\n        return itertools.repeat((), c.length)\n",
        "",
    ),
    (
        "weight_class_without_self_orthogonality", K,
        " for v in rows) and is_self_orthogonal(c):\n",
        " for v in rows):\n",
    ),
    (
        # [1.5, 0] reads as (1, 0) and [0.5, 0, 0] as the zero vector
        "witness_entries_truncated_by_int", K,
        "    n = gf2.int_tuple(n, \"entries of n\")\n    if len(n) != c.length:\n"
        "        raise ValueError(\"length mismatch\")\n    if not any(n):\n",
        "    n = tuple(map(int, n))\n    if len(n) != c.length:\n"
        "        raise ValueError(\"length mismatch\")\n    if not any(n):\n",
    ),
    (
        # every call of dual reduces the kernel rows again
        "dual_derived_on_every_call", K,
        "    return c._dual\n",
        "    return BinaryCode._dual.func(c)\n",
    ),
    (
        "generators_reduced_unsorted", K,
        "gf2.reduced_rows(sorted(m.rows, key=int.bit_length, reverse=True))",
        "gf2.reduced_rows(m.rows)",
    ),
    (
        # a code's echelon keeps its basis rows unshifted, the old second form
        "code_echelon_unshifted", K,
        "            echelon[pivot] = r >> pivot\n",
        "            echelon[pivot] = r\n",
    ),
    (
        "certificate_verdict_inverted", K,
        "        return self.kernel_witness is None\n",
        "        return self.kernel_witness is not None\n",
    ),
    (
        "support_sum_index_off_by_one", K,
        "        total += n[low.bit_length() - 1]\n",
        "        total += n[low.bit_length()]\n",
    ),
    (
        # a hash that equal codes do not share, so each code built anew
        # misses every cache keyed on codes
        "code_hash_per_object", K,
        "        return hash((self.basis,))\n",
        "        return id(self)\n",
    ),
    (
        # a draw of exactly 2B + 1 kept: the entry B + 1 lies outside the bound
        "mixing_draw_accepts_the_width", R,
        "            while r >= width:\n",
        "            while r > width:\n",
    ),
    (
        "collapse_exponent_negated", L,
        "[(support_sum(t, w),) for t in p.terms]",
        "[(-support_sum(t, w),) for t in p.terms]",
    ),
    (
        # negating the difference is an equivalent mutant: its class sums
        # only have to vanish, so the sum stands in for a sign error
        "binomial_exponents_added", L,
        "tuple(x - y for x, y in zip(a, b))",
        "tuple(x + y for x, y in zip(a, b))",
    ),
    (
        "unit_generator_screen_inverted", L,
        "        # a single-variable generator is a unit, the ideal is everything\n"
        "        return True\n",
        "        # a single-variable generator is a unit, the ideal is everything\n"
        "        return False\n",
    ),
    (
        "term_budget_refuses_the_bound", L,
        "    if len(p.terms) > MAX_EXPANSION_TERMS:\n",
        "    if len(p.terms) >= MAX_EXPANSION_TERMS:\n",
    ),
    (
        "degree_budget_refuses_the_bound", L,
        "    if deg > MAX_EXPANSION_DEGREE:\n",
        "    if deg >= MAX_EXPANSION_DEGREE:\n",
    ),
    (
        # variable(2, 1.5) is the constant 1 and variable(2, 0.0) is u1
        "variable_without_its_read", L,
        "        arity, j = int_tuple((arity, j), \"arity and variable index\")\n",
        "",
    ),
    (
        "monomial_exponents_truncated_by_int", L,
        "t = int_tuple(exponents, \"exponents\")",
        "t = tuple(map(int, exponents))",
    ),
    (
        "term_exponents_truncated_by_int", L,
        "acc ^= {int_tuple(t, \"exponents\")}",
        "acc ^= {tuple(map(int, t))}",
    ),
    (
        "shift_exponents_truncated_by_int", L,
        "mm = int_tuple(m, \"exponents\")",
        "mm = tuple(map(int, m))",
    ),
    (
        # the one integer rule: 2.5 reads as 2 at every entry point
        "integer_rule_truncates_by_int", G,
        "        return tuple(map(operator.index, values))\n",
        "        return tuple(map(int, values))\n",
    ),
    (
        "entropy_guard_dropped", C,
        "    if args.box >= 1:\n        windows_mod.guarded_site_count(",
        "    if False:\n        windows_mod.guarded_site_count(",
    ),
    (
        "site_guard_refuses_max_sites", W,
        "        if n > max_sites:\n",
        "        if n >= max_sites:\n",
    ),
    (
        "verify_constructs_before_the_site_guard", R,
        "    windows_mod.guarded_site_count(itertools.repeat(box_size, d), max_sites)\n",
        "",
    ),
    (
        # the decoder's RecursionError reaches main as a RuntimeError: exit 1
        "over_nested_json_read_as_a_verification_failure", C,
        "        try:\n"
        "            data = json.load(fh)\n"
        "        except RecursionError:\n",
        "        data = json.load(fh)\n"
        "        if False:\n",
    ),
    (
        "render_drops_the_file_newline", C,
        "                fh.write(text + \"\\n\")\n",
        "                fh.write(text)\n",
    ),
    (
        "render_swaps_json_and_text", C,
        "        if args.json:\n            text = json.dumps(",
        "        if not args.json:\n            text = json.dumps(",
    ),
    (
        # a command's lone parser runs the command with arguments it left over
        "leftover_arguments_kept_by_the_lone_parser", C,
        "        if not rest:\n            return args\n",
        "        return args\n",
    ),
    (
        "lone_parser_without_its_prog", C,
        '        parser = argparse.ArgumentParser(prog=f"starshift {command.name}")\n',
        "        parser = argparse.ArgumentParser()\n",
    ),
    (
        "construct_takes_max_sites", C,
        '"construct", "print the standard code pair for a dimension", cmd_construct, (_DIMENSION,)\n',
        '"construct", "print the standard code pair for a dimension", cmd_construct, (_DIMENSION,),'
        " max_sites=True\n",
    ),
    (
        "sample_drops_max_sites", C,
        '        (_CODEFILE, _arg("--box", type=int, default=2, help="box side length (default 2)"),'
        " _SEED),\n        max_sites=True,\n",
        '        (_CODEFILE, _arg("--box", type=int, default=2, help="box side length (default 2)"),'
        " _SEED),\n",
    ),
    (
        "memory_error_escapes", C,
        "    except MemoryError:\n",
        "    except ZeroDivisionError:\n",
    ),
    (
        "construct_pair_guard_dropped", R,
        "    if bits > MAX_PAIR_BITS:\n",
        "    if False:\n",
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tier1(tree: Path, timeout: float | None) -> tuple[str, str]:
    """("passed" | "failed" | "timeout", first failing test) of Tier-1 in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # a session of its own, so that a timeout also stops the processes the
    # CLI tests start, which a looping mutant would otherwise leave running
    proc = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    finally:
        # nothing of the run may outlive it, on any exit
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode == 0:
        return "passed", ""
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.MULTILINE)
    return "failed", failed.group(1) if failed else f"exit code {proc.returncode}"


def _stop(signum, frame) -> None:
    # an exception, so that _tier1's finally kills the current run's process
    # group and the temporary directory is removed on the way out
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    with tempfile.TemporaryDirectory(prefix="starshift-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        start = time.perf_counter()
        status, first = _tier1(base, None)
        if status != "passed":
            print(f"unmutated Tier-1 fails ({first}); no mutant can be judged", file=sys.stderr)
            return 2
        timeout = 5 * (time.perf_counter() - start) + 30
        results = []
        for name, file, old, new in MUTANTS:
            tree = Path(tmp) / name
            _copy(tree)
            path = tree / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {file}",
                      file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new), encoding="utf-8")
            status, first = _tier1(tree, timeout)
            verdict = "survived" if status == "passed" else "killed"
            by = "timeout" if status == "timeout" else first
            results.append({"name": name, "file": file, "verdict": verdict, "by": by})
            print(f"{verdict:8} {name} {by}")
            shutil.rmtree(tree)
    record = {"hypothesis_seed": HYPOTHESIS_SEED, "mutants": results}
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    survivors = [r["name"] for r in results if r["verdict"] == "survived"]
    if survivors:
        print(f"survived: {', '.join(survivors)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
