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
        "    for mv, s in reversed(moves):\n",
        "    for mv, s in moves:\n",
    ),
    (
        "compress_without_initial_mask", W,
        "    x &= mask\n    for mv, s in moves:\n",
        "    for mv, s in moves:\n",
    ),
    (
        "moves_without_full_truncation", W,
        "    zeros = ~mask << 1 & ((1 << n) - 1)\n",
        "    zeros = ~mask << 1\n",
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
        "parities_eliminate_the_rows_again", W,
        "        return _PivotParities(*gf2.back_substitute(self.echelon), self.site_count)\n",
        "        return _PivotParities(*gf2.reduced_rows(self.constraint_matrix.rows), self.site_count)\n",
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
        "heavy_rows_dropped", W,
        "            for k, part in self.heavy:\n"
        "                parities |= ((part & mask).bit_count() & 1) << k\n",
        "",
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
        # row k is selected by the mask's bit free_dim - 1 - k
        "kernel_row_draw_reads_the_mask_forwards", W,
        "format(mask, spec)[::-1].encode()",
        "format(mask, spec).encode()",
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
        "box_hash_of_lower_only", W,
        "        return hash((self.lower, self.upper))\n",
        "        return hash((self.lower,))\n",
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
        "bits.bit_length() > self.box.site_count",
        "bits.bit_length() >= self.box.site_count",
    ),
    (
        "bits_type_check_dropped", W,
        "if not isinstance(bits, int) or bits < 0",
        "if bits < 0",
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
        "        if (y is not box and y != box) or (z is not box and z != box):\n",
        "        if y is not box and y != box:\n",
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
        # a map that replaces x or y is compared against t's shifted x and y
        "equivariance_reuses_a_replaced_component", R,
        "                    shifted.x if image.x is t.x else windows_mod.shift_restrict(image.x, m),\n"
        "                    shifted.y if image.y is t.y else windows_mod.shift_restrict(image.y, m),\n",
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
