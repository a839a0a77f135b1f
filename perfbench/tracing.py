"""Span recording around the public functions of starshift, from outside.

The library looks its collaborators up as module attributes at call time
(``gf2.kernel_basis``, ``windows_mod.shift_restrict``, ...), so replacing
those attributes with recording wrappers sees every call that goes
through them.  Calls through names bound by ``from ... import``, through
private helpers, or through methods are invisible; ``record.json`` lists
them.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# One entry per traced boundary: (module name, attribute).  The span name
# is "<module>.<attribute>".
BOUNDARIES = (
    ("gf2", "echelon_pivots"),
    ("gf2", "reduced_rows"),
    ("gf2", "kernel_basis"),
    ("windows", "build_window_space"),
    ("windows", "sample"),
    ("windows", "sample_with"),
    ("windows", "contains"),
    ("windows", "shift_restrict"),
    ("windows", "entropy_profile"),
    ("codes", "is_integrally_nondegenerate"),
    ("codes", "codewords_by_weight"),
    ("codes", "nondegeneracy_witness"),
    ("laurent", "mixing_certificate"),
    ("laurent", "ideal_contains"),
    ("laurent", "membership_cofactors"),
    ("laurent", "verify_cofactors"),
    ("rigidity", "construct_system"),
    ("rigidity", "verify_premises"),
    ("rigidity", "verify_dynamics"),
    ("rigidity", "non_affine_witness"),
    ("rigidity", "exhaustive_toy_report"),
    ("rigidity", "run_full_verification"),
    ("cli", "main"),
)

# Sampled checks of verify_dynamics; the other checks of its report come
# from exhaustive_toy_report, which has a span of its own.
_SAMPLED_CHECKS = (
    "involution_on_samples",
    "constraint_preservation_on_samples",
    "equivariance_on_samples",
)


class Tracer:
    """Installs recording wrappers and turns their spans into layer metrics.

    A span is ``[name, start, end, parent, op_id, pass_index]`` with times
    from ``time.perf_counter``; ``parent`` is the index of the enclosing
    span or -1.  Counts gathered from arguments and results are kept per
    pass next to the spans.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.timed_ms: dict[int, float] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op_id = 0
        self.pass_index = -1

    def install(self, pass_index: int) -> None:
        self.pass_index = pass_index
        for mod_name, attr in BOUNDARIES:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, self.op_id, self.pass_index]
            self.spans.append(span)
            self._stack.append(index)
            counts = self.counts[self.pass_index]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                counts[name + ".calls"] += 1
            if note is not None:
                fresh = cache_info is None or cache_info().misses > misses
                note(counts, index, args, result, fresh)
            return result

        return wrapper

    # Count hooks, named after the span they annotate.

    def _note_gf2_kernel_basis(self, counts, index, args, result, fresh):
        counts["gf2.kernel_basis.rows_in"] += args[0].num_rows

    def _note_windows_build_window_space(self, counts, index, args, space, fresh):
        counts["windows.build_window_space.sites"] += space.site_count
        counts["windows.build_window_space.rows"] += space.constraint_matrix.num_rows
        counts["windows.build_window_space.rank"] += space.rank
        counts["windows.build_window_space.free_dim"] += space.site_count - space.rank

    def _note_codes_codewords_by_weight(self, counts, index, args, result, fresh):
        # words materialised: only a cache miss enumerates, 2^dim of them
        if fresh:
            counts["codes.codewords_by_weight.words"] += 1 << args[0].dim

    def _note_laurent_ideal_contains(self, counts, index, args, result, fresh):
        counts["laurent.ideal_contains.members"] += bool(result)

    def _note_rigidity_verify_dynamics(self, counts, index, args, report, fresh):
        self.timed_ms[index] = sum(c.millis for c in report.checks if c.name in _SAMPLED_CHECKS)

    def layer_metrics(self, pass_index: int) -> dict[str, float]:
        """Self times (ms), counts and derived ratios of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_index]
        child_ms: dict[int, float] = defaultdict(float)
        toy_ms: dict[int, float] = defaultdict(float)
        for _, (name, start, end, parent, _op, _p) in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
                if name == "rigidity.exhaustive_toy_report":
                    toy_ms[parent] += (end - start) * 1000.0
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op, _p) in spans:
            span_ms = (end - start) * 1000.0
            out[name + ".self_ms"] += span_ms - child_ms[i]
            if i in self.timed_ms:
                # set-up work of verify_dynamics outside every timed check
                out[name + ".untimed_ms"] += span_ms - self.timed_ms[i] - toy_ms[i]
        counts = self.counts[pass_index]
        out.update(counts)
        calls = counts["laurent.ideal_contains.calls"]
        if calls:
            out["laurent.member_ratio"] = counts["laurent.ideal_contains.members"] / calls
        return dict(out)

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op_id", "pass")
        return [dict(zip(keys, s)) for s in self.spans]
