"""Smoke test of the hooks the benchmark in ``perfbench/`` reads from starshift.

The benchmark wraps module attributes named in ``tracing.BOUNDARIES`` and
empties the caches in ``workloads.CACHED``.  A refactor that renames or
removes one of them makes every benchmark operation fail, which no other
test would notice.  The benchmark files are loaded, never edited.
"""

import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_cached_entries_can_be_inspected_and_cleared():
    for name, fn in workloads.CACHED.items():
        assert callable(getattr(fn, "cache_info", None)), name
        assert callable(getattr(fn, "cache_clear", None)), name


def test_every_boundary_is_a_callable_attribute():
    for mod_name, attr in tracing.BOUNDARIES:
        assert callable(getattr(workloads.MODULES[mod_name], attr, None)), (mod_name, attr)


def test_traced_operations_run_and_are_counted(tmp_path):
    modules = workloads.MODULES
    originals = {(m, a): getattr(modules[m], a) for m, a in tracing.BOUNDARIES}
    path = tmp_path / "report.json"
    tracer = tracing.Tracer(modules)
    tracer.install(0)
    try:
        rc = modules["cli"].main(["verify", "-d", "8", "--samples", "5", "--json", "-o", str(path)])
        windows = modules["windows"]
        space = windows.build_window_space(windows.cube(2, 6), modules["codes"].even_weight_code(2))
        x = windows.sample(space, 1)
        ideal, p = workloads.c4_query(random.Random(0), True)
        member, cofactors, certified = workloads.Algebra.query(ideal, p)
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in originals.items())
    assert rc == 0
    assert json.loads(path.read_text(encoding="utf-8"))["passed"] is True
    assert workloads.even_weight_plane_ok(x.bits, 6)
    assert member and certified
    metrics = tracer.layer_metrics(0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["rigidity.run_full_verification.calls"] == 1
    assert metrics["windows.build_window_space.calls"] >= 3
    assert metrics["windows.sample.calls"] >= 1
    assert metrics["laurent.ideal_contains.calls"] == 1
    assert metrics["laurent.membership_cofactors.calls"] == 1
    assert metrics["laurent.verify_cofactors.calls"] == 1


def test_build_hook_counts_the_rows_the_plan_streams():
    # a space keeps no rows: the hook counts the ones constraint_matrix rebuilds from the plan
    windows = workloads.MODULES["windows"]
    space = windows.build_window_space(windows.cube(2, 6), workloads.MODULES["codes"].even_weight_code(2))
    counts = Counter()
    tracing.Tracer(workloads.MODULES)._note_windows_build_window_space(counts, 0, (), space, True)
    assert counts["windows.build_window_space.rows"] == 25
    assert counts["windows.build_window_space.sites"] == 36
    assert counts["windows.build_window_space.rank"] == 25
    assert counts["windows.build_window_space.free_dim"] == 11
