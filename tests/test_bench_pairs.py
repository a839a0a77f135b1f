"""The pair summary of ``tools/bench_pairs.py`` on a committed benchmark record.

``BENCH_37_verify.json`` holds four alternated parent/change pairs of the
``verify`` workload.  The summary must read every end-to-end metric of
``BENCHMARK.json`` from it and agree with medians, quartiles and wins
worked out here.  The catalogue's copies of the tree hold no ``tools/``,
so there this test skips.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
RECORD = ROOT / "BENCH_37_verify.json"

if not TOOL.exists() or not RECORD.exists():
    pytest.skip("no pair tool or committed record in this tree", allow_module_level=True)

_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _values(records, side, name):
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in records if r["side"] == side}


def test_summary_of_the_committed_verify_record():
    records = bench_pairs.read_records(RECORD)
    rows = bench_pairs.summarize(records, END_TO_END)
    assert [row["name"] for row in rows] == [m["name"] for m in END_TO_END]
    for row, metric in zip(rows, END_TO_END):
        parent = _values(records, "parent", row["name"])
        change = _values(records, "change", row["name"])
        assert row["pairs"] == len(parent) == len(change) == 4
        assert row["parent"][1] == statistics.median(parent.values())
        assert row["change"][1] == statistics.median(change.values())
        assert row["parent"][0] <= row["parent"][1] <= row["parent"][2]
        assert row["wins"] == sum(change[s] < parent[s] for s in parent)
        worse = row["change"][1] - row["parent"][1]
        assert row["within_bound"] == (worse <= metric["bound"] * row["parent"][1])
    cold = rows[[m["name"] for m in END_TO_END].index("cold_s")]
    # the parent's four cold_s runs span an interquartile range of 0.34 ms
    assert round((cold["parent"][2] - cold["parent"][0]) * 1e3, 2) == 0.34
    assert cold["wins"] == 4


def test_summarize_prints_a_line_per_metric_and_the_failures(capsys):
    assert bench_pairs.main(["--summarize", str(RECORD)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[: len(END_TO_END)]] == [m["name"] for m in END_TO_END]
    assert all("within bound" in line for line in out[: len(END_TO_END)])
    assert out[len(END_TO_END)].startswith("parent: 4 runs, attempted [833, 1393, 1379, 1253]")
    assert out[len(END_TO_END) + 1].startswith("change: 4 runs")


def test_running_pairs_needs_every_argument(capsys):
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--workload", "verify"])
    assert info.value.code == 2
    assert "--parent, --workload, --seeds and --pr" in capsys.readouterr().err
