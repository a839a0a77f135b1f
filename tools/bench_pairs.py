"""Alternated parent/change runs of the benchmark, and their summary.

Run from the root of a source checkout (the change), naming a second
checkout (the parent):

    python3 tools/bench_pairs.py --parent ../parent --workload verify \\
        --seeds 3801-3810 --pr 38
    python3 tools/bench_pairs.py --summarize BENCH_38_verify.json

For each seed the first form runs ``perfbench/run.py --workload W --seed S
--seconds 15 --trace 0`` once in each checkout, the parent first at the
first seed and the order flipped at every seed after it, so neither side
always runs on a machine the other has just warmed.  Each run's last
output line, a JSON object, is appended as soon as it ends to
``BENCH_<pr>_<workload>.json`` in the change's root, one
``{"side", "workload", "seed", "result"}`` object a line, the format of
the committed ``BENCH_*.json`` files.  Then, as ``--summarize`` does for
any such file, it prints for every end-to-end metric of the change's
``BENCHMARK.json``: the parent's median and quartiles, the change's,
the relative change of the medians, how many seeds the change wins, and
whether the change's median stays within the metric's bound, read as a
fraction of the parent's median.  The share of failed operations of
each side and the operations attempted are printed beside them.

Standard library only.  It runs ``perfbench/run.py`` as a program and
never imports or writes anything under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 15
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_records(path: Path) -> list[dict]:
    """The records of a ``BENCH_*.json`` file, one JSON object a line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def summarize(records: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric: both sides' quartiles, the wins and the bound.

    A seed counts as a pair when both sides ran it; the change wins a
    pair when its value is strictly better.  ``within_bound`` holds when
    the change's median is worse than the parent's by at most ``bound``
    times the parent's median.
    """
    by_side = {side: {r["seed"]: r["result"] for r in records if r["side"] == side} for side in SIDES}
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {
            side: [r["metrics"][name]["value"] for r in by_side[side].values()] for side in SIDES
        }
        if not values["parent"] or not values["change"]:
            continue
        wins = 0
        for seed in seeds:
            p = by_side["parent"][seed]["metrics"][name]["value"]
            c = by_side["change"][seed]["metrics"][name]["value"]
            wins += c < p if lower else c > p
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        worse = (change[1] - parent[1]) if lower else (parent[1] - change[1])
        rows.append({
            "name": name,
            "unit": m["unit"],
            "parent": parent,
            "change": change,
            "delta": change[1] / parent[1] - 1 if parent[1] else 0.0,
            "wins": wins,
            "pairs": len(seeds),
            "bound": m["bound"],
            "within_bound": worse <= m["bound"] * abs(parent[1]),
        })
    return rows


def _failures(records: list[dict]) -> list[str]:
    lines = []
    for side in SIDES:
        runs = [r["result"] for r in records if r["side"] == side]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        share = failed / attempted if attempted else 0.0
        checks = sum(1 for r in runs if not r["correct"])
        lines.append(
            f"{side}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
            f"failed {failed} ({share:.2%}), runs with a failed check {checks}"
        )
    return lines


def report(records: list[dict], metrics: list[dict]) -> str:
    """The printed summary of :func:`summarize`, one line per metric."""

    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}..{t[2]:.4g}]"

    lines = []
    for row in summarize(records, metrics):
        lines.append(
            f"{row['name']:<12} {row['unit']:<3} parent {q(row['parent'])}  "
            f"change {q(row['change'])}  {row['delta']:+.1%}  "
            f"wins {row['wins']}/{row['pairs']}  "
            f"within bound {row['bound']}: {'yes' if row['within_bound'] else 'NO'}"
        )
    return "\n".join(lines + _failures(records))


def _end_to_end() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no JSON result from {checkout} (exit {proc.returncode}):\n{proc.stderr}")


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--summarize", type=Path, help="print the summary of a BENCH_*.json file")
    p.add_argument("--parent", type=Path, help="the parent's source checkout")
    p.add_argument("--workload", choices=("verify", "planar", "algebra"))
    p.add_argument("--seeds", type=_seed_range, help="FIRST-LAST, both included")
    p.add_argument("--pr", type=int, help="the number in BENCH_<pr>_<workload>.json")
    args = p.parse_args(argv)
    if args.summarize is not None:
        print(report(read_records(args.summarize), _end_to_end()))
        return 0
    if None in (args.parent, args.workload, args.seeds, args.pr):
        p.error("--parent, --workload, --seeds and --pr are needed to run pairs")
    out = ROOT / f"BENCH_{args.pr}_{args.workload}.json"
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for k, seed in enumerate(args.seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = _run(checkouts[side], args.workload, seed)
            record = {"side": side, "workload": args.workload, "seed": seed, "result": result}
            with out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{side} {args.workload} seed {seed} done", flush=True)
    print(report(read_records(out), _end_to_end()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
