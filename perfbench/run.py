"""Benchmark of the starshift package: one workload per call.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload itself runs in a fresh interpreter (worker.py) so
that its caches and peak memory belong to it alone, and ``setup_s`` is the
median time from starting such an interpreter to the moment its first
operation could begin, over several starts.  Every time in the JSON line
is scaled to reference speed by the probe gauge of workloads.py.

With ``--trace 0`` the last line of output is a JSON object carrying every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries every
per-layer metric instead.  The lines before it repeat the figures as
measured, unscaled, by the names the workloads give them, with quartiles
and sample counts.  The exit
code is 0 when every output check passed and 1 otherwise.  ``--small``
shrinks every workload to a few seconds, and ``--plant`` plants one wrong
answer in what the checks see; selftest.py uses both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 7
RUN_TIMEOUT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify", "planar", "algebra"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true", help="shrink every workload to seconds")
    p.add_argument("--plant", action="store_true", help="plant one wrong answer")
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "starshift" / "__init__.py").is_file():
        print(f"perfbench: no starshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}.json"
    result_path.unlink(missing_ok=True)

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    worker += ["--small"] * args.small + ["--plant"] * args.plant

    # The first start compiles bytecode for every later one and is not timed.
    setups = []
    for k in range(SETUP_STARTS + 1):
        began = time.monotonic()
        proc = subprocess.run(worker + ["--setup-only"], env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            print(f"perfbench: worker set-up failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        if k:
            start = json.loads(proc.stdout.splitlines()[-1])
            setups.append((start["ready"] - began, start["scale"]))

    began = time.monotonic()
    try:
        proc = subprocess.run(worker + ["--out", str(result_path)], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload ran past {RUN_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(f"perfbench: worker exited {proc.returncode} without a result", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    setups.append((result["ready"] - began, result["scale"]))
    measured = dict(result["metrics"], setup_s=statistics.median(t * scale for t, scale in setups))

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}  trace {args.trace}")
    print(f"  measured figures, before scaling by the run's speed factor {result['scale']:.4g}:")
    q1, q2, q3 = quartiles([t for t, _ in setups])
    print(f"  setup_s              {q2:12.6g} s      quartiles {q1:.6g}..{q3:.6g}  n={len(setups)} interpreter starts")
    q1, q2, q3 = quartiles(result["wall_s"])
    print(f"  wall_s               {q2:12.6g} s      quartiles {q1:.6g}..{q3:.6g}  n={len(result['wall_s'])} untraced passes")
    for name, entry in result["named"].items():
        q1, q2, q3 = quartiles(entry["values"])
        print(f"  {name:20s} {q2:12.6g} {entry['unit']:6s} quartiles {q1:.6g}..{q3:.6g}  n={len(entry['values'])}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_ratio           {failed / attempted:12.6g}        {failed} of {attempted} ops failed")
    for line in result["failures"]:
        print(f"  FAILED {line}")

    if args.trace:
        layers = result["layers"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print("  reported" + (" per traced pass:" if args.trace else ", scaled to reference speed:"))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
