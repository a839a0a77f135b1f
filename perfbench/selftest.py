"""Self-test of the benchmark itself, in small mode; takes well under a minute.

    python3 perfbench/selftest.py

For every workload it checks that a clean run passes every output check,
that a run with one planted wrong answer reports failed operations and
exits nonzero, and that two traced runs with the same seed report the
same counts.  It also checks that the benchmark refuses to run, without a
result line, in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "planar", "algebra")


def run(workload: str, *extra: str, cwd: Path = ROOT, seed: int = 5, trace: int = 0):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--small", *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"] + ["laurent.member_ratio"]
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        rc, res = run(w)
        expect(rc == 0 and res is not None and res["correct"] and res["failed"] == 0, f"{w}: clean run passes")
        rc, res = run(w, "--plant")
        expect(rc != 0 and res is not None and res["failed"] > 0, f"{w}: planted wrong answer fails")
        runs = [run(w, trace=1)[1] for _ in range(2)]
        same = all(r is not None for r in runs) and all(
            runs[0]["metrics"][c]["value"] == runs[1]["metrics"][c]["value"] for c in counts
        )
        expect(same, f"{w}: counts repeat exactly for one seed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, res = run("algebra", cwd=bare)
    expect(rc != 0 and res is None, "refuses to run without the sources")
    shutil.rmtree(bare)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
