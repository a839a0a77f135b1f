"""One run of one workload, in the fresh interpreter that run.py starts.

With ``--setup-only`` it imports the package, builds the workload's
inputs and prints the monotonic time at which the first operation could
start, with the speed factor its probes give.  Otherwise it then runs passes of the workload until the time
budget is spent and writes a JSON result for run.py to ``--out``.  In a
traced run every second pass runs with span recording on, so that the
traced and untraced wall times come from the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--plant", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", type=Path)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import starshift

    if Path(starshift.__file__).resolve().parent != (src / "starshift").resolve():
        print(f"worker: imported starshift from {starshift.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    out_dir = ROOT / ".perfbench"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small, args.plant, out_dir)
    ready = time.monotonic()
    if args.setup_only:
        scale = workloads.PROBE_REF_S / statistics.median(workloads.probe() for _ in range(5))
        print(json.dumps({"ready": ready, "scale": scale}))
        return 0

    tracer = Tracer(workloads.MODULES) if args.trace else None
    gauge = workloads.Gauge()
    gauge.start()
    min_passes = max(workload.min_passes, 2 if tracer else 1)
    logs: list[tuple[bool, workloads.PassLog]] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(logs) % 2 == 1
        log = workloads.PassLog(gauge, tracer if traced else None)
        if traced:
            tracer.install(len(logs))
        began = time.perf_counter()
        try:
            workload.run_pass(log)
        finally:
            if traced:
                tracer.uninstall()
        log.clear_caches()
        logs.append((traced, log))
        elapsed = time.perf_counter() - start
        if len(logs) >= min_passes and elapsed + (time.perf_counter() - began) > args.seconds:
            break

    gauge.stop()

    plain = [log for traced, log in logs if not traced]
    slots, _ = workload.metrics(plain, "times")
    slots["wall_s"] = statistics.median(log.wall("times") for log in plain)
    slots["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, named = workload.metrics(plain, "measured")
    scale = workloads.PROBE_REF_S / statistics.fmean(gauge.samples)
    result = {
        "ready": ready,
        "passes": len(logs),
        "attempted": sum(log.attempted for _, log in logs),
        "failed": sum(log.failed for _, log in logs),
        "failures": [f"pass {i}: {kind}: {msg}" for i, (_, log) in enumerate(logs) for _, kind, msg in log.failures][:20],
        "scale": scale,
        "metrics": slots,
        "named": {k: {"values": v, "unit": u} for k, (v, u) in named.items()},
        "wall_s": [log.wall("measured") for log in plain],
    }
    if tracer is not None:
        layers = []
        for i, (traced, log) in enumerate(logs):
            if traced:
                layer = tracer.layer_metrics(i)
                layer.update(log.cache_counts)
                layer.update(log.extra)
                layers.append(layer)
        keys = sorted({k for layer in layers for k in layer})
        result["layers"] = {k: statistics.median(layer.get(k, 0.0) for layer in layers) for k in keys}
        traced_wall = statistics.median(log.wall("times") for traced, log in logs if traced)
        result["layers"]["trace.overhead_ratio"] = traced_wall / slots["wall_s"]
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
