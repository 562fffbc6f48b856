"""One repetition of a workload, in a fresh process: set up, run, check.

    python3 perfbench/rep.py '{"workload": ..., "seed": ..., "scale": ...,
                               "part": ..., "traced": ..., "spans": PATH or null,
                               "setup_only": ...}'

Runs one part of the seed's inputs and prints one JSON line with the set-up
time, the timed loop and per-curve latencies (null for a curve that raised),
each raw and scaled by speed.py, failures, correctness problems and the exact
counts; with setup_only, only the set-up times.  run.py starts one process
per repetition, so the package import is
measured cold and the process-wide caches of `intmath` start empty, as in a
CLI call.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.  On Linux
    getrusage's ru_maxrss also counts the parent's memory at the time it
    started this process, so VmHWM is read where the system has it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))

    before_s = speed.median_slice_s()
    t0 = time.perf_counter()
    import workloads  # imports eventorsion

    workload = workloads.WORKLOADS[spec["workload"]]
    plan, sizes = workload.build(spec["seed"], spec["scale"], spec["part"])
    setup_s = time.perf_counter() - t0
    setup_factor = speed.setup_factor(before_s, speed.median_slice_s())
    if spec["setup_only"]:
        print(json.dumps({"part": spec["part"], "parts": workload.parts, "setup_s": setup_s,
                          "scaled_setup_s": setup_s * setup_factor}))
        return 0

    tracer = None
    if spec["traced"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.Ops(tracer)
    stats = workloads.Stats()
    probe = stats.probe
    workloads.clear_caches()

    probe.start()
    workload.run(plan, ops, stats)
    probe.stop()
    if threading.active_count() != 1:
        stats.problem("the package started a thread; the speed probe cannot tell it from a slow machine")

    scaled_latencies_ns = [
        None if ns is None else round(ns * probe.factor(seg))
        for ns, seg in zip(stats.latencies_ns, stats.segments)
    ]
    counts = dict(stats.counts)
    counts.update(workloads.cache_counts())
    result = {
        "part": spec["part"],
        "parts": workload.parts,
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * setup_factor,
        "loop_s": probe.loop_s(scaled=False),
        "scaled_loop_s": probe.loop_s(scaled=True),
        "slices": len(probe.slices),
        "latencies_ns": stats.latencies_ns,
        "scaled_latencies_ns": scaled_latencies_ns,
        "attempted": stats.attempted,
        "failures": dict(stats.failures),
        "problems": stats.problems[:20],
        "counts": counts,
        "sizes": sizes,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["result_counts"] = dict(tracer.result_counts)
        if spec["spans"]:
            tracer.write(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
