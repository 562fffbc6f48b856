"""eventorsion benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each one is there):
  sweep-oracle        what `eventorsion sweep` does, on rows of the (30, 30, 15) box
  classify-roundtrip  full_report, encode, decode, compare, on the (60, 60, 30) box
  families            sample_case I-V at fixed bounds, every sample with the oracle
  large-height        normalize + full_report on |m|, n <= 10^12, |D| <= 10^9

Each repetition runs in a fresh single-threaded process (rep.py), so the
package import and the `intmath` caches start cold, as in a CLI call.  The
seed fixes the inputs, which are split into a few parts of a second or two;
a round runs every part once, and rounds repeat until --seconds have passed
(at least three rounds; with --trace 1, at least two, each part run once
untraced and once traced on the same inputs, which of the two goes first
alternating by round).  Every repetition of a part
gets the same inputs, so its exact counts (classes, case hits, oracle
points, cache hits and misses, corpus bytes) must repeat bit for bit, and
the run checks that they do.

Other work on the host slows this machine by up to 2x, in phases from a
second to over a minute long, so each repetition also samples how fast the
machine runs Python while it runs (speed.py) and scales every time it
measures to a machine of fixed speed.  The scaled times are the metrics;
each is the median over the repetitions.  curves_per_s is the whole input's
curves over the sum of each part's median scaled loop; each curve's latency
is its median scaled latency over the repetitions that ran it, from which
curve_ms.p50 and curve_ms.p99 are taken; setup_s (package import plus
building one part's inputs) and peak_rss_mb are medians over the run's
processes, with processes that only set up added until SETUP_SAMPLES have.  The raw (unscaled) figures are printed too and kept in the
result file.

Every output is checked: oracle agreement, family predictions, the
encode/decode round trip, and the record digests of sweep-oracle and
large-height against reference.json (made by make_reference.py from the
CLI's own output).  Every input is a valid curve, so a curve that raises
is a failed check too; it is counted by exception type and the run goes on.
A failed check exits 1 and reports no metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
metrics and the tracing overhead.  The full result, with the run's context,
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import CASE_CHECKS, LAYERS  # noqa: E402  (stdlib only)

WORKLOADS = ("sweep-oracle", "classify-roundtrip", "families", "large-height")
MIN_ROUNDS = {0: 3, 1: 2}
# Every run must end well inside 180 s, whatever --seconds says.
HARD_LIMIT_S = 150
# setup_s is the median over at least this many processes; when the rounds
# started fewer, processes that only set up (and exit) make up the rest.
SETUP_SAMPLES = 25
TAIL_QUANTILE = 0.99
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "curves_per_s": "1/s",
    "curve_ms.p50": "ms",
    "curve_ms.p99": "ms",
    "peak_rss_mb": "MB",
}
CLASSES = ("Z2", "Z4", "Z6", "Z8", "Z10", "Z12")
CASES = ("I", "II", "III", "IV", "V")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_share"] = "%"
        units[f"{layer}.errors"] = "count"
    for check in CASE_CHECKS:
        units[f"{check}.hit_ratio"] = "ratio"
    units["oracle.torsion_group.points"] = "count"
    units["intmath.factorization.cache_hit_ratio"] = "ratio"
    units["intmath.factorization.cache_hits"] = "count"
    units["intmath.factorization.cache_misses"] = "count"
    for case in CASES:
        units[f"family.sample_case.curves.{case}"] = "count"
    units["corpus.bytes"] = "B"
    for label in CLASSES:
        units[f"classifier.class.{label}"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


class BenchError(RuntimeError):
    """The benchmark could not run (no package, a repetition crashed)."""


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def run_rep(args, part: int, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    spans = OUT / f"spans-{args.workload}-part{part}.tsv" if traced else None
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "part": part,
        "traced": traced,
        "spans": str(spans) if spans else None,
        "setup_only": setup_only,
    }
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_reps(args) -> tuple[list[dict], list[dict], list[dict]]:
    """Rounds of repetitions, one per part, until --seconds have passed.  With
    --trace 1 each part runs untraced and traced in every round, and the two
    kinds take turns at running first.  With --trace 0, set-up-only processes
    follow until SETUP_SAMPLES processes have set up."""
    plain, traced = [], []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    rounds, parts = 0, 1
    while True:
        round_start = time.monotonic()
        kinds = ((False, True), (True, False))[rounds % 2] if args.trace else (False,)
        part = 0
        while part < parts:
            for kind in kinds:
                rep = run_rep(args, part, kind, deadline)
                rep["round"] = rounds
                (traced if kind else plain).append(rep)
                parts = rep["parts"]
            part += 1
        rounds += 1
        now = time.monotonic()
        round_s = now - round_start
        if now + round_s > deadline:
            break
        if rounds >= MIN_ROUNDS[args.trace] and now + round_s > start + args.seconds:
            break
    setups = []
    while not args.trace and len(plain) + len(setups) < SETUP_SAMPLES:
        setups.append(run_rep(args, len(setups) % parts, False, deadline, setup_only=True))
    return plain, traced, setups


def by_part(reps: list[dict]) -> list[list[dict]]:
    groups: dict[int, list[dict]] = {}
    for rep in reps:
        groups.setdefault(rep["part"], []).append(rep)
    return [groups[p] for p in sorted(groups)]


def completed(rep: dict) -> int:
    return sum(ns is not None for ns in rep["latencies_ns"])


def total_counts(plain: list[dict]) -> dict[str, int]:
    """Exact counts of the whole input: one repetition of each part, summed."""
    total: dict[str, int] = {}
    for reps in by_part(plain):
        for name, value in reps[0]["counts"].items():
            total[name] = total.get(name, 0) + value
    return total


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(quantile used, value): the p99, or the highest quantile that still
    has TAIL_MIN_BEYOND samples beyond it (the median if none has)."""
    n = len(values)
    q = TAIL_QUANTILE
    if n - math.ceil(q * n) < TAIL_MIN_BEYOND:
        q = max(0.5, (n - TAIL_MIN_BEYOND) / n)
    return q, nearest_rank(values, q)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def determinism_problems(plain: list[dict], traced: list[dict]) -> list[str]:
    """Exact counts must repeat in every repetition of a part, traced or not."""
    problems = []
    for reps in by_part(plain + traced):
        part, ref = reps[0]["part"], reps[0]["counts"]
        for rep in reps[1:]:
            if rep["counts"] != ref:
                problems.append(f"part {part}: exact counts differ: {rep['counts']} != {ref}")
    for reps in by_part(traced):
        part, first = reps[0]["part"], reps[0]
        calls = {k: (v["calls"], v["errors"]) for k, v in first["layers"].items()}
        for rep in reps[1:]:
            if {k: (v["calls"], v["errors"]) for k, v in rep["layers"].items()} != calls:
                problems.append(f"part {part}: traced layer call counts differ")
            if rep["result_counts"] != first["result_counts"]:
                problems.append(f"part {part}: traced case hits or oracle points differ")
        points = first["result_counts"].get("oracle.torsion_group", 0)
        if points != first["counts"].get("oracle.points", 0):
            problems.append(f"part {part}: traced oracle points {points} differ from the records")
    return problems


def end_to_end(plain: list[dict], setups: list[dict], scaled: bool = True) -> tuple[dict, dict]:
    """Medians over the repetitions of each part, which run the same curves in
    the same order, and setup_s over every process that set up; with
    scaled=False the raw times."""
    groups = by_part(plain)
    key = "scaled_" if scaled else ""
    latencies = []
    for reps in groups:
        for samples in zip(*(rep[key + "latencies_ns"] for rep in reps)):
            ok = [ns / 1e6 for ns in samples if ns is not None]
            if ok:
                latencies.append(statistics.median(ok))
    if not latencies:
        raise BenchError("no curve completed")
    latencies.sort()
    q, p_tail = tail_percentile(latencies)
    loop_s = sum(statistics.median(rep[key + "loop_s"] for rep in reps) for reps in groups)
    values = {
        "setup_s": statistics.median(rep[key + "setup_s"] for rep in plain + setups),
        "curves_per_s": sum(completed(reps[0]) for reps in groups) / loop_s,
        "curve_ms.p50": nearest_rank(latencies, 0.5),
        "curve_ms.p99": p_tail,
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] / 1024 for rep in plain),
    }
    n, k = len(latencies), min(len(reps) for reps in groups)
    notes = {
        "setup_s": f"median of {len(plain) + len(setups)} processes",
        "curves_per_s": f"all {len(groups)} parts, each the median of >= {k} repetitions",
        "curve_ms.p50": f"n={n} curves, each the median of >= {k} repetitions",
        "curve_ms.p99": f"n={n}, quantile={q:.4f}, beyond={n - math.ceil(q * n)}",
        "peak_rss_mb": f"median of {len(plain)} processes",
    }
    return values, notes


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Calls and hits from one traced repetition of each part; scaled self
    times, each the median over a part's traced repetitions."""
    groups = by_part(traced)
    firsts = [reps[0] for reps in groups]
    loop_s = sum(statistics.median(rep["scaled_loop_s"] for rep in reps) for reps in groups)

    def layer_sum(reps, layer, key):
        return sum(rep["layers"].get(layer, {}).get(key, 0) for rep in reps)

    def self_seconds(layer):
        return sum(
            statistics.median(
                rep["layers"].get(layer, {}).get("self_ns", 0) / 1e9 * rep["scaled_loop_s"]
                / rep["loop_s"]
                for rep in reps
            )
            for reps in groups
        )

    def hit_sum(name):
        return sum(rep["result_counts"].get(name, 0) for rep in firsts)

    values, self_s = {}, {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = layer_sum(firsts, layer, "calls")
        values[f"{layer}.errors"] = layer_sum(firsts, layer, "errors")
        self_s[layer] = self_seconds(layer)
        values[f"{layer}.self_share"] = 100 * self_s[layer] / loop_s
    for check in CASE_CHECKS:
        calls = values[f"{check}.calls"]
        values[f"{check}.hit_ratio"] = hit_sum(check) / calls if calls else 0.0
    values["oracle.torsion_group.points"] = hit_sum("oracle.torsion_group")
    counts = total_counts(plain)
    cache_hits = counts["intmath.factorization.cache_hits"]
    cache_misses = counts["intmath.factorization.cache_misses"]
    looked_up = cache_hits + cache_misses
    values["intmath.factorization.cache_hit_ratio"] = cache_hits / looked_up if looked_up else 0.0
    values["intmath.factorization.cache_hits"] = cache_hits
    values["intmath.factorization.cache_misses"] = cache_misses
    for case in CASES:
        values[f"family.sample_case.curves.{case}"] = counts.get(f"family.curves.{case}", 0)
    values["corpus.bytes"] = counts.get("corpus.bytes", 0)
    for label in CLASSES:
        values[f"classifier.class.{label}"] = counts.get(f"class.{label}", 0)
    values["trace.overhead_pct"] = trace_overhead_pct(plain, traced)
    return values, self_s


def trace_overhead_pct(plain: list[dict], traced: list[dict]) -> float:
    """Median, over the (round, part) pairs, of the traced loop's scaled time
    over the untraced one's: the two ran back to back on the same inputs."""
    untraced = {(rep["round"], rep["part"]): rep["scaled_loop_s"] for rep in plain}
    ratios = [rep["scaled_loop_s"] / untraced[rep["round"], rep["part"]] for rep in traced]
    return 100 * (statistics.median(ratios) - 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the inputs of a repetition (0 < scale <= 1; the smoke test uses it)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1 or not 0 < args.scale <= 1:
        parser.error("--seconds must be >= 1 and --scale in (0, 1]")

    package = ROOT / "src" / "eventorsion"
    if not (package / "__init__.py").is_file():
        print(f"error: package source {package} not found", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        plain, traced, setups = run_reps(args)
        attempted = sum(rep["attempted"] for rep in plain + traced)
        done = sum(map(completed, plain + traced))
        failures: dict[str, int] = {}
        for rep in plain + traced:
            for name, count in rep["failures"].items():
                failures[name] = failures.get(name, 0) + count
        problems = [p for rep in plain + traced for p in rep["problems"]]
        problems += determinism_problems(plain, traced)
        if args.trace:
            metrics, self_s = per_layer(plain, traced)
            units, notes, raw = per_layer_units(), {}, {}
        else:
            metrics, notes = end_to_end(plain, setups)
            raw, _ = end_to_end(plain, setups, scaled=False)
            units, self_s = END_TO_END_UNITS, {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ctx = context(args)
    ctx["sizes"] = [reps[0]["sizes"] for reps in by_part(plain)]
    ctx["repetitions"] = {"untraced": len(plain), "traced": len(traced), "setup_only": len(setups)}
    correct = not problems
    failed = attempted - done
    print("context " + json.dumps(ctx))
    print(f"failed_frac {failed / attempted} ({failed}/{attempted}) failures={json.dumps(failures)}")
    counts = total_counts(plain)
    print("exact_counts " + json.dumps(counts, sort_keys=True))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if correct:
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} {value} {units[name]}{note}")
        for name, value in raw.items():
            print(f"raw {name} {value} {units[name]}  (unscaled)")
        for layer, seconds in self_s.items():
            print(f"self_s {layer} {seconds:.6f} s")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        } if correct else {},
    }
    reps = [
        {key: rep[key] for key in ("round", "part", "setup_s", "scaled_setup_s", "loop_s",
                                   "scaled_loop_s", "slices", "peak_rss_kb")}
        | {"traced": kind, "completed": completed(rep)}
        for kind, group in ((False, plain), (True, traced)) for rep in group
    ]
    record = dict(result, context=ctx, failures=failures, notes=notes, raw=raw, repetitions=reps,
                  setup_only=setups,
                  self_s=self_s, exact_counts=counts, problems=problems[:20])
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
