"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/spread.py OUT.json

Every workload of BENCHMARK.json runs untraced with seeds 1 to 10, then
once traced with seed 1.  For every workload and end-to-end metric it prints
the median of the ten runs and the spread: the distance between the first
and third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound from BENCHMARK.json.  A spread below a
third of the bound is marked steady, one above the bound unresolved.  Every
value, median, spread and per-layer value goes to OUT.json (the committed
baseline point is perfbench/baseline.json).  Exits 1 if any spread is not
steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return result


SEEDS = range(1, 11)
TRACED_SEED = 1


def verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "within bound" if spread <= bound else "unresolved"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict[str, dict] = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        ctx = json.loads(
            (HERE / "out" / f"result-{workload}-seed{SEEDS[-1]}-trace0.json").read_text()
        )["context"]
        report[workload] = {"seeds": list(SEEDS), "sizes": ctx["sizes"], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            state = verdict(spread, bound)
            steady &= state == "steady"
            report[workload]["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "verdict": state, "unit": runs[0]["metrics"][name]["unit"], "values": values,
            }
            print(f"{workload:20} {name:14} median {median:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound}  {state}", flush=True)
        traced = run(workload, TRACED_SEED, bench["run_seconds"], 1)
        report[workload]["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
    for key in ("workload", "seed", "trace", "sizes", "repetitions"):
        ctx.pop(key)
    args.out.write_text(json.dumps({"context": ctx, "workloads": report}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
