"""Regenerate perfbench/reference.json.

    python3 perfbench/make_reference.py

The reference digests come from the CLI itself: `eventorsion sweep 30 30 15`
for sweep-oracle (one digest per (m, n) row), and `eventorsion classify M N D
--format records` for each large-height pool curve (one digest per curve).
The benchmark recomputes the same records through the library, so a digest
mismatch means the record stream changed.

The script also times each block through the benchmark's own path (median
of three cold passes, scaled by speed.py) and groups blocks of similar cost
into strata; a run takes one block from each stratum, so every seed gets
about the same work.
Only regenerate the file when the record format is meant to change: the
digests are the correctness reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from eventorsion import cli  # noqa: E402

PASSES = 3
STRATUM_SIZE = {"sweep-oracle": 5, "large-height": 4}


def cli_lines(argv: list[str]) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"eventorsion {' '.join(argv)} exited {code}")
    return buf.getvalue().splitlines()


def sweep_blocks() -> list[workloads.Block]:
    rows: dict[str, list[str]] = {}
    for line in cli_lines(["sweep", *map(str, workloads.SWEEP_BOX)]):
        record = json.loads(line)
        rows.setdefault(f"{record['m']},{record['n']}", []).append(line)
    blocks = []
    for m, n, ds in workloads.box_rows(*workloads.SWEEP_BOX):
        key = f"{m},{n}"
        digest = workloads.digest_lines(rows.pop(key))
        blocks.append(workloads.Block(key, digest, [workloads.curve.CurveMND(m, n, d) for d in ds]))
    if rows:
        raise SystemExit(f"sweep emitted rows outside the box: {sorted(rows)[:5]}")
    return blocks


def large_height_blocks() -> list[workloads.Block]:
    blocks = []
    for i in range(workloads.LARGE_POOL):
        m, n, d = workloads.large_height_input(i)
        lines = cli_lines(["classify", str(m), str(n), str(d), "--format", "records"])
        blocks.append(workloads.Block(str(i), workloads.digest_lines(lines), [(m, n, d)]))
    return blocks


def strata(workload, blocks: list[workloads.Block], size: int) -> list[list[str]]:
    """Blocks sorted by median cold cost through the benchmark path, cut into
    groups of `size`.  Also checks the library records against the CLI's."""
    cost = {}
    for block in blocks:
        times = []
        for _ in range(PASSES):
            stats = workloads.Stats()
            workloads.clear_caches()
            stats.probe.start()
            workload.run([block], workloads.Ops(), stats)
            stats.probe.stop()
            times.append(stats.probe.loop_s(scaled=True))
            if stats.problems or stats.failures:
                raise SystemExit(f"block {block.key}: {stats.problems or stats.failures}")
        cost[block.key] = statistics.median(times)
    order = sorted(cost, key=cost.get)
    return [order[i : i + size] for i in range(0, len(order), size)]


def main() -> int:
    reference = {}
    for name, make in (("sweep-oracle", sweep_blocks), ("large-height", large_height_blocks)):
        t0 = time.perf_counter()
        blocks = make()
        workload = workloads.WORKLOADS[name]
        reference[name] = {
            "strata": strata(workload, blocks, STRATUM_SIZE[name]),
            "digests": {block.key: block.expected for block in blocks},
        }
        print(f"{name}: {len(blocks)} blocks in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
