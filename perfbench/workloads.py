"""Benchmark workloads: seeded inputs, the per-curve work, and its checks.

Importing this module imports eventorsion, so a repetition that imports it
inside its timed set-up pays for the package import there.

Every workload calls the library functions the CLI front end calls
(`full_report`, `normalize`, `sample_case`, `CorpusRecord`), reaching each
through its module attribute so that a tracer that replaces the attribute
sees the call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import speed
from eventorsion import classifier, corpus, curve, family, intmath

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Captured before a tracer can replace the module attributes: the counts
# read the cache of the real function.
_FACTORIZATION = intmath.factorization

SWEEP_BOX = (30, 30, 15)
ROUNDTRIP_BOX = (60, 60, 30)
# Share of each n-stratum of the roundtrip box that one repetition runs.
ROUNDTRIP_FRACTION = 0.18
FAMILY_BOUNDS = {"I": 8, "II": 10, "III": 11, "IV": 10, "V": 60}
# Cases grouped into parts of similar cost (see Workload.parts).
FAMILY_PARTS = (("II",), ("I", "IV"), ("III", "V"))
# Cases I and III predict a subgroup: the class order is a multiple.
CONTAINMENT_CASES = ("I", "III")

# The fixed pool a large-height seed draws from, one curve per block: the
# slowest 1% of curves sets curve_ms.p99, so the strata group single curves
# of similar cost and every seed gets the same spread of costs.
LARGE_POOL = 4000
LARGE_M = 10**12
LARGE_N = 10**12
LARGE_D = 10**9
WITNESS_LO, WITNESS_HI = 10**5, 10**6

DIGEST_CHARS = 16


class HashRng:
    """Counter-based generator (blake2b of label and counter).

    Unlike `random`, its stream is fixed across Python versions, so a seed
    names the same inputs everywhere.
    """

    def __init__(self, *label: object) -> None:
        self._label = ":".join(str(part) for part in label)
        self._count = 0

    def below(self, bound: int) -> int:
        self._count += 1
        digest = hashlib.blake2b(
            f"{self._label}:{self._count}".encode(), digest_size=16
        ).digest()
        return int.from_bytes(digest, "big") % bound

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def choice(self, items: list):
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def is_squarefree_small(x: int) -> bool:
    """Squarefree test by trial division, for the small values of a box."""
    x = abs(x)
    return all(x % (p * p) for p in range(2, math.isqrt(x) + 1))


def box_rows(m_max: int, n_max: int, d_max: int) -> list[tuple[int, int, list[int]]]:
    """Rows (m, n, Ds) of the normalized box, in the order `eventorsion sweep`
    emits them: |m| <= m_max, 1 <= n <= n_max with gcd(m, n) squarefree, and
    every squarefree 2 <= |D| <= d_max."""
    ds = [d for d in range(-d_max, d_max + 1) if abs(d) >= 2 and is_squarefree_small(d)]
    return [
        (m, n, ds)
        for m in range(-m_max, m_max + 1)
        for n in range(1, n_max + 1)
        if is_squarefree_small(math.gcd(m, n))
    ]


_SMALL_DS = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree_small(d)]


def _large_height_input(rng: HashRng) -> tuple[int, int, int]:
    """One raw (m, n, D): 3/4 uniform, 1/8 case-I and 1/8 case-III witnesses
    with parameters in [10^5, 10^6]."""
    while True:
        kind = rng.below(8)
        if kind < 6:
            m = rng.randint(-LARGE_M, LARGE_M)
            n = rng.randint(1, LARGE_N)
            d = rng.randint(-LARGE_D, LARGE_D)
        elif kind == 6:
            a = rng.randint(WITNESS_LO, WITNESS_HI)
            b = rng.randint(WITNESS_LO, WITNESS_HI)
            if math.gcd(a, b) != 1:
                continue
            d = rng.choice(_SMALL_DS)
            m, n = a * a + b * b * d, 2 * a * b
        else:
            # Case III with b = 1: a^2 - D = c^2.
            a = rng.randint(WITNESS_LO, WITNESS_HI)
            c = rng.randint(WITNESS_LO, WITNESS_HI)
            d = a * a - c * c
            m, n = a * a + 2 * a * c + d, 2 * (a + c)
        # D = 0 or a positive square gives no curve of the family.
        if d == 0 or (d > 0 and math.isqrt(d) ** 2 == d):
            continue
        return m, n, d


def large_height_input(index: int) -> tuple[int, int, int]:
    """Curve `index` of the fixed large-height pool (independent of --seed)."""
    return _large_height_input(HashRng("large-height-pool", index))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def pick_strata(strata: list[list[str]], seed: int, scale: float, label: str) -> list[str]:
    """One block from each stratum (strata group blocks of similar measured
    cost, so every seed gets the same amount of work).  A scale below 1 keeps
    every k-th stratum."""
    step = max(1, round(1 / scale))
    rng = HashRng(label, seed)
    return [rng.choice(group) for group in strata[::step]]


def digest_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[
        :DIGEST_CHARS
    ]


# ---------------------------------------------------------------------------
# The per-curve work.  `ops` holds the benchmark-side calls (a tracer wraps
# them in spans); `stats` collects exact counts and correctness problems.


def encode(report) -> tuple[corpus.CorpusRecord, str]:
    record = corpus.CorpusRecord.from_report(report)
    return record, record.to_line()


def _call(work: Callable, item):
    return work(item)


class Ops:
    """Calls the benchmark makes itself, optionally wrapped in spans."""

    def __init__(self, tracer=None) -> None:
        wrap = tracer.wrap if tracer is not None else (lambda name, fn, **_: fn)
        self.curve = wrap("curve", _call, root=True)
        self.encode = wrap("corpus.encode", encode)
        self.decode = wrap("corpus.decode", corpus.CorpusRecord.from_line)


@dataclass
class Stats:
    probe: speed.Probe = field(default_factory=speed.Probe)
    latencies_ns: list[int] = field(default_factory=list)
    segments: list[int] = field(default_factory=list)  # probe segment of each curve
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def record(self, report, line: str) -> None:
        self.counts[f"class.{report.cls.label}"] += 1
        self.counts["corpus.bytes"] += len(line.encode()) + 1
        if report.oracle_group is not None:
            self.counts["oracle.points"] += report.oracle_group.order

    def measure(self, ops: Ops, work: Callable, item) -> str | None:
        """Run one curve, timing it.  Every input is a valid curve, so a raised
        exception is a failed check; it is counted by type (its latency is
        None) and the run goes on."""
        self.attempted += 1
        self.probe.tick()
        self.segments.append(self.probe.segment)
        t0 = time.perf_counter_ns()
        try:
            line = ops.curve(work, item)
        except Exception as exc:  # any failure of one curve must not end the run
            self.latencies_ns.append(None)
            self.failures[type(exc).__name__] += 1
            self.problem(f"{item!r} raised {type(exc).__name__}: {exc}")
            return None
        self.latencies_ns.append(time.perf_counter_ns() - t0)
        return line


@dataclass
class Block:
    key: str
    expected: str | None  # reference digest of the block's record lines
    items: list


def run_blocks(blocks: list[Block], work: Callable, ops: Ops, stats: Stats) -> None:
    for block in blocks:
        lines = []
        for item in block.items:
            line = stats.measure(ops, work, item)
            lines.append("error" if line is None else line)
        if block.expected is not None and digest_lines(lines) != block.expected:
            stats.problem(f"block {block.key}: record digest differs from the reference")


# ---------------------------------------------------------------------------
# Workloads.  A seed's inputs are split into `parts` of about a second or two
# each; a repetition runs one part, so repetitions stay short.  build() is the
# timed set-up of one part; run() is the timed loop.


class SweepOracle:
    """`eventorsion sweep`: full_report with the oracle, then encoding."""

    name = "sweep-oracle"
    parts = 2

    def build(self, seed: int, scale: float, part: int) -> tuple[list[Block], dict]:
        ref = load_reference()[self.name]
        keys = sorted(
            pick_strata(ref["strata"], seed, scale, self.name),
            key=lambda k: tuple(map(int, k.split(","))),
        )[part :: self.parts]
        rows = {f"{m},{n}": (m, n, ds) for m, n, ds in box_rows(*SWEEP_BOX)}
        blocks = []
        for key in keys:
            m, n, ds = rows[key]
            curves = [curve.CurveMND(m, n, d) for d in ds]
            blocks.append(Block(key, ref["digests"][key], curves))
        curves = sum(len(b.items) for b in blocks)
        return blocks, {"box": list(SWEEP_BOX), "rows": len(blocks), "curves": curves}

    def run(self, blocks: list[Block], ops: Ops, stats: Stats) -> None:
        def work(c):
            report = classifier.full_report(c, with_oracle=True)
            _, line = ops.encode(report)
            stats.record(report, line)
            if report.agree is not True:
                stats.problem(f"{c}: classifier and oracle disagree")
            return line

        run_blocks(blocks, work, ops, stats)


class ClassifyRoundtrip:
    """`sweep` write path plus `verify` read path, without the oracle."""

    name = "classify-roundtrip"
    parts = 2

    def build(self, seed: int, scale: float, part: int) -> tuple[list[Block], dict]:
        rng = HashRng(self.name, seed)
        by_n: dict[int, list] = {}
        for row in box_rows(*ROUNDTRIP_BOX):
            by_n.setdefault(row[1], []).append(row)
        chosen = []
        for n in sorted(by_n):
            rows = by_n[n]
            rng.shuffle(rows)
            chosen += rows[: max(1, round(len(rows) * ROUNDTRIP_FRACTION * scale))]
        chosen = sorted(chosen, key=lambda row: row[:2])[part :: self.parts]
        curves = [curve.CurveMND(m, n, d) for m, n, ds in chosen for d in ds]
        sizes = {"box": list(ROUNDTRIP_BOX), "rows": len(chosen), "curves": len(curves)}
        return [Block("all", None, curves)], sizes

    def run(self, blocks: list[Block], ops: Ops, stats: Stats) -> None:
        def work(c):
            report = classifier.full_report(c)
            record, line = ops.encode(report)
            stats.record(report, line)
            if ops.decode(line) != record:
                stats.problem(f"{c}: decoded record differs from the fresh one")
            return line

        run_blocks(blocks, work, ops, stats)


class Families:
    """sample_case for every case, each sample through full_report with the
    oracle; the seed fixes the order of cases and of samples."""

    name = "families"
    parts = len(FAMILY_PARTS)

    def build(self, seed: int, scale: float, part: int) -> tuple[dict, dict]:
        cases = list(FAMILY_PARTS[part])
        bounds = {case: max(1, round(FAMILY_BOUNDS[case] * scale)) for case in cases}
        rng = HashRng(self.name, seed, part)
        rng.shuffle(cases)
        plan = {"bounds": bounds, "cases": cases, "rng": rng}
        return plan, {"bounds": bounds}

    def run(self, plan: dict, ops: Ops, stats: Stats) -> None:
        samples = []
        for case in plan["cases"]:
            got = family.sample_case(case, plan["bounds"][case])
            stats.counts[f"family.curves.{case}"] = len(got)
            samples += got
        plan["rng"].shuffle(samples)

        def work(s):
            report = classifier.full_report(s.curve, with_oracle=True)
            _, line = ops.encode(report)
            stats.record(report, line)
            if report.agree is not True:
                stats.problem(f"{s.curve}: classifier and oracle disagree")
            want, got = s.predicted.order, report.cls.order
            ok = got % want == 0 if s.case_tag in CONTAINMENT_CASES else got == want
            if not ok:
                stats.problem(f"{s.curve}: case {s.case_tag} predicts Z{want}, found Z{got}")
            return line

        for s in samples:
            stats.measure(ops, work, s)


class LargeHeight:
    """normalize + full_report (no oracle) on 10^12-sized coefficients."""

    name = "large-height"
    parts = 2

    def build(self, seed: int, scale: float, part: int) -> tuple[list[Block], dict]:
        ref = load_reference()[self.name]
        ids = sorted(int(k) for k in pick_strata(ref["strata"], seed, scale, self.name))
        ids = ids[part :: self.parts]
        blocks = [Block(str(i), ref["digests"][str(i)], [large_height_input(i)]) for i in ids]
        return blocks, {"pool": LARGE_POOL, "curves": len(blocks)}

    def run(self, blocks: list[Block], ops: Ops, stats: Stats) -> None:
        def work(item):
            report = classifier.full_report(curve.normalize(*item))
            _, line = ops.encode(report)
            stats.record(report, line)
            return line

        run_blocks(blocks, work, ops, stats)


WORKLOADS = {w.name: w for w in (SweepOracle(), ClassifyRoundtrip(), Families(), LargeHeight())}


def clear_caches() -> None:
    """Start cold, as every CLI invocation does."""
    _FACTORIZATION.cache_clear()
    intmath.is_squarefree.cache_clear()


def cache_counts() -> dict[str, int]:
    info = _FACTORIZATION.cache_info()
    return {"intmath.factorization.cache_hits": info.hits,
            "intmath.factorization.cache_misses": info.misses}
