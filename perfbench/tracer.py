"""Per-layer spans, recorded from outside the package.

The tracer replaces module attributes of eventorsion with wrappers.  The
package calls these functions through their module attributes (for example
`classifier.full_report` calls `_curve.order`, and `intmath.divisors` calls
the module-global `factorization`), so the wrappers see every internal call
without any change to the package.  Each call records one span: name, start,
end, parent span and curve id, kept in flat arrays and written out when the
repetition ends.  An untraced repetition installs nothing.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable

# (module, attribute) pairs replaced by a traced repetition.
PATCHED = (
    ("curve", "normalize"),
    ("curve", "order"),
    ("classifier", "classify"),
    ("classifier", "check_case_i"),
    ("classifier", "check_case_ii"),
    ("classifier", "check_case_iii"),
    ("classifier", "check_case_iv"),
    ("classifier", "check_case_v"),
    ("classifier", "generator"),
    ("oracle", "torsion_group"),
    ("intmath", "factorization"),
    ("intmath", "squarefree_split"),
    ("family", "sample_case"),
)
CASE_CHECKS = tuple(f"classifier.{attr}" for mod, attr in PATCHED if attr.startswith("check_case"))

# Every layer reported, in report order: the patched functions plus the two
# corpus calls the benchmark makes itself.
LAYERS = tuple(f"{mod}.{attr}" for mod, attr in PATCHED) + ("corpus.encode", "corpus.decode")


def _found(result) -> int:
    return result is not None


def _points(group) -> int:
    return group.order


# Counts taken from a layer's results: witnesses found, oracle points.
RESULT_COUNTS: dict[str, Callable[[object], int]] = {
    **{name: _found for name in CASE_CHECKS},
    "oracle.torsion_group": _points,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("B")
        self.parent = array("q")
        self.curve_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._curve = -1
        self.errors: Counter = Counter()
        self.result_counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """Wrap fn so each call records a span; a root span starts a new curve."""
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        count = RESULT_COUNTS.get(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_of, parent, curve_of, start, end = (
            self.name_of, self.parent, self.curve_of, self.start, self.end
        )

        def traced(*args, **kwargs):
            if root:
                self._curve += 1
            sid = len(start)
            name_of.append(idx)
            parent.append(stack[-1])
            curve_of.append(self._curve)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if count is not None:
                self.result_counts[name] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, attr in PATCHED:
            module = importlib.import_module(f"eventorsion.{mod_name}")
            setattr(module, attr, self.wrap(f"{mod_name}.{attr}", getattr(module, attr)))

    def summary(self) -> dict[str, dict[str, int]]:
        """calls, self time (span minus its direct children) and errors per layer."""
        child_ns = array("q", bytes(8 * len(self.start)))
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        calls, self_ns = Counter(), Counter()
        for sid, idx in enumerate(self.name_of):
            calls[idx] += 1
            self_ns[idx] += self.end[sid] - self.start[sid] - child_ns[sid]
        return {
            name: {"calls": calls[i], "self_ns": self_ns[i], "errors": self.errors[name]}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tcurve\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{names[self.name_of[sid]]}\t{self.parent[sid]}\t"
                    f"{self.curve_of[sid]}\t{self.start[sid]}\t{self.end[sid]}\n"
                )
