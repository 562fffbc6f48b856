"""Forward direction: sample witness tuples per case and emit labeled curves.

Each sampler enumerates the case's parameters up to a bound, with a
squarefree D != 1 enumerated or derived from them; `sample_case` keeps the
tuples whose witness satisfies its class's side conditions (`holds`) and
gives n != 0, and the witness class gives (m, n), the predicted class and
generator x-coordinate.
Tuples normalizing to a previously emitted curve are deduplicated; output is
sorted by (m, n, D) so the order is canonical.  `sweep_curves` enumerates
every normalized curve of a box instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from . import curve as _curve
from . import intmath
from .classifier import (
    CASES,
    TorsionClass,
    Witness,
    WitnessI,
    WitnessII,
    WitnessIII,
    WitnessIV,
    WitnessV,
)
from .curve import CurveMND

# Cases I, III, IV enumerate D directly; II and V derive D from a squarefree
# split.  The direct range 2*bound keeps small bounds productive (bound 1
# already reaches D = 2).
_D_RANGE_FACTOR = 2


@dataclass(frozen=True)
class FamilySample:
    case_tag: str
    params: Witness
    curve: CurveMND
    predicted: TorsionClass
    predicted_generator_x: int


def _squarefree_ds(limit: int) -> list[int]:
    return [
        d
        for d in range(-limit, limit + 1)
        if d not in (0, 1) and intmath.is_squarefree(d)
    ]


_RawSample = tuple[Witness, int]  # witness, D


def _iter_case_i(bound: int, d_limit: int) -> Iterator[_RawSample]:
    ds = _squarefree_ds(d_limit)
    # Sign flips of (a, b) only swap conjugates or negate n: same curve.
    for a, b in itertools.product(range(1, bound + 1), repeat=2):
        witness = WitnessI(a, b)
        for d in ds:
            yield witness, d


def _iter_case_ii(bound: int, d_limit: int) -> Iterator[_RawSample]:
    for u, v in itertools.product(range(1, bound + 1), repeat=2):
        w, d = intmath.squarefree_split(2 * u * u - v * v)
        if d != 1:
            yield WitnessII(u, v, w), d


def _iter_case_iii(bound: int, d_limit: int) -> Iterator[_RawSample]:
    ds = _squarefree_ds(d_limit)
    # (a, c) -> (-a, -c) negates n only, so a stays positive.
    for a, b in itertools.product(range(1, bound + 1), repeat=2):
        for d in ds:
            r = intmath.int_sqrt(a * a - b * b * d)
            if r:
                yield WitnessIII(a, b, r), d
                yield WitnessIII(a, b, -r), d


def _iter_case_iv(bound: int, d_limit: int) -> Iterator[_RawSample]:
    ds = _squarefree_ds(d_limit)
    # Only u^2, v^2, w^2 enter the constraint and the curve, so positive
    # representatives suffice.
    for u, v, w in itertools.product(range(1, bound + 1), repeat=3):
        witness = WitnessIV(u, v, w)
        for d in ds:
            yield witness, d


def _iter_case_v(bound: int, d_limit: int) -> Iterator[_RawSample]:
    for u in range(1, bound + 1):
        for v in range(-bound, bound + 1):
            if v == 0:
                continue
            # u = +-v gives s = 0, where t^2*D = 0 fixes no D.
            s, rem = divmod((u - v) ** 2 * (u + v), 4 * u * v)
            if rem or s == 0:
                continue
            t, d = intmath.squarefree_split((s + u) ** 2 - v * v)
            if d != 1:
                yield WitnessV(s, t, u, v), d


_CASE_ITERATORS = {
    "I": _iter_case_i,
    "II": _iter_case_ii,
    "III": _iter_case_iii,
    "IV": _iter_case_iv,
    "V": _iter_case_v,
}


def sample_case(
    case_tag: str, bound: int, d_limit: int | None = None
) -> list[FamilySample]:
    """Deterministically enumerate case samples with |params| <= bound.

    d_limit caps |D| for the cases that enumerate D directly (default
    2*bound); cases II and V derive D from the parameters instead.
    """
    if case_tag not in CASES:
        raise ValueError(f"unknown case tag {case_tag!r}")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if d_limit is None:
        d_limit = _D_RANGE_FACTOR * bound
    out: dict[tuple[int, int, int], FamilySample] = {}
    for witness, d in _CASE_ITERATORS[case_tag](bound, d_limit):
        if not witness.holds(d):
            continue
        m, n = witness.curve_mn(d)
        if n == 0:
            continue
        cur = _curve.normalize(m, n, d)
        key = (cur.m, cur.n, cur.D)
        if key in out:
            continue
        gen_x = witness.generator_x(d)
        # Normalization divides (m, n) by e^2; points rescale by the same
        # square, and the image of an integral torsion point stays integral.
        e2 = abs(n) // cur.n
        gx, rem = divmod(gen_x, e2)
        if rem:
            raise AssertionError(
                f"case {case_tag} sample {witness}: generator x {gen_x} "
                f"does not rescale by {e2}"
            )
        out[key] = FamilySample(case_tag, witness, cur, TorsionClass(witness.order, witness), gx)
    return sorted(out.values(), key=lambda s: (s.curve.m, s.curve.n, s.curve.D))


def sweep_curves(m_max: int, n_max: int, d_max: int) -> Iterator[CurveMND]:
    """All normalized (m, n, D) with |m| <= m_max, 1 <= n <= n_max, and
    2 <= |D| <= d_max squarefree, in lexicographic (m, n, D) order."""
    ds = [d for d in range(-d_max, d_max + 1) if abs(d) >= 2 and intmath.is_squarefree(d)]
    for m in range(-m_max, m_max + 1):
        for n in range(1, n_max + 1):
            if not intmath.is_squarefree(math.gcd(m, n)):
                continue
            for d in ds:
                yield CurveMND(m, n, d)
