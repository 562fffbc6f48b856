"""Forward direction: sample witness tuples per case and emit labeled curves.

`sample_case` walks one witness class's `lattice` (its parameters up to a
bound, with a squarefree D != 1 enumerated or derived from them; each
case's D derivation is in its `lattice` docstring) and keeps the tuples
whose witness satisfies the class's side conditions (`holds`, which also
keep n nonzero: case III's a + c = 0 would need b^2*D = 0); the witness
is the predicted class and gives (m, n).  A sample is that witness and its
normalized curve; `classifier.full_report` builds the curve's generator
and checks its order.  Tuples normalizing to a previously emitted curve are
deduplicated; output is sorted by (m, n, D) so the order is canonical.
`sweep_curves` enumerates every normalized curve of a box instead.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from . import curve as _curve
from . import intmath
from .classifier import CASES, Witness
from .curve import CurveMND


class FamilySample(NamedTuple):
    """A case witness and its normalized curve; the witness is the predicted
    class and carries its tag."""

    predicted: Witness
    curve: CurveMND

    @property
    def case_tag(self) -> str:
        return self.predicted.tag


def sample_case(case_tag: str, bound: int) -> list[FamilySample]:
    """Deterministically enumerate (witness, normalized curve) samples with
    |params| <= bound; cases I, III and IV also enumerate |D| <= 2*bound."""
    case = CASES.get(case_tag)
    if case is None:
        raise ValueError(f"unknown case tag {case_tag!r}")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    out: dict[tuple[int, int, int], FamilySample] = {}
    for witness, d in case.lattice(bound):
        if not witness.holds(d):
            continue
        m, n = witness.curve_mn(d)
        cur = _curve.normalize(m, n, d)
        key = (cur.m, cur.n, cur.D)
        if key not in out:
            out[key] = FamilySample(witness, cur)
    return sorted(out.values(), key=lambda s: (s.curve.m, s.curve.n, s.curve.D))


def sweep_curves(m_max: int, n_max: int, d_max: int) -> Iterator[CurveMND]:
    """All normalized (m, n, D) with |m| <= m_max, 1 <= n <= n_max, and
    2 <= |D| <= d_max squarefree, in lexicographic (m, n, D) order."""
    ds = [d for d in range(-d_max, d_max + 1) if abs(d) >= 2 and intmath.is_squarefree(d)]
    for m in range(-m_max, m_max + 1):
        for n in range(1, n_max + 1):
            if not intmath.is_squarefree(math.gcd(m, n)):
                continue
            # n >= 1, each d is squarefree with |d| >= 2, and gcd(m, n)
            # passed the test above.
            for d in ds:
                yield CurveMND._normalized(m, n, d)
