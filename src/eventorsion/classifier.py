"""Torsion classification by explicit Diophantine criteria, with generators.

Five parametric conditions on (m, n, D) decide the torsion class; each comes
with an explicit generator x-coordinate:

    case I    Z4  is contained:  m = a^2 + b^2*D,  n = 2ab,  gcd(a,b) = 1
    case II   Z8  exactly:       m = u^4 + v^2*w^2*D,  n = 2*u^2*v*w,
                                 2u^2 - v^2 = w^2*D
    case III  Z6  is contained:  m = a^2 + 2ac + b^2*D,  n = 2b(a+c),
                                 a^2 - b^2*D = c^2,  gcd(a,b,c) = 1
    case IV   Z12 exactly:       m = v^2 - u^2 + w^2*D,  n = 2vw,  and
                                 3A^4 - 4u^2*A^2*B - 16u^4*v^2*w^2*D = 0
                                 with A = v^2 - w^2*D, B = v^2 + w^2*D
    case V    Z10 exactly:       m = 2s(s+u) - v^2,  n = 2st,
                                 (s+u)^2 - v^2 = t^2*D,  (u-v)^2*(u+v) = 4uvs

Each case is one witness class carrying its tag, order, label, exact flag,
(m, n) and generator x; `CASES` (tag -> class) is the only registry.  A
torsion class is the witness that decided it: `classify` returns that
witness, and every Z2 curve gets the one parameterless base `Witness()`,
whose tag is None and whose generator is (0, 0).

Each class owns both directions of its parametrization.  Backward,
`candidates(c)` lists its witnesses for a curve: case I solves
q = (a^2 - b^2*D)^2 for a in closed form, case II refines case I's witness,
and cases III-V test one candidate per ascending positive divisor d of n/2
(b for III, v for IV, s for V; negating a III-V witness keeps its curve, and
a case-V witness with u or v < 0 has a positive twin at a smaller s); one
search serves all five checks, so the returned witness is reproducible.
Forward, `lattice(bound)` yields the (witness, D) samples that
`family.sample_case` filters by `holds(d)`, the side conditions.  Every
condition forces n even, so odd n lands in Z2.

`classify` runs a check only when its order can occur.  Cases I, III and V
each give a rational point of order 4, 3 or 5, and rational torsion injects
into E(F_p) at every odd prime p of good reduction (Silverman, AEC VII.3.1),
so that order divides the oracle's `reduction_bound` g.  Case I runs only
when 4 | g, case III when 3 | g and case V when 5 | g, and II and IV still
ride on I and III.  On most curves g rules out 3 and 5, and then n/2 is
never factored.  The `--oracle` cross-check shares `reduction_bound` with
the classifier: with the oracle on, `full_report` computes g once and passes
it to both `classify` and `oracle.torsion_group`.  The `check_case_*`
functions themselves run unfiltered.

Case III allows a = 0 when b and c are nonzero: a^2 - b^2*D = c^2 then needs
D = -1, and the one normalized curve is (-1, 2, -1), with witness (0, 1, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, NamedTuple, Optional

from . import curve as _curve
from . import oracle as _oracle
from .curve import CurveMND, Point
from .intmath import divisors, int_sqrt, is_squarefree, squarefree_split

# Cases I, III and IV enumerate D directly; II and V derive D from a
# squarefree split.  The direct range 2*bound keeps small bounds productive
# (bound 1 already reaches D = 2).
_D_RANGE_FACTOR = 2

# The generator of every Z2 report: rhs(0) = 0 and 2*(0, 0) = infinity.
_ORIGIN = Point(0, 0)


class InconsistencyError(RuntimeError):
    """A cross-check between the case criteria failed.  This signals a bug
    or a genuine defect in the criteria and is never resolved silently."""


class NonSquareYError(InconsistencyError):
    """A generator x-coordinate produced a non-square y^2 on the curve."""


def _squarefree_ds(bound: int) -> list[int]:
    limit = _D_RANGE_FACTOR * bound
    return [d for d in range(-limit, limit + 1) if d not in (0, 1) and is_squarefree(d)]


@dataclass(frozen=True)
class Witness:
    """Witness of one case; each subclass is one row of the case table.  The
    base class itself, with no parameters, is Z2's witness."""

    tag: ClassVar[Optional[str]] = None
    order: ClassVar[int] = 2
    exact: ClassVar[bool] = True  # False when the case only shows Z{order} is contained
    label: ClassVar[str] = "Z2"

    def __init_subclass__(cls, tag: str, order: int, exact: bool = True) -> None:
        cls.tag, cls.order, cls.exact, cls.label = tag, order, exact, f"Z{order}"

    @property
    def params(self) -> tuple[int, ...]:
        # __match_args__ is the dataclass's tuple of field names, in order.
        return tuple([getattr(self, name) for name in self.__match_args__])

    def generator_x(self, d: int) -> int:
        return 0


@dataclass(frozen=True)
class WitnessI(Witness, tag="I", order=4, exact=False):
    a: int
    b: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessI]:
        """(a, (n/2)/a) for each distinct positive a dividing n/2 with
        a^2 = (m +- r)/2, ascending, where r^2 = q: a witness makes
        q = (a^2 - b^2*D)^2, so m +- r = 2a^2 for one sign.  Factors
        nothing; an odd m +- r is left to the search's (m, n) check."""
        r = int_sqrt(c.q)
        if r is None:
            return
        half = c.n // 2
        roots = {int_sqrt((c.m + r) // 2), int_sqrt((c.m - r) // 2)}
        for a in sorted(a for a in roots if a):  # drops None and 0
            if half % a == 0:
                yield cls(a, half // a)

    @classmethod
    def lattice(cls, bound: int) -> Iterator[tuple[WitnessI, int]]:
        """(a, b) in 1..bound with every squarefree D != 1 in
        |D| <= 2*bound."""
        # Sign flips of (a, b) only swap conjugates or negate n: same curve.
        ds = _squarefree_ds(bound)
        for a, b in itertools.product(range(1, bound + 1), repeat=2):
            witness = cls(a, b)
            for d in ds:
                yield witness, d

    def holds(self, d: int) -> bool:
        return self.a * self.b != 0 and math.gcd(self.a, self.b) == 1

    def curve_mn(self, d: int) -> tuple[int, int]:
        return self.a**2 + self.b**2 * d, 2 * self.a * self.b

    def generator_x(self, d: int) -> int:
        return self.a**2 - self.b**2 * d


@dataclass(frozen=True)
class WitnessII(Witness, tag="II", order=8):
    u: int
    v: int
    w: int

    @classmethod
    def candidates(cls, c: CurveMND, w1: WitnessI) -> Iterator[WitnessII]:
        """Refinements of a case-I witness: a = u^2, a + c = v^2 for a sign
        of c with c^2 = a^2 - b^2*D, and w = b/v."""
        u = int_sqrt(w1.a)
        r = int_sqrt(w1.a**2 - w1.b**2 * c.D)
        if u is None or r is None:
            return
        for cc in (r, -r):
            v = int_sqrt(w1.a + cc)
            if v and w1.b % v == 0:
                yield cls(u, v, w1.b // v)

    @classmethod
    def lattice(cls, bound: int) -> Iterator[tuple[WitnessII, int]]:
        """(u, v) in 1..bound with D and w from the squarefree split of
        2u^2 - v^2 = w^2*D."""
        for u, v in itertools.product(range(1, bound + 1), repeat=2):
            w, d = squarefree_split(2 * u * u - v * v)
            if d != 1:
                yield cls(u, v, w), d

    def holds(self, d: int) -> bool:
        u, v, w = self.u, self.v, self.w
        return u * v * w != 0 and 2 * u * u - v * v == w * w * d

    def curve_mn(self, d: int) -> tuple[int, int]:
        return (
            self.u**4 + self.v**2 * self.w**2 * d,
            2 * self.u**2 * self.v * self.w,
        )

    def generator_x(self, d: int) -> int:
        return (self.u + self.v) * (self.v - self.u) ** 3


@dataclass(frozen=True)
class WitnessIII(Witness, tag="III", order=6, exact=False):
    a: int
    b: int
    c: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessIII]:
        """Positive divisor pairs (b, k) of n/2 with k = a + c, an exact
        a = (k^2 + b^2*D) / (2k), and m = a(2k - a) + b^2*D."""
        half = c.n // 2
        for b in divisors(half):
            k = half // b
            b2d = b * b * c.D
            a, rem = divmod(k * k + b2d, 2 * k)
            if not rem and a * (2 * k - a) + b2d == c.m:
                yield cls(a, b, k - a)

    @classmethod
    def lattice(cls, bound: int) -> Iterator[tuple[WitnessIII, int]]:
        """(a, b) in 1..bound and squarefree D != 1 in |D| <= 2*bound with
        c = +-sqrt(a^2 - b^2*D).  a starts at 1, so the one witness with
        a = 0, III(0, 1, 1) of the curve (-1, 2, -1), is never yielded."""
        # (a, c) -> (-a, -c) negates n only, so a stays positive.
        ds = _squarefree_ds(bound)
        for a, b in itertools.product(range(1, bound + 1), repeat=2):
            for d in ds:
                r = int_sqrt(a * a - b * b * d)
                if r:
                    yield cls(a, b, r), d
                    yield cls(a, b, -r), d

    def holds(self, d: int) -> bool:
        a, b, c = self.a, self.b, self.c
        return b * c != 0 and a * a - b * b * d == c * c and math.gcd(a, b, c) == 1

    def curve_mn(self, d: int) -> tuple[int, int]:
        return (
            self.a**2 + 2 * self.a * self.c + self.b**2 * d,
            2 * self.b * (self.a + self.c),
        )

    def generator_x(self, d: int) -> int:
        return 5 * self.c**2 + 4 * self.a * self.c


@dataclass(frozen=True)
class WitnessIV(Witness, tag="IV", order=12):
    u: int
    v: int
    w: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessIV]:
        """Positive divisor pairs (v, w) of n/2 with u^2 = v^2 + w^2*D - m
        a positive square."""
        half = c.n // 2
        for v in divisors(half):
            w = half // v
            u = int_sqrt(v * v + w * w * c.D - c.m)
            if u:
                yield cls(u, v, w)

    @classmethod
    def lattice(cls, bound: int) -> Iterator[tuple[WitnessIV, int]]:
        """(u, v, w) in 1..bound with each squarefree D != 1 in
        |D| <= 2*bound such that w^2*D divides v^6 (3v^2 - 4u^2), in the
        base class's order.  That is the quartic's constant term as a
        polynomial in X = w^2*D, nonzero since 3v^2 = 4u^2 has no solution,
        so every integer root X divides it."""
        # Only u^2, v^2, w^2 enter the constraint and the curve, so positive
        # representatives suffice.
        ds = _squarefree_ds(bound)
        for u, v in itertools.product(range(1, bound + 1), repeat=2):
            constant = v**6 * (3 * v * v - 4 * u * u)
            roots = [d for d in ds if constant % d == 0]
            for w in range(1, bound + 1):
                w2 = w * w
                kept = [d for d in roots if constant % (w2 * d) == 0]
                if kept:
                    witness = cls(u, v, w)
                    for d in kept:
                        yield witness, d

    def holds(self, d: int) -> bool:
        u2, v2, w2d = self.u**2, self.v**2, self.w**2 * d
        a, b = v2 - w2d, v2 + w2d
        return (
            self.u * self.v * self.w != 0
            and 3 * a**4 - 4 * u2 * a * a * b - 16 * u2 * u2 * v2 * w2d == 0
        )

    def curve_mn(self, d: int) -> tuple[int, int]:
        return self.v**2 - self.u**2 + self.w**2 * d, 2 * self.v * self.w

    def generator_x(self, d: int) -> int:
        return (self.u + self.v) ** 2 - self.w**2 * d


@dataclass(frozen=True)
class WitnessV(Witness, tag="V", order=10):
    s: int
    t: int
    u: int
    v: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessV]:
        """Positive divisor pairs (s, t) of n/2 with u > 0 and v > 0 the
        roots of u^2 = t^2*D + s^2 - m and v^2 = 2s^2 + 2su - m.  Signs never
        decide: with s > 0, 4uvs = (u-v)^2*(u+v) forces 0 < v < -u or
        0 < u < -v; then (v, -u) or (-v, u) keeps m and q = -uv(u^2-uv-v^2),
        a witness at s' = s*|u+v|/|u-v| < s, an integer (u = ga, v = gb,
        gcd(a, b) = 1 give ab | g), and t' = st/s' is one as D is squarefree."""
        half = c.n // 2
        for s in divisors(half):
            t = half // s
            u = int_sqrt(t * t * c.D + s * s - c.m)
            v = int_sqrt(2 * s * s + 2 * s * u - c.m) if u else None
            if v:
                yield cls(s, t, u, v)

    @classmethod
    def lattice(cls, bound: int) -> Iterator[tuple[WitnessV, int]]:
        """u in 1..bound and nonzero v in -bound..bound with s from
        (u-v)^2*(u+v) = 4uvs, then D and t from the squarefree split of
        (s+u)^2 - v^2 = t^2*D."""
        for u in range(1, bound + 1):
            for v in range(-bound, bound + 1):
                if v == 0:
                    continue
                # u = +-v gives s = 0, where t^2*D = 0 fixes no D.
                s, rem = divmod((u - v) ** 2 * (u + v), 4 * u * v)
                if rem or s == 0:
                    continue
                t, d = squarefree_split((s + u) ** 2 - v * v)
                if d != 1:
                    yield cls(s, t, u, v), d

    def holds(self, d: int) -> bool:
        s, t, u, v = self.s, self.t, self.u, self.v
        return (
            s * t * u * v != 0
            and (u - v) ** 2 * (u + v) == 4 * u * v * s
            and (s + u) ** 2 - v * v == t * t * d
        )

    def curve_mn(self, d: int) -> tuple[int, int]:
        return 2 * self.s * (self.s + self.u) - self.v**2, 2 * self.s * self.t

    def generator_x(self, d: int) -> int:
        return 2 * self.v**2 + 4 * self.v * self.s - self.u**2


# The case table, in the paper's order: tag -> witness class.
CASES: dict[str, type[Witness]] = {
    w.tag: w for w in (WitnessI, WitnessII, WitnessIII, WitnessIV, WitnessV)
}


# The witness of every Z2 curve: (0, 0) generates, and no case holds.
_Z2 = Witness()


class ClassificationReport(NamedTuple):
    """A curve's class (the witness that decides it) and generator and, with
    the oracle, its group and whether the two orders agree."""

    curve: CurveMND
    cls: Witness
    generator: Point
    oracle_group: Optional[_oracle.TorsionGroup]
    agree: Optional[bool]


def _first_witness(case: type[Witness], c: CurveMND, *refine: Witness):
    """The first of `case.candidates(c, *refine)` that satisfies the case's
    side conditions and gives the curve's (m, n), else None."""
    if c.n % 2:
        return None
    for w in case.candidates(c, *refine):
        if w.holds(c.D) and w.curve_mn(c.D) == (c.m, c.n):
            return w
    return None


def check_case_i(c: CurveMND) -> WitnessI | None:
    """Case I's first witness for c (Z4 is contained), or None."""
    return _first_witness(WitnessI, c)


def check_case_ii(c: CurveMND, w1: WitnessI) -> WitnessII | None:
    """Case II's refinement of the case-I witness w1 (Z8 exactly), or None."""
    return _first_witness(WitnessII, c, w1)


def check_case_iii(c: CurveMND) -> WitnessIII | None:
    """Case III's first witness for c (Z6 is contained), or None."""
    return _first_witness(WitnessIII, c)


def check_case_iv(c: CurveMND) -> WitnessIV | None:
    """Case IV's first witness for c (Z12 exactly), or None."""
    return _first_witness(WitnessIV, c)


def check_case_v(c: CurveMND) -> WitnessV | None:
    """Case V's first witness for c (Z10 exactly), or None."""
    return _first_witness(WitnessV, c)


def classify(c: CurveMND, g: int | None = None) -> Witness:
    """Decide the torsion class of a normalized curve: the witness that
    decides it, `_Z2` for Z2.

    Decision tree: case I and case III together force Z12 (case IV is then
    asserted as a cross-check and supplies the witness); case I alone gives
    Z8 when case II refines it and Z4 otherwise; case III alone gives Z6;
    with neither, case V gives Z10; everything else is Z2.  Odd n is Z2 at
    once, since every case forces n even; otherwise cases I, III and V run
    only when the reduction bound g admits their point of order 4, 3 or 5.
    g is `oracle.reduction_bound(c)`, computed here unless the caller
    already has it.
    """
    if c.n % 2:
        return _Z2
    if g is None:
        g = _oracle.reduction_bound(c)
    w1 = check_case_i(c) if g % 4 == 0 else None
    w3 = check_case_iii(c) if g % 3 == 0 else None
    if w1 is not None and w3 is not None:
        w4 = check_case_iv(c)
        if w4 is None:
            raise InconsistencyError(
                f"{c}: Z4 and Z6 criteria both hold but the Z12 criterion fails"
            )
        return w4
    if w1 is not None:
        w2 = check_case_ii(c, w1)
        return w1 if w2 is None else w2
    if w3 is not None:
        return w3
    w5 = check_case_v(c) if g % 5 == 0 else None
    return _Z2 if w5 is None else w5


def generator(c: CurveMND, cls: Witness) -> Point:
    """Explicit generator point for the class, with canonical y > 0.

    The x-coordinate comes from the witness (Z2's is 0); y is the exact
    integer square root of the curve's right-hand side, whose failure would
    mean the witness and class are inconsistent.
    """
    x = cls.generator_x(c.D)
    y2 = c.rhs(x)
    y = int_sqrt(y2)
    if y is None:
        raise NonSquareYError(
            f"{c}: generator x={x} for {cls.label} gives non-square y^2={y2}"
        )
    return Point(x, y)


def full_report(c: CurveMND, with_oracle: bool = False) -> ClassificationReport:
    """Classify, build the generator, and optionally cross-check against the
    independent group oracle.

    A Z2 report takes (0, 0) as its generator without calling `generator`
    or `order`: rhs(0) = 0 puts (0, 0) on every curve, and with y = 0 it
    doubles to infinity.  A case witness builds its generator and checks
    that its order is the class's order.  With the oracle, the reduction
    bound is computed once here and passed to both `classify` and
    `oracle.torsion_group`.
    """
    g = _oracle.reduction_bound(c) if with_oracle else None
    cls = classify(c, g)
    if cls.tag is None:
        gen = _ORIGIN
    else:
        gen = generator(c, cls)
        k = _curve.order(c, gen)
        if k != cls.order:
            raise InconsistencyError(
                f"{c}: generator {gen} has order {k}, expected {cls.order}"
            )
    if not with_oracle:
        return ClassificationReport(c, cls, gen, None, None)
    group = _oracle.torsion_group(c, g)
    return ClassificationReport(c, cls, gen, group, group.order == cls.order)

