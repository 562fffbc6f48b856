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

Each case is one witness class carrying its tag, order, exact flag, (m, n),
generator x and doubled x; `CASES` (tag -> class) is the only registry.

Each class also owns its side conditions, `holds(d)`, and its candidate
witnesses for a curve, `candidates(c)`, taken over the signed divisor pairs
of n/2 (ascending |first parameter|, positive first; case II refines case
I's witness).  One search serves all five checks, so the returned witness is
reproducible.  Every condition forces n even, so odd n always lands in Z2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Optional

from . import curve as _curve
from . import oracle as _oracle
from .curve import CurveMND, Point
from .intmath import int_sqrt, signed_divisor_pairs


class InconsistencyError(RuntimeError):
    """A cross-check between the case criteria failed.  This signals a bug
    or a genuine defect in the criteria and is never resolved silently."""


class NonSquareYError(InconsistencyError):
    """A generator x-coordinate produced a non-square y^2 on the curve."""


class Witness:
    """Witness of one case; each subclass is one row of the case table."""

    tag: ClassVar[str]
    order: ClassVar[int]
    exact: ClassVar[bool]  # False when the case only shows Z{order} is contained

    def __init_subclass__(cls, tag: str, order: int, exact: bool = True) -> None:
        cls.tag, cls.order, cls.exact = tag, order, exact

    @property
    def params(self) -> tuple[int, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class WitnessI(Witness, tag="I", order=4, exact=False):
    a: int
    b: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessI]:
        """Divisor pairs (a, b) of n/2 with a^2 + b^2*D = m."""
        for a, b in signed_divisor_pairs(c.n // 2):
            if a * a + b * b * c.D == c.m:
                yield cls(a, b)

    def holds(self, d: int) -> bool:
        return self.a * self.b != 0 and math.gcd(self.a, self.b) == 1

    def curve_mn(self, d: int) -> tuple[int, int]:
        return self.a**2 + self.b**2 * d, 2 * self.a * self.b

    def generator_x(self, d: int) -> int:
        return self.a**2 - self.b**2 * d

    def doubled_x(self, d: int) -> int:
        return 0


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

    def doubled_x(self, d: int) -> int:
        return (self.u**2 - self.v**2) ** 2


@dataclass(frozen=True)
class WitnessIII(Witness, tag="III", order=6, exact=False):
    a: int
    b: int
    c: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessIII]:
        """Divisor pairs (b, k) of n/2 with k = a + c, an exact
        a = (k^2 + b^2*D) / (2k), and m = a(2k - a) + b^2*D."""
        for b, k in signed_divisor_pairs(c.n // 2):
            b2d = b * b * c.D
            a, rem = divmod(k * k + b2d, 2 * k)
            if not rem and a * (2 * k - a) + b2d == c.m:
                yield cls(a, b, k - a)

    def holds(self, d: int) -> bool:
        a, b, c = self.a, self.b, self.c
        return a * b * c != 0 and a * a - b * b * d == c * c and math.gcd(a, b, c) == 1

    def curve_mn(self, d: int) -> tuple[int, int]:
        return (
            self.a**2 + 2 * self.a * self.c + self.b**2 * d,
            2 * self.b * (self.a + self.c),
        )

    def generator_x(self, d: int) -> int:
        return 5 * self.c**2 + 4 * self.a * self.c

    def doubled_x(self, d: int) -> int:
        return self.c**2


@dataclass(frozen=True)
class WitnessIV(Witness, tag="IV", order=12):
    u: int
    v: int
    w: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessIV]:
        """Divisor pairs (v, w) of n/2 with u^2 = v^2 + w^2*D - m a positive
        square."""
        for v, w in signed_divisor_pairs(c.n // 2):
            u = int_sqrt(v * v + w * w * c.D - c.m)
            if u:
                yield cls(u, v, w)

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

    def doubled_x(self, d: int) -> int:
        return self.u**2


@dataclass(frozen=True)
class WitnessV(Witness, tag="V", order=10):
    s: int
    t: int
    u: int
    v: int

    @classmethod
    def candidates(cls, c: CurveMND) -> Iterator[WitnessV]:
        """Divisor pairs (s, t) of n/2; eliminating v gives
        u^2 = t^2*D + s^2 - m, then v^2 = 2s^2 + 2su - m, each a positive
        square, with both signs of u and v tried."""
        for s, t in signed_divisor_pairs(c.n // 2):
            u0 = int_sqrt(t * t * c.D + s * s - c.m)
            if not u0:
                continue
            for u in (u0, -u0):
                v0 = int_sqrt(2 * s * s + 2 * s * u - c.m)
                if v0:
                    yield cls(s, t, u, v0)
                    yield cls(s, t, u, -v0)

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

    def doubled_x(self, d: int) -> int:
        """v^2, not u^2: the generator P is P0 + P5 where x(P5) = u^2, so
        2P = 2*P5, and an order-5 point never doubles back onto its own
        x-coordinate.  u^2 is instead x(2*(3P)), the double of the other
        generator 3P.  The acceptance suite's criterion 4 checks both."""
        return self.v**2


# The case table, in the paper's order: tag -> witness class.
CASES: dict[str, type[Witness]] = {
    w.tag: w for w in (WitnessI, WitnessII, WitnessIII, WitnessIV, WitnessV)
}


@dataclass(frozen=True)
class TorsionClass:
    """Cyclic torsion class Z{order} with the witness that produced it."""

    order: int
    witness: Optional[Witness]

    def __post_init__(self) -> None:
        if self.order == 2:
            if self.witness is not None:
                raise ValueError("Z2 carries no witness")
        elif self.witness is None or self.witness.order != self.order:
            raise ValueError(f"order {self.order} needs a matching witness")

    @property
    def label(self) -> str:
        return f"Z{self.order}"


@dataclass(frozen=True)
class ClassificationReport:
    curve: CurveMND
    cls: TorsionClass
    generator: Point
    generator_order: int
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


def classify(c: CurveMND) -> TorsionClass:
    """Decide the torsion class of a normalized curve.

    Decision tree: case I and case III together force Z12 (case IV is then
    asserted as a cross-check and supplies the witness); case I alone gives
    Z8 when case II refines it and Z4 otherwise; case III alone gives Z6;
    with neither, case V gives Z10; everything else is Z2.
    """
    w1 = check_case_i(c)
    w3 = check_case_iii(c)
    if w1 is not None and w3 is not None:
        w4 = check_case_iv(c)
        if w4 is None:
            raise InconsistencyError(
                f"{c}: Z4 and Z6 criteria both hold but the Z12 criterion fails"
            )
        return TorsionClass(12, w4)
    if w1 is not None:
        w2 = check_case_ii(c, w1)
        if w2 is not None:
            return TorsionClass(8, w2)
        return TorsionClass(4, w1)
    if w3 is not None:
        return TorsionClass(6, w3)
    w5 = check_case_v(c)
    if w5 is not None:
        return TorsionClass(10, w5)
    return TorsionClass(2, None)


def generator_x(c: CurveMND, cls: TorsionClass) -> int:
    """Generator x-coordinate from the class witness; Z2's generator is (0, 0)."""
    return 0 if cls.witness is None else cls.witness.generator_x(c.D)


def generator(c: CurveMND, cls: TorsionClass) -> Point:
    """Explicit generator point for the class, with canonical y > 0.

    The x-coordinate comes from the witness; y is the exact integer square
    root of the curve's right-hand side, whose failure would mean the
    witness and class are inconsistent.
    """
    x = generator_x(c, cls)
    y2 = c.rhs(x)
    y = int_sqrt(y2)
    if y is None:
        raise NonSquareYError(
            f"{c}: generator x={x} for {cls.label} gives non-square y^2={y2}"
        )
    return Point(x, y)


def full_report(c: CurveMND, with_oracle: bool = False) -> ClassificationReport:
    """Classify, build the generator, and optionally cross-check against the
    brute-force group oracle."""
    cls = classify(c)
    gen = generator(c, cls)
    k = _curve.order(c, gen)
    if k != cls.order:
        raise InconsistencyError(
            f"{c}: generator {gen} has order {k}, expected {cls.order}"
        )
    group = _oracle.torsion_group(c) if with_oracle else None
    agree = None
    if group is not None:
        agree = group.structure == cls.label and group.order == cls.order
    return ClassificationReport(c, cls, gen, k, group, agree)


def case_witnesses(c: CurveMND) -> dict[str, Witness | None]:
    """Run all five case checks (case II on top of case I when present).

    Used by consistency sweeps; classify() itself short-circuits.
    """
    w1 = check_case_i(c)
    return {
        "I": w1,
        "II": check_case_ii(c, w1) if w1 is not None else None,
        "III": check_case_iii(c),
        "IV": check_case_iv(c),
        "V": check_case_v(c),
    }
