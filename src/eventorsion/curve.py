"""Curve family model and exact point arithmetic.

A triple (m, n, D) with D squarefree encodes the curve

    y^2 = x * (x + M) * (x + N),    M = m + n*sqrt(D),  N = m - n*sqrt(D),

which expands over the rationals to the integral model

    y^2 = x^3 + 2m*x^2 + q*x,       q = M*N = m^2 - n^2*D.

All arithmetic is exact.  The model's torsion points are integral
(Nagell-Lutz), so a point is a pair of ints, a tuple (x, y), and the group
law stops at the first slope that is not an integer.

`from_general` maps a rational y^2 = x^3 + a2*x^2 + a4*x + a6 with exactly
one rational root onto the family; zero or three rational roots raise.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import intmath


MAX_TORSION_ORDER = 12  # Mazur: no rational torsion point has a larger order


class InvalidCurveError(ValueError):
    """Input does not define a member of the curve family."""


class SingularCurveError(InvalidCurveError):
    """The cubic has a repeated root."""


class NoRationalTwoTorsionError(InvalidCurveError):
    """The cubic has no rational root, so there is no rational 2-torsion."""


class FullTwoTorsionError(InvalidCurveError):
    """The cubic has three rational roots: full rational 2-torsion, so the
    torsion subgroup is not cyclic and the curve is outside this family."""

    def __init__(self, roots: Iterable[int | Fraction]) -> None:
        self.roots = tuple(sorted(map(Fraction, roots)))
        super().__init__(
            f"three rational roots {', '.join(map(str, self.roots))}: "
            "full rational 2-torsion, outside this family"
        )


class PointNotOnCurveError(ValueError):
    """An affine point fails the curve equation."""


@dataclass(frozen=True)
class CurveMND:
    """Normalized curve datum (m, n, D).  n != 0 and a squarefree D not in
    {0, 1} make n^2*D a nonsquare, so m^2 != n^2*D: the curve is nonsingular.

    CurveMND(m, n, D) validates: n != 0, D squarefree and not 0 or 1, and
    gcd(m, n) squarefree, raising InvalidCurveError otherwise.  The package's
    own normalized constructions (`normalize`, `family.sweep_curves`) have
    just established all three and build through `_normalized`, which skips
    the re-test.
    """

    m: int
    n: int
    D: int

    def __post_init__(self) -> None:
        if self.n == 0:
            raise InvalidCurveError("n must be nonzero")
        if self.D in (0, 1) or not intmath.is_squarefree(self.D):
            raise InvalidCurveError(f"D={self.D} must be squarefree, not 0 or 1")
        if not intmath.is_squarefree(math.gcd(self.m, self.n)):
            raise InvalidCurveError(
                f"gcd(m, n) = gcd({self.m}, {self.n}) must be squarefree"
            )

    @classmethod
    def _normalized(cls, m: int, n: int, D: int) -> CurveMND:
        """(m, n, D) without `__post_init__`'s tests.  The caller guarantees
        what they check: n != 0, D squarefree and not 0 or 1, and
        gcd(m, n) squarefree."""
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "D", D)
        return self

    @property
    def q(self) -> int:
        """Linear coefficient q = M*N = m^2 - n^2*D."""
        return self.m * self.m - self.n * self.n * self.D

    def rhs(self, x: int) -> int:
        """Right-hand side x^3 + 2m*x^2 + q*x of the curve equation."""
        return ((x + 2 * self.m) * x + self.q) * x

    def contains(self, point: "Point") -> bool:
        if point.is_infinity:
            return True
        return point.y * point.y == self.rhs(point.x)

    def __str__(self) -> str:
        return f"(m={self.m}, n={self.n}, D={self.D}): y^2 = x^3 + {2 * self.m}*x^2 + {self.q}*x"


class _XY(NamedTuple):
    x: int | None
    y: int | None


class Point(_XY):
    """Affine point, the int pair (x, y), or infinity, (None, None).

    Point() is the point at infinity; module constant INFINITY is provided.
    Equality, hashing and (x, y) ordering are the tuple's.  Point(x, y)
    checks that both coordinates are ints, or both None.
    """

    __slots__ = ()

    def __new__(cls, x: int | None = None, y: int | None = None) -> Point:
        if not (isinstance(x, int) and isinstance(y, int)):
            if (x is None) != (y is None):
                raise ValueError("both coordinates or neither")
            if x is not None:
                raise TypeError(f"coordinates must be int: Point(x={x!r}, y={y!r})")
        return tuple.__new__(cls, (x, y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_infinity:
            return "infinity"
        return f"({self.x}, {self.y})"


INFINITY = Point()


def normalize(m: int, n: int, d_raw: int) -> CurveMND:
    """Build the normalized curve datum from a general (m, n, D) triple.

    Absorbs the square part of d_raw into n, canonicalizes n > 0 (swapping
    the conjugates M and N leaves the curve unchanged), then divides (m, n)
    by the square part of their gcd.  The result is Q-isomorphic to the
    input curve.  A perfect-square d_raw gives three rational roots and
    raises FullTwoTorsionError, or SingularCurveError when two coincide.
    """
    if n == 0:
        raise InvalidCurveError("n must be nonzero")
    if d_raw == 0:
        raise InvalidCurveError("D must be nonzero")
    r = intmath.int_sqrt(d_raw)
    if r is not None:
        if m * m == n * n * d_raw:
            raise SingularCurveError("cubic has a repeated root")
        raise FullTwoTorsionError((0, -m + n * r, -m - n * r))
    d, d0 = intmath.squarefree_split(d_raw)
    n = abs(n * d)
    g = math.gcd(m, n)
    e = intmath.squarefree_split(g).square_part
    if e > 1:
        m //= e * e
        n //= e * e
    # d0 is the squarefree part of a nonzero nonsquare, so not 0 or 1; n is
    # |n*d| / e^2 != 0; gcd(m, n) = g / e^2 is the squarefree part of g.
    return CurveMND._normalized(m, n, d0)


def from_general(
    a2: int | Fraction | str, a4: int | Fraction | str, a6: int | Fraction | str
) -> CurveMND:
    """Recognize y^2 = x^3 + a2*x^2 + a4*x + a6 as a member of the family.

    Each coefficient is read by Fraction(), so ints, Fractions and strings
    such as "3/2" or "0.1" all work.  Floats are refused with TypeError:
    Fraction(0.1) is the float's binary expansion, not one tenth.  Scales to
    an integer monic model, whose rational roots are its integer roots, found
    by intmath.integer_roots without factoring anything (the model is
    squarefree: a zero discriminant is rejected first); translates the single
    rational root to 0, rescales once more by 2 if needed so the middle
    coefficient is even, and normalizes.
    Zero rational roots raise NoRationalTwoTorsionError and three raise
    FullTwoTorsionError.
    """
    for name, value in (("a2", a2), ("a4", a4), ("a6", a6)):
        # A Real that is not Rational: a float, or a type that acts as one.
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
            raise TypeError(
                f"{name}={value!r} is a float; pass an int, Fraction or string"
            )
    a2, a4, a6 = Fraction(a2), Fraction(a4), Fraction(a6)
    scale = math.lcm(a2.denominator, a4.denominator, a6.denominator)
    b = int(a2 * scale**2)
    c = int(a4 * scale**4)
    d = int(a6 * scale**6)
    if b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d == 0:
        raise SingularCurveError("cubic has a repeated root")
    roots = intmath.integer_roots([1, b, c, d])
    if not roots:
        raise NoRationalTwoTorsionError(
            "cubic has no rational root: no rational point of order 2"
        )
    if len(roots) == 3:
        raise FullTwoTorsionError(Fraction(r, scale**2) for r in roots)
    # A monic rational cubic with two rational roots has a rational third
    # root, so exactly one root remains here.
    (r,) = roots
    b2 = 3 * r + b
    b4 = (3 * r + 2 * b) * r + c
    if b2 % 2:
        b2 *= 4
        b4 *= 16
    m = b2 // 2
    s = m * m - b4  # n^2 * D; nonzero and nonsquare when the root was unique
    return normalize(m, 1, s)


def _require_on_curve(c: CurveMND, point: Point) -> None:
    if not c.contains(point):
        raise PointNotOnCurveError(f"{point} is not on {c}")


def _add_raw(c: CurveMND, p: Point, q: Point) -> Point | None:
    """p + q, or None when the slope is not an integer.  Then
    x(p + q) = slope^2 - 2m - x(p) - x(q) is not an integer either, so the
    sum is not a torsion point (Nagell-Lutz)."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        lam, rem = divmod(3 * p.x * p.x + 4 * c.m * p.x + c.q, 2 * p.y)
    else:
        lam, rem = divmod(q.y - p.y, q.x - p.x)
    if rem:
        return None
    x3 = lam * lam - 2 * c.m - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(x3, y3)


def _multiples(c: CurveMND, p: Point | None) -> list[Point] | None:
    """[INFINITY, p, 2p, ..., (k-1)p] for p of order k, or None for infinite
    order.

    Torsion orders are capped at MAX_TORSION_ORDER (Mazur), and a multiple
    whose slope is not an integer proves infinite order on this integral
    model (Nagell-Lutz), so the walk stops there.  A None p, a sum that was
    not integral, gets None too.

    The walk is `_add_raw` inlined on ints: a tangent step from p gives 2p,
    and chord steps with p give each next multiple.  It ends when
    x(jp) = x(p): jp is then p or -p, and jp = p would have put
    (j-1)p = infinity earlier, so jp = -p and (j+1)p is infinity.
    """
    if p is None:
        return None
    px, py = p
    if px is None:
        return [INFINITY]
    if py == 0:
        return [INFINITY, p]
    m2 = 2 * c.m
    lam, rem = divmod((3 * px + 2 * m2) * px + c.q, 2 * py)
    if rem:
        return None
    x = lam * lam - m2 - 2 * px
    y = lam * (px - x) - py
    multiples = [INFINITY, p]
    while True:
        if len(multiples) == MAX_TORSION_ORDER:
            return None
        multiples.append(Point(x, y))
        if x == px:
            return multiples
        lam, rem = divmod(y - py, x - px)
        if rem:
            return None
        x3 = lam * lam - m2 - x - px
        x, y = x3, lam * (x - x3) - y


def order(c: CurveMND, p: Point) -> int | None:
    """Order of p, or None for infinite order: some multiple has a slope
    that is not an integer, or p has no order up to MAX_TORSION_ORDER (see
    `_multiples`)."""
    _require_on_curve(c, p)
    multiples = _multiples(c, p)
    return None if multiples is None else len(multiples)

