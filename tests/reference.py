"""Reference computations that the tests check the package against.

The package reaches a curve's class and generator without any of these: the
checked group law, the duplication formula, a point's multiples and order on
a general Weierstrass model, a general cubic's discriminant and j-invariant, a
polynomial's value, the halving test over Q(sqrt(D)) and the unfiltered
case checks.  All arithmetic is exact: ints and Fractions, no floats
(tests/test_exactness.py walks this module too).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from eventorsion import classifier, intmath
from eventorsion.curve import (
    CurveMND,
    Point,
    SingularCurveError,
    _add_raw,
    _require_on_curve,
)


def add(c: CurveMND, p: Point, q: Point) -> Point | None:
    """Chord-tangent group law; infinity is the identity.  None when the
    slope, and so the sum, is not integral."""
    _require_on_curve(c, p)
    _require_on_curve(c, q)
    return _add_raw(c, p, q)


def double_x(c: CurveMND, p: Point) -> int | Fraction:
    """x(2P) via the closed form ((x^2 - q) / (2y))^2, q = M*N."""
    _require_on_curve(c, p)
    if p.is_infinity or p.y == 0:
        raise ValueError("2P is the point at infinity; x(2P) undefined")
    num, den = p.x * p.x - c.q, 2 * p.y
    t = num // den if num % den == 0 else Fraction(num, den)
    return t * t


def discriminant(a2, a4, a6) -> int | Fraction:
    """Discriminant of y^2 = x^3 + a2*x^2 + a4*x + a6, from its b-invariants:
    an int for int coefficients, a Fraction for Fractions."""
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def j_invariant(a2, a4, a6) -> Fraction:
    disc = discriminant(a2, a4, a6)
    if disc == 0:
        raise SingularCurveError("j undefined for singular cubic")
    c4 = 16 * a2**2 - 48 * a4
    return Fraction(c4**3, disc)


def weierstrass_multiples(a2, a4, a6, x, y) -> list[tuple[Fraction, Fraction]] | None:
    """[P, 2P, ..., (k-1)P], each as an (x, y) pair of Fractions, for
    P = (x, y) of order k on y^2 = x^3 + a2*x^2 + a4*x + a6 over Q, by the
    chord-tangent law on Fractions; None past 12, the largest order of a
    rational torsion point (Mazur)."""
    px, py = Fraction(x), Fraction(y)
    if py * py != ((px + a2) * px + a4) * px + a6:
        raise ValueError(f"({x}, {y}) is not on the curve")
    multiples = [(px, py)]
    x, y = px, py  # (k - 1)P, on the walk below
    for k in range(2, 13):
        if x == px:
            if y == -py:
                return multiples
            lam = ((3 * x + 2 * a2) * x + a4) / (2 * y)
        else:
            lam = (y - py) / (x - px)
        x3 = lam * lam - a2 - x - px
        x, y = x3, lam * (x - x3) - y
        multiples.append((x, y))
    return None


def weierstrass_order(a2, a4, a6, x, y) -> int | None:
    """Order of (x, y) on y^2 = x^3 + a2*x^2 + a4*x + a6 over Q, or None
    past 12 (see `weierstrass_multiples`)."""
    multiples = weierstrass_multiples(a2, a4, a6, x, y)
    return None if multiples is None else len(multiples) + 1


def evaluate(coeffs: list[int], x: int | Fraction) -> int | Fraction:
    """The polynomial with these coefficients, leading first, at x."""
    value = 0
    for a in coeffs:
        value = value * x + a
    return value


def rat_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when x is not a square."""
    if x < 0:
        return None
    num = intmath.int_sqrt(x.numerator)
    if num is None:
        return None
    den = intmath.int_sqrt(x.denominator)
    if den is None:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class QuadElement:
    """Element e + f*sqrt(D) of the quadratic field Q(sqrt(D))."""

    e: Fraction
    f: Fraction
    D: int

    def __post_init__(self) -> None:
        if not isinstance(self.e, Fraction):
            object.__setattr__(self, "e", Fraction(self.e))
        if not isinstance(self.f, Fraction):
            object.__setattr__(self, "f", Fraction(self.f))
        if self.D in (0, 1) or not intmath.is_squarefree(self.D):
            raise ValueError(f"D={self.D} must be squarefree, not 0 or 1")


def is_square_quad(z: QuadElement) -> QuadElement | None:
    """Square root of z in Q(sqrt(D)), or None when z is not a square.

    For z = e + f*sqrt(D) with f != 0: z is a square exactly when the norm
    e^2 - f^2*D is a rational square r^2 and one of (e + r)/2, (e - r)/2 is a
    nonzero rational square g^2; then h = f / (2g).  For f = 0 both e and
    e/D are tested directly.  Returned roots are canonicalized positive.
    """
    if z.f == 0:
        if z.e == 0:
            return QuadElement(0, 0, z.D)
        g = rat_sqrt(z.e)
        if g is not None:
            return QuadElement(g, 0, z.D)
        h = rat_sqrt(z.e / z.D)
        if h is not None:
            return QuadElement(0, h, z.D)
        return None
    r = rat_sqrt(z.e * z.e - z.f * z.f * z.D)
    if r is None:
        return None
    for s in (r, -r):
        g2 = (z.e + s) / 2
        if g2 <= 0:
            continue
        g = rat_sqrt(g2)
        if g is None:
            continue
        h = z.f / (2 * g)
        if g * g + h * h * z.D == z.e:
            return QuadElement(g, h, z.D)
    return None


def is_halvable(c: CurveMND, p: Point) -> bool:
    """True when p = 2*r for some r over K = Q(sqrt(D)).

    The cubic's roots are 0, -M, -N, so the point halves over K exactly when
    x, x + M, and x + N are all squares in K; x + N is the conjugate of
    x + M, so it is a square exactly when x + M is.
    """
    _require_on_curve(c, p)
    if p.is_infinity:
        raise ValueError("halving test expects an affine point")
    shifts = (QuadElement(p.x, 0, c.D), QuadElement(p.x + c.m, c.n, c.D))
    return all(is_square_quad(z) is not None for z in shifts)


def case_witnesses(c: CurveMND) -> dict[str, classifier.Witness | None]:
    """Run all five case checks (case II on top of case I when present),
    with none of the reduction-bound filter that `classify` applies.  The
    checks are read through the module, so a spy on them sees each call."""
    w1 = classifier.check_case_i(c)
    return {
        "I": w1,
        "II": classifier.check_case_ii(c, w1) if w1 is not None else None,
        "III": classifier.check_case_iii(c),
        "IV": classifier.check_case_iv(c),
        "V": classifier.check_case_v(c),
    }
