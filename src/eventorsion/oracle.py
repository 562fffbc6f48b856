"""Independent ground truth: the full torsion group from torsion conditions.

Every rational torsion point on the integral model y^2 = x^3 + 2m*x^2 + q*x
has integer coordinates (Nagell-Lutz), so its x is an integer root of the
condition its order imposes, and y = sqrt(rhs(x)) is an integer.  The points
of order 2 are the roots of the cubic, in closed form: x = 0, and
x = -m +- r when r = sqrt(m^2 - q) is an integer.  m^2 - q = n^2*D is not a
square, so (0, 0) is a family member's only one, the group is cyclic and,
by Mazur, of order 2, 4, 6, 8, 10 or 12.  Its points of order 4 have
x(2P) = 0, that is x = +-sqrt(q); those of order 8 halve one of order 4, at
the integer roots of a quartic; those of order 3 and 5 lie at the integer
roots of the division polynomials psi_3 and psi_5 (Silverman, AEC
Exercise 3.7).  Those roots come from `intmath.integer_roots`, and nothing
is factored.  A root where rhs(x) is a square gives a point of exactly its
condition's order: each condition's resultant with rhs is a power of q
times a power of m^2 - q, both nonzero, so no root has y = 0.  The largest
2-power point plus an odd-order point generates the group; one walk of its
multiples gives the group, which must have an order from Mazur's cyclic
list and contain every point found.

Before solving, the oracle bounds the group's order by reduction: at an
odd prime p of good reduction, rational torsion injects into E(F_p)
(Silverman, AEC VII.3.1 with VII.3.4), so #T divides the gcd g of #E(F_p)
over the first six odd primes not dividing the discriminant 64q^2*n^2*D,
that is, not dividing q*n*D.  Only finitely many do, and (0, 0) stays of
order 2 mod p, so g is even and at least 2.  When g = 2, #T divides 2
and (0, 0) is in T, so the group {infinity, (0, 0)} is returned at once,
before any point is built.  That skips the check for three points of
order 2, which cannot fail there: with full rational 2-torsion, E(F_p)
contains Z/2 x Z/2 at every good odd p, so 4 divides g.  Otherwise a
condition of order k is solved only when k divides g.  The classifier
reads the same bound to skip the case checks it rules out, and its
`full_report` computes g once and passes it to both sides; nothing here
uses the classifier: the structural inputs are the integrality of
torsion points, the group law, the injection theorem and Mazur's list of
cyclic orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import curve as _curve
from . import intmath
from .curve import INFINITY, CurveMND, Point

# Mazur's cyclic rational torsion orders; his four Z2xZ2k groups need three
# rational points of order 2, which no family member has.
MAZUR_CYCLIC_ORDERS = (*range(1, 11), 12)

# The odd primes whose #E(F_p) is tabulated at import by the orbit identity
# (see `_count_table`), and how many good primes g takes.
_REDUCTION_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_REDUCTION_PRIME_COUNT = 6


def _quadratic_character(p: int) -> tuple[int, ...]:
    """chi_p(r) for r = 0..p-1, p an odd prime: 0 at 0, 1 at the nonzero
    squares (x^2 mod p for 1 <= x <= (p-1)/2 reaches each once), -1
    elsewhere."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    return tuple(chi)


class OracleError(RuntimeError):
    """The points found do not form one of the possible groups."""


@dataclass(frozen=True)
class TorsionGroup:
    """The full cyclic torsion group: its elements, sorted with
    infinity first and then by (x, y), and the first of them that generates
    the group.  `order`, the number of elements, is set once here: it is
    not a field, so `==` and `repr` leave it out."""

    elements: tuple[Point, ...]
    generator: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", len(self.elements))

    @property
    def structure(self) -> str:
        return f"Z{self.order}"


# The group when the reduction bound is 2: #T divides 2 and (0, 0) is in T.
_Z2 = TorsionGroup((INFINITY, Point(0, 0)), Point(0, 0))


def _count_row(p: int, a: int, chi: tuple[int, ...]) -> bytes:
    """Row a of the count table, counted directly.

    Byte b is 2 + sum_{x != 0} (1 + chi(x)*chi(b + x^2 + a*x)) = #E(F_p),
    since each term is 1 + chi(x^3 + a*x^2 + b*x).  Over b, term x is the
    0..2 byte string of 1 +- chi rotated by x^2 + a*x, so the row is a sum
    of p - 1 such strings read as little-endian ints: every byte stays at
    most 2p < 256, so no sum carries from one byte into the next.
    """
    plus = bytes([1 + v for v in chi]) * 2
    minus = bytes([1 - v for v in chi]) * 2
    total = int.from_bytes(b"\2" * p, "little")
    for x in range(1, p):
        d = (x + a) * x % p
        total += int.from_bytes((plus if chi[x] > 0 else minus)[d : d + p], "little")
    return total.to_bytes(p, "little")


def _count_table(p: int) -> bytes:
    """#E(F_p) for y^2 = x^3 + a*x^2 + b*x at byte a*p + b, for 0 <= a, b < p.

    Rows 0 and 1 are counted directly.  Every other row comes from row 1 by
    the substitution x -> a*x (the quadratic twist by a; Silverman, AEC
    III.1): with S(a, b) = sum_x chi(x^3 + a*x^2 + b*x) = #E(F_p) - p - 1,
    S(a, b) = chi(a)*S(1, b/a^2).  Byte b of (row * c)[::c] is byte b*c mod p
    of row, and the twist takes each count N to 2p + 2 - N.
    """
    chi = _quadratic_character(p)
    row1 = _count_row(p, 1, chi)
    twist = row1.translate(bytes(range(2 * p + 2, -1, -1)).ljust(256, b"\0"))
    rows = [_count_row(p, 0, chi)]
    for a in range(1, p):
        c = pow(a, -2, p)
        rows.append(((row1 if chi[a] > 0 else twist) * c)[::c])
    return b"".join(rows)


# #E(F_p) depends only on (p, 2m mod p, q mod p): _COUNTS[p][a*p + b] is the
# count for the residues a, b (every count is 2..2p, below 256), a fixed
# sum(p^2) = 10,462 bytes, tabulated once at import (about 1 ms on Py 3.11).
_COUNTS = {p: _count_table(p) for p in _REDUCTION_PRIMES}


def _direct_count(p: int, a: int, b: int, chi: tuple[int, ...]) -> int:
    """#E(F_p) = p + 1 + sum_x chi_p(x^3 + a*x^2 + b*x), for 0 <= a, b < p."""
    return p + 1 + sum([chi[((x + a) * x + b) * x % p] for x in range(p)])


def reduction_bound(c: CurveMND) -> int:
    """A multiple of the torsion order: gcd of #E(F_p) over good odd primes.

    An odd p divides the discriminant 64q^2*n^2*D exactly when it divides
    q*n*D, so those primes are skipped; the gcd stops early at 2, the least
    it can be since (0, 0) has order 2.  Up to 47 the counts are read from
    `_COUNTS`, tabulated at import by the orbit identity; only curves with
    most of those primes bad go past, where each count is summed directly.
    """
    m2, q = 2 * c.m, c.q
    bad = q * c.n * c.D
    g = used = 0
    for p in _REDUCTION_PRIMES:
        if bad % p:
            g = math.gcd(g, _COUNTS[p][m2 % p * p + q % p])
            used += 1
            if g == 2 or used == _REDUCTION_PRIME_COUNT:
                return g
    for p in intmath._primes():
        if p > _REDUCTION_PRIMES[-1] and bad % p:
            g = math.gcd(g, _direct_count(p, m2 % p, q % p, _quadratic_character(p)))
            used += 1
            if g == 2 or used == _REDUCTION_PRIME_COUNT:
                return g


def three_torsion_coeffs(c: CurveMND) -> list[int]:
    """psi_3 = 3x^4 + 8m*x^3 + 6q*x^2 - q^2, leading coefficient first: it
    vanishes exactly at the x-coordinates of points of order 3 (using
    M + N = 2m, M*N = q)."""
    q = c.q
    return [3, 8 * c.m, 6 * q, 0, -q * q]


def five_division_coeffs(c: CurveMND) -> list[int]:
    """psi_5, leading coefficient first: its roots are the x-coordinates of
    the points of order 5.  It is psi_5 = psi_4*psi_2^3 - psi_1*psi_3^3 with
    y^4 = rhs(x)^2, expanded in m and q."""
    m, q = c.m, c.q
    mm, qq = m * m, q * q
    q3, q4 = qq * q, qq * qq
    return [
        5, 40 * m, 2 * (32 * mm + 31 * q), 160 * m * q, -105 * qq, -720 * m * qq,
        -60 * qq * (16 * mm + 5 * q), -32 * m * qq * (16 * mm + 23 * q),
        -5 * q3 * (128 * mm + 25 * q), -280 * m * q4, -50 * q4 * q, 0, q3 * q3,
    ]


def halving_coeffs(c: CurveMND, x4: int) -> list[int]:
    """(x^2 - q)^2 - 4*x4*rhs(x), leading coefficient first: its roots are
    the x with x(2P) = ((x^2 - q) / (2y))^2 = x4, so at a point of order 4
    with x-coordinate x4 they are the x-coordinates of its halves."""
    q = c.q
    return [1, -4 * x4, -2 * q - 8 * c.m * x4, -4 * q * x4, q * q]


def _torsion_points(c: CurveMND, xs: Iterable[int], found: set[Point]) -> list[Point]:
    """The points (x, y), y > 0, over the roots x in xs of one torsion
    condition; each is added to found with its negative."""
    points = []
    for x in xs:
        y = intmath.int_sqrt(c.rhs(x))
        if y is None:
            continue
        p = Point(x, y)
        found.add(p)
        found.add(Point(x, -y))
        points.append(p)
    return points


def torsion_group(c: CurveMND, bound: int | None = None) -> TorsionGroup:
    """Find the full rational torsion group of the curve.

    When the reduction bound g is 2 the group is {infinity, (0, 0)},
    returned before any point is built.  Otherwise each torsion condition
    is solved only when g allows its order: order 4 when 4 | g, order 8
    when 8 | g, order 3 when 3 | g, order 5 when 5 | g.  g is
    `reduction_bound(c)`, computed here unless passed as bound.
    """
    if bound is None:
        bound = reduction_bound(c)
    if bound == 2:
        return _Z2
    m, q = c.m, c.q
    # Every point with y = 0 has order 2: x = 0 and, when r is an integer,
    # the roots -m +- r of x^2 + 2m*x + q.
    r = intmath.int_sqrt(m * m - q)
    xs = (0,) if r is None else (0, -m - r, -m + r)
    two_power = [Point(x, 0) for x in xs]
    found = set(two_power)

    # (0, 0) is the only rational point of order 2, so a point of order 4
    # has x(2P) = ((x^2 - q) / (2y))^2 = 0: x = +-sqrt(q).
    if bound % 4 == 0:
        r = intmath.int_sqrt(q)
        fours = _torsion_points(c, (r, -r) if r else (), found)
        if fours:
            two_power = fours
            if bound % 8 == 0:
                halves = intmath.integer_roots(halving_coeffs(c, fours[0].x))
                two_power = _torsion_points(c, halves, found) or fours
    odd = []
    if bound % 3 == 0:
        odd += _torsion_points(c, intmath.integer_roots(three_torsion_coeffs(c)), found)
    if bound % 5 == 0:
        odd += _torsion_points(c, intmath.integer_roots(five_division_coeffs(c)), found)

    # Mazur leaves a cyclic group of even order at most 12, so its odd part
    # has order 1, 3 or 5 and it is generated by its largest 2-power point
    # plus an odd-order point.  Their sum is integral; were it not, it
    # would be None here and `_assemble` would raise.
    gen = two_power[0]
    if odd:
        gen = _curve._add_raw(c, gen, odd[0])
    return _assemble(c, gen, found)


def _assemble(c: CurveMND, gen: Point | None, found: set[Point]) -> TorsionGroup:
    """The group of gen's multiples, checked to be cyclic of an order in
    Mazur's list and to contain every point found."""
    # x^2 + 2m*x + q has discriminant 4n^2*D, never a square for squarefree
    # D != 1, so y = 0 only at (0, 0) and the group is cyclic.
    two_torsion = [p for p in found if p.y == 0]
    if len(two_torsion) != 1:
        raise OracleError(f"{c}: {len(two_torsion)} points of order 2")
    multiples = _curve._multiples(c, gen)
    if multiples is None:
        raise OracleError(
            f"{c}: {gen or 'a non-integral sum'} has no order up to "
            f"{_curve.MAX_TORSION_ORDER}"
        )
    total = len(multiples)
    if total not in MAZUR_CYCLIC_ORDERS:
        raise OracleError(f"{c}: impossible torsion structure Z{total}")
    if not found.issubset(multiples):
        raise OracleError(f"{c}: enumerated points do not form a group")
    # The generator, the least (x, y) among the k*gen with gcd(k, total) = 1,
    # is canonical: it is the first generator of the sorted elements.
    generator = min(multiples[k] for k in range(1, total) if math.gcd(k, total) == 1)
    return TorsionGroup((INFINITY, *sorted(multiples[1:])), generator)
