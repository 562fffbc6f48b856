"""Independent ground truth: full torsion enumeration by bounded search.

Every rational torsion point on the integral model y^2 = x^3 + 2m*x^2 + q*x
has integer coordinates with y = 0 or y^2 dividing the discriminant, so the
whole group is found by running over those finitely many y, solving
x^3 + 2m*x^2 + q*x = y^2 exactly for its integer roots x, and keeping the
points of finite order.

Before enumerating, the oracle bounds the group's order by reduction: at an
odd prime p of good reduction, rational torsion injects into E(F_p)
(Silverman, AEC VII.3.1 with VII.3.4), so #T divides the gcd g of #E(F_p)
over the first six odd primes up to 47 that do not divide the discriminant.
When g equals the number of points of order dividing 2 (for a family
member, when g = 2), those points are the whole group and no enumeration
runs.  Otherwise the enumeration runs and stops once it has found g points,
infinity included; when no listed prime is usable (g = 0), or with
weak_bound=True, it runs in full.  Neither step uses anything from the
classifier: the structural inputs are the integrality of torsion points,
the injection theorem and Mazur's list of groups, which every returned
group is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from . import curve as _curve
from . import intmath
from .curve import INFINITY, CurveMND, Point

# The fifteen groups that occur as rational torsion subgroups.
MAZUR_STRUCTURES = frozenset(
    [f"Z{k}" for k in (*range(1, 11), 12)] + [f"Z2xZ{2 * k}" for k in range(1, 5)]
)

# Residue filter used to discard y-candidates that cannot correspond to an
# integer point; modular reduction is exact, so no true candidate is lost.
_FILTER_MODULI = (16, 9, 5, 7, 11, 13)

# Odd primes tried for the reduction bound, in order; the bound uses the
# first _REDUCTION_PRIME_COUNT of them that do not divide the discriminant.
_REDUCTION_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_REDUCTION_PRIME_COUNT = 6


def _quadratic_character(p: int) -> tuple[int, ...]:
    """chi_p(r) for r = 0..p-1: 0 at 0, 1 on nonzero squares, -1 elsewhere."""
    squares = {x * x % p for x in range(1, p)}
    return tuple(0 if r == 0 else 1 if r in squares else -1 for r in range(p))


_CHARACTERS = {p: _quadratic_character(p) for p in _REDUCTION_PRIMES}


class OracleError(RuntimeError):
    """The enumerated point set does not form one of the possible groups."""


@dataclass(frozen=True)
class TorsionGroup:
    """Fully enumerated torsion group: elements, structure label, generators.

    Elements are sorted with infinity first, then by (x, y); the structure
    label is 'Z{k}' or 'Z2xZ{k}'.
    """

    elements: tuple[Point, ...]
    structure: str
    generators: tuple[Point, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_cyclic(self) -> bool:
        return not self.structure.startswith("Z2x")


def discriminant(c: CurveMND) -> int:
    """Discriminant of y^2 = x^3 + 2m*x^2 + q*x in the standard convention:
    16*q^2*(4m^2 - 4q) = 64*q^2*n^2*D.  Nonzero for every family member."""
    q = c.q
    return 64 * q * q * c.n * c.n * c.D


def reduction_bound(c: CurveMND) -> int:
    """A multiple of the torsion order: gcd of #E(F_p) over good odd primes.

    #E(F_p) = p + 1 + sum_x chi_p(x^3 + 2m*x^2 + q*x).  Primes dividing the
    discriminant are skipped; the gcd stops early at 2, the least it can be
    since (0, 0) has order 2.  Returns 0 when no listed prime is usable.
    """
    disc = discriminant(c)
    g = 0
    used = 0
    for p in _REDUCTION_PRIMES:
        if disc % p == 0:
            continue
        chi = _CHARACTERS[p]
        m2 = 2 * c.m % p
        q = c.q % p
        count = p + 1 + sum(chi[((x + m2) * x + q) * x % p] for x in range(p))
        g = math.gcd(g, count)
        used += 1
        if g == 2 or used == _REDUCTION_PRIME_COUNT:
            break
    return g


def _delta_factorization(c: CurveMND) -> list[tuple[int, int]]:
    fac: dict[int, int] = {2: 6}
    for base, mult in ((c.n, 2), (c.q, 2), (c.D, 1)):
        for p, e in intmath.factorization(base):
            fac[p] = fac.get(p, 0) + mult * e
    return sorted(fac.items())


def _candidate_ys(items: list[tuple[int, int]], weak_bound: bool) -> Iterator[int]:
    """All y > 0 with y^2 | delta (y | delta when relaxed), one at a time."""
    powers = [
        [p**k for k in range((e if weak_bound else e // 2) + 1)] for p, e in items
    ]
    return map(math.prod, itertools.product(*powers))


def _residue_tables(c: CurveMND) -> list[tuple[int, set[int]]]:
    tables = []
    m2 = 2 * c.m
    q = c.q
    for mod in _FILTER_MODULI:
        attain = {(((x + m2) * x + q) * x) % mod for x in range(mod)}
        tables.append((mod, attain))
    return tables


def torsion_group(c: CurveMND, weak_bound: bool = False) -> TorsionGroup:
    """Enumerate the full rational torsion group of the curve.

    weak_bound=True relaxes the candidate bound from y^2 | delta to
    y | delta, as a paranoia check against the divisor-bound convention;
    it only ever enlarges the candidate set, and it skips the reduction
    bound, so every candidate is tried.
    """
    m2 = 2 * c.m
    q = c.q
    # Every point with y = 0 has order 2.
    found = {Point(x, 0): 2 for x in intmath.cubic_integer_roots(m2, q, 0)}
    # #T divides the bound, and found plus infinity lies in T, so once they
    # are as many as the bound allows they are all of T.
    bound = 0 if weak_bound else reduction_bound(c)
    if len(found) + 1 == bound:
        return _assemble(c, found)

    tables = _residue_tables(c)
    for y in _candidate_ys(_delta_factorization(c), weak_bound):
        y2 = y * y
        if any(y2 % mod not in attain for mod, attain in tables):
            continue
        for x in intmath.cubic_integer_roots(m2, q, -y2):
            p = Point(x, y)
            k = _curve.order(c, p)
            if k is not None:
                # Non-torsion integer points do occur; only finite orders
                # are kept.
                found[p] = k
                found[Point(x, -y)] = k
                if len(found) + 1 == bound:
                    return _assemble(c, found)
    return _assemble(c, found)


def _assemble(c: CurveMND, found: dict[Point, int]) -> TorsionGroup:
    elements = tuple(
        [INFINITY] + sorted(found, key=lambda p: (p.x, p.y))
    )
    total = len(elements)
    two_torsion = [p for p in found if p.y == 0]

    def first_of_order(k: int) -> Point | None:
        # Elements are sorted, so the generator choice is canonical.
        return next((p for p in elements[1:] if found[p] == k), None)

    if len(two_torsion) <= 1:
        if total == 1:
            return TorsionGroup(elements, "Z1", ())
        gen = first_of_order(total)
        if gen is None:
            raise OracleError(f"{c}: no element of order {total} in cyclic group")
        group = TorsionGroup(elements, f"Z{total}", (gen,))
    elif len(two_torsion) == 3:
        half = total // 2
        gen = first_of_order(half)
        if gen is None:
            raise OracleError(f"{c}: no element of order {total}/2")
        cyc = _multiples(c, gen, half)
        extra = next(
            (t for t in sorted(two_torsion, key=lambda p: p.x) if t not in cyc), None
        )
        if extra is None:
            raise OracleError(f"{c}: 2-torsion not split")
        group = TorsionGroup(elements, f"Z2xZ{half}", (extra, gen))
    else:
        raise OracleError(f"{c}: {len(two_torsion)} points of order 2")

    if group.structure not in MAZUR_STRUCTURES:
        raise OracleError(f"{c}: impossible torsion structure {group.structure}")
    if _span(c, group) != set(elements):
        raise OracleError(f"{c}: enumerated points do not form a group")
    return group


def _multiples(c: CurveMND, p: Point, k: int) -> set[Point]:
    out = {INFINITY}
    acc = INFINITY
    for _ in range(k):
        acc = _curve._add_raw(c, acc, p)
        out.add(acc)
    return out


def _span(c: CurveMND, group: TorsionGroup) -> set[Point]:
    if not group.generators:
        return {INFINITY}
    if group.is_cyclic:
        return _multiples(c, group.generators[0], group.order)
    extra, gen = group.generators
    cyc = _multiples(c, gen, group.order // 2)
    return cyc | {_curve._add_raw(c, extra, p) for p in cyc}


def assert_family_shape(group: TorsionGroup, c: CurveMND) -> bool:
    """True when the group is cyclic of even order 2..12, the only shapes a
    family member can have (its cubic has exactly one rational root)."""
    return group.is_cyclic and group.order in (2, 4, 6, 8, 10, 12)
