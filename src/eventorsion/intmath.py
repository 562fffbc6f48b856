"""Exact integer primitives: perfect squares, integer roots of squarefree
polynomials of any degree, factorization, squarefree splitting, divisors.

Everything runs on Python's arbitrary-precision integers (and Fraction for
the one rational helper); no floating point is used anywhere in the package.

`integer_roots` solves a squarefree polynomial of any degree p-adically
(Hensel lifting from a prime at which every root is simple), factors
nothing, and raises ValueError on a non-squarefree one after a number of
bad primes bounded by the bit lengths of its coefficients.

Factoring divides out the primes below 1000, proves larger cofactors prime
with deterministic Miller-Rabin and splits composite ones with Brent's
variant of Pollard rho.  Results are exact.  Two kinds of cofactor are out
of reach and raise FactoringLimitError instead of a guess or a stall: a
probable prime at or above 3.3*10^24, where the Miller-Rabin bases are no
longer proven, and a composite that rho cannot split within its fixed step
budget, which happens when its smallest prime factor is beyond ~10^15.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence


class FactoringLimitError(ArithmeticError):
    """A cofactor can be neither proven prime nor split within the budget."""


class SquarefreeSplit(NamedTuple):
    square_part: int      # d >= 1
    squarefree_part: int  # carries the sign of the input


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(1000)
# With every prime below 1000 divided out, a composite cofactor is at least
# 1009**2, so a cofactor below this bound is prime.
_PRIME_BELOW = 10**6
# Miller-Rabin with the first 13 primes as bases is correct for every n below
# _MR_PROVEN_BOUND (Sorenson and Webster 2015).
_MR_BASES = _SMALL_PRIMES[:13]
_MR_PROVEN_BOUND = 3317044064679887385961981
# Steps x -> x*x + c mod n that Brent's rho may take on one cofactor: 2-4 s
# of Python 3.11 on one core.  Finding a prime factor p takes ~sqrt(p) steps;
# on 400 semiprimes the most was 8.3*sqrt(p), half the budget at p = 10^12.
_RHO_BUDGET = 1 << 24
# Steps between two gcds in Brent's rho.
_RHO_BATCH = 128


def int_sqrt(x: int) -> int | None:
    """r >= 0 with r*r == x, or None when x is not a perfect square."""
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def rat_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when x is not a square."""
    if x < 0:
        return None
    num = int_sqrt(x.numerator)
    if num is None:
        return None
    den = int_sqrt(x.denominator)
    if den is None:
        return None
    return Fraction(num, den)


def _primes() -> Iterator[int]:
    """Every prime in ascending order, from a sieve doubled on demand."""
    yield from _SMALL_PRIMES
    limit = _SMALL_PRIMES[-1]
    while True:
        primes = _sieve(2 * limit)
        yield from primes[bisect_right(primes, limit) :]
        limit *= 2


def _horner(f: Sequence[int], x: int, mod: int) -> int:
    v = 0
    for a in f:
        v = (v * x + a) % mod
    return v


def integer_roots(coeffs: Sequence[int]) -> list[int]:
    """Ascending distinct integer roots of the squarefree polynomial
    coeffs[0]*x^d + coeffs[1]*x^(d-1) + ... + coeffs[d].

    The factor x^k is stripped (0 is a root when k > 0).  The rest is solved
    p-adically: the first prime p that does not divide the leading
    coefficient and at which every root mod p is simple; each root mod p is
    Newton-lifted until p^k exceeds twice the Cauchy bound on |root|, and
    the symmetric residue is kept when it is an exact root.  A prime fails
    only if it divides lead*disc(f), and by Mahler's bound
    |disc(f)| <= d^d * |f|_2^(2d-2) that has fewer prime factors than
    bits(lead) + d*bits(d) + (d-1)*bits(|f|_2^2), bit lengths summed; past
    that many failures f is not squarefree and ValueError is raised.
    """
    f = list(coeffs)
    while f and f[0] == 0:
        del f[0]
    if not f:
        raise ValueError("the zero polynomial vanishes at every integer")
    roots = []
    if f[-1] == 0:
        roots.append(0)
        while f[-1] == 0:
            f.pop()
    d = len(f) - 1
    if d == 0:
        return roots
    lead = f[0]
    bound = 1 + max(abs(a) for a in f[1:]) // abs(lead)
    deriv = [a * (d - i) for i, a in enumerate(f[:-1])]
    norm2 = sum(a * a for a in f)
    max_failures = abs(lead).bit_length() + d * d.bit_length() + (d - 1) * norm2.bit_length()
    failures = 0
    for p in _primes():
        residues = []
        if lead % p:
            fp = [a % p for a in f]
            for r in range(p):
                if _horner(fp, r, p) == 0:
                    if _horner(deriv, r, p) == 0:
                        break
                    residues.append(r)
            else:
                break
        failures += 1
        if failures > max_failures:
            raise ValueError(f"{list(coeffs)} is not squarefree")
    for r in residues:
        mod = p
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _horner(f, r, mod) * pow(_horner(deriv, r, mod), -1, mod)) % mod
        root = r if 2 * r <= mod else r - mod
        value = 0
        for a in f:
            value = value * root + a
        if value == 0:
            roots.append(root)
    return sorted(roots)


def _is_prime(n: int) -> bool:
    """Primality of an odd n >= _PRIME_BELOW with no prime factor below 1000.

    Raises FactoringLimitError for a probable prime at or above
    _MR_PROVEN_BOUND, where passing every base proves nothing.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BOUND:
        raise FactoringLimitError(
            f"cannot prove {n} prime: Miller-Rabin is proven only below "
            f"{_MR_PROVEN_BOUND}"
        )
    return True


def _proper_divisor(n: int) -> int:
    """A divisor 1 < g < n of the composite n (Brent 1980)."""
    r = math.isqrt(n)
    if r * r == n:
        return r
    steps = 0
    c = 0
    while True:
        c += 1
        y, q, g, span = 2, 1, 1, 1
        while g == 1:
            # Each round walks span steps to move x, then span more.
            steps += 2 * span
            if steps > _RHO_BUDGET:
                raise FactoringLimitError(
                    f"cannot split {n}: Pollard rho found no factor in "
                    f"{_RHO_BUDGET} steps"
                )
            x = y
            for _ in range(span):
                y = (y * y + c) % n
            k = 0
            while k < span and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, span - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            span *= 2
        if g == n:
            # The batch product hit every factor at once; redo it a step at
            # a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=1 << 15)
def factorization(x: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of |x| as ((p, e), ...) with ascending p.  x != 0.

    Divides out the primes below 1000, then splits what is left with
    Brent's rho, proving each part prime with Miller-Rabin.  Raises
    FactoringLimitError for a cofactor out of reach (see the module
    docstring); never returns a factor that is not proven prime.
    """
    if x == 0:
        raise ValueError("cannot factor 0")
    a = abs(x)
    exps: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > a:
            break
        if a % p == 0:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            exps[p] = e
    stack = [a] if a > 1 else []
    while stack:
        c = stack.pop()
        if c < _PRIME_BELOW or _is_prime(c):
            exps[c] = exps.get(c, 0) + 1
        else:
            g = _proper_divisor(c)
            stack += (g, c // g)
    return tuple(sorted(exps.items()))


def squarefree_split(x: int) -> SquarefreeSplit:
    """Split x != 0 as d*d * s with s squarefree, returning (d, s)."""
    d = s = 1
    for p, e in factorization(x):
        d *= p ** (e // 2)
        if e % 2:
            s *= p
    return SquarefreeSplit(d, s if x > 0 else -s)


@lru_cache(maxsize=1 << 15)
def is_squarefree(x: int) -> bool:
    return squarefree_split(x).square_part == 1


def divisors(x: int) -> tuple[int, ...]:
    """Positive divisors of |x| != 0 in ascending order."""
    vals = [1]
    for p, e in factorization(x):
        vals = [v * p**k for v in vals for k in range(e + 1)]
    return tuple(sorted(vals))

