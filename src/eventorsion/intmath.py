"""Exact integer primitives: perfect squares, integer roots of squarefree
polynomials of any degree, factorization, squarefree splitting, divisors.

Everything runs on Python's arbitrary-precision integers; no floating point
is used anywhere in the package.

`integer_roots` solves a squarefree polynomial of any degree p-adically
(Hensel lifting from a prime at which every root is simple), factors
nothing, and raises ValueError on a non-squarefree one after a number of
bad primes bounded by the bit lengths of its coefficients.  It lifts each
root only as far as Fujiwara's bound 2M on |root|, M = max_i |a_i/lead|^(1/i)
over the coefficients a_i of x^(d-i), rounded up to a power of two from bit
lengths (`_root_bits`): a z with |z| >= 2M has
sum_i |a_i/lead| |z|^(-i) <= sum_i 2^(-i) < 1, so f(z) != 0.

`squarefree_split` reads a number's square part off a gcd ladder on a
product P of primes: g_1 = gcd(|x|, P), and with each g_k divided out,
g_(k+1) = gcd(what is left, g_k) is the product of the primes of P whose
exponent is at least k + 1.  The square part is g_2*g_4*..., the
squarefree part (g_1/g_2)*(g_3/g_4)*..., and no prime of P is divided out
on its own.  There are two screens, each a ladder: first on the product
of the primes below 1000, which leaves a cofactor with no prime factor
below 1009, so that below 1009^3 it is 1, p, p^2 or pq and its square part
is read off `int_sqrt`; then, for a larger cofactor, on the product of the
primes in (1000, 2^14), which leaves no prime factor below 16411, the
least prime above 2^14, so that the same holds below 16411^3.  Only from
16411^3 up is the cofactor factored.

Factoring takes the same first rung g_1, the product of the primes below
1000 that divide the number, and divides out only those.  It proves larger
cofactors prime with deterministic Miller-Rabin on as many prime bases as
the cofactor's size needs (the proven thresholds of OEIS A014233) and
splits composite ones with Brent's variant of Pollard rho.  Results are
exact.  Two kinds of cofactor are out of reach and raise
FactoringLimitError instead of a guess or a stall: a probable prime at or
above 3.3*10^24, where the Miller-Rabin bases are no longer proven, and a
composite that rho cannot split within its fixed step budget, which
happens when its smallest prime factor is beyond ~10^15.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import compress
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
    return tuple(compress(range(limit + 1), flags))


# The primes below 2^14, the first 168 of them below 1000.
_PRIMES = _sieve(1 << 14)
_SMALL_PRIMES = _PRIMES[: bisect_right(_PRIMES, 1000)]
# The 1,380-bit product of the primes below 1000: its gcd with a number is
# the product of the small primes dividing it, the screen in factorization
# and the first of squarefree_split's two screens.  Each screen is a gcd
# ladder on a product of primes and a bound below which the cofactor the
# ladder leaves has at most two prime factors: 1009^3 once the primes below
# 1000 are cleared, and 16411^3 once the second ladder, on the 22,072-bit
# product of the 1,732 primes in (1000, 2^14), has cleared every prime
# below 16411, the least prime above 2^14.
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_SCREENS = (
    (_SMALL_PRODUCT, 1009**3),
    (math.prod(_PRIMES[len(_SMALL_PRIMES) :]), 16411**3),
)
# With every prime below 1000 divided out, a composite cofactor is at least
# 1009**2, so a cofactor below this bound is prime.
_PRIME_BELOW = 10**6
# Miller-Rabin with the first k primes as bases is correct for every n below
# _MR_BOUNDS[k - 1], the least strong pseudoprime to all of them (OEIS
# A014233: Jaeschke 1993, Jiang and Deng 2014, Sorenson and Webster 2015).
# An entry repeats where that pseudoprime also passes the next base.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
# Bad primes that integer_roots rejects by their residue scan alone.  The
# solves of small polynomials fail at fewer, and the gcd(f, f') mod p
# pre-test that rejects the later ones would cost them more than it saves.
_SCAN_FAILURES = 7
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


def _primes() -> Iterator[int]:
    """Every prime in ascending order, from a sieve doubled on demand."""
    yield from _PRIMES
    limit = _PRIMES[-1]
    while True:
        primes = _sieve(2 * limit)
        yield from primes[bisect_right(primes, limit) :]
        limit *= 2


def _horner(f: Sequence[int], x: int, mod: int) -> int:
    v = 0
    for a in f:
        v = (v * x + a) % mod
    return v


def _repeated_factor_mod(f: Sequence[int], g: Sequence[int], p: int) -> bool:
    """gcd(f, g) mod p has positive degree, by Euclid over F_p.  f comes
    reduced mod p, with a nonzero leading coefficient; g is reduced here."""
    a = list(f)
    b = [c % p for c in g]
    while True:
        while b and b[0] == 0:
            del b[0]
        if len(b) <= 1:
            return not b and len(a) > 1
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):
            q = a[0] * inv % p
            a = [(x - q * y) % p for x, y in zip(a[1:], b[1:])] + a[len(b) :]
            while a and a[0] == 0:
                del a[0]
        a, b = b, a


def _root_bits(f: Sequence[int]) -> int:
    """k with |z| < 2^k at every complex root z of f, f[0] != 0.

    Fujiwara's bound (Tohoku Math. J. 10, 1916): with a_i = f[i] and
    M = max_i |a_i/f[0]|^(1/i), a z with |z| >= 2M is no root, since
    sum_i |a_i/f[0]| |z|^(-i) <= sum_i 2^(-i) < 1.  With 2^lb <= |f[0]|,
    each |a_i/f[0]|^(1/i) is below 2^ceil((bitlen(a_i) - lb)/i), so 2M is
    below 2^k for k = 1 + max(0, max_i ceil((bitlen(a_i) - lb)/i)) over
    the nonzero a_i.
    """
    lb = f[0].bit_length() - 1
    k = 0
    for i, a in enumerate(f[1:], 1):
        if a:
            # ceil((bitlen(a) - lb) / i)
            c = (a.bit_length() - lb + i - 1) // i
            if c > k:
                k = c
    return k + 1


def integer_roots(coeffs: Sequence[int]) -> list[int]:
    """Ascending distinct integer roots of the squarefree polynomial
    coeffs[0]*x^d + coeffs[1]*x^(d-1) + ... + coeffs[d].

    The factor x^k is stripped (0 is a root when k > 0).  The rest is solved
    p-adically: the first prime p that does not divide the leading
    coefficient and at which every root mod p is simple; each root mod p is
    Newton-lifted until p^j exceeds 2^(k+1), with 2^k the power-of-two
    Fujiwara bound on |root| of `_root_bits`, and the symmetric residue is
    kept when it is an exact root.  The lift from p^j to p^(2j) needs
    f'(r)^-1 only mod p^j, as f(r) = 0 mod p^j; it is carried along by
    Newton's inv -> inv*(2 - f'(r)*inv) mod p^(2j).  A prime fails
    only if it divides lead*disc(f), and by Mahler's bound
    |disc(f)| <= d^d * |f|_2^(2d-2) that has fewer prime factors than
    bits(lead) + d*bits(d) + (d-1)*bits(|f|_2^2), bit lengths summed; past
    that many failures f is not squarefree and ValueError is raised.  Once
    _SCAN_FAILURES primes have failed, a prime at which gcd(f, f') mod p is
    non-constant, so that p divides disc(f), fails before its residue scan.
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
    limit = 2 << _root_bits(f)
    deriv = [a * (d - i) for i, a in enumerate(f[:-1])]
    norm2 = sum(a * a for a in f)
    max_failures = abs(lead).bit_length() + d * d.bit_length() + (d - 1) * norm2.bit_length()
    failures = 0
    for p in _primes():
        residues = []
        if lead % p:
            fp = [a % p for a in f]
            if failures < _SCAN_FAILURES or not _repeated_factor_mod(fp, deriv, p):
                for r in range(p):
                    if _horner(fp, r, p) == 0:
                        slope = _horner(deriv, r, p)
                        if slope == 0:
                            break
                        residues.append((r, slope))
                else:
                    break
        failures += 1
        if failures > max_failures:
            raise ValueError(f"{list(coeffs)} is not squarefree")
    for r, slope in residues:
        mod, inv = p, pow(slope, -1, p)
        while mod <= limit:
            mod *= mod
            r = (r - _horner(f, r, mod) * inv) % mod
            if mod <= limit:
                inv = inv * (2 - _horner(deriv, r, mod) * inv) % mod
        root = r if 2 * r <= mod else r - mod
        value = 0
        for a in f:
            value = value * root + a
        if value == 0:
            roots.append(root)
    return sorted(roots)


def _is_prime(n: int) -> bool:
    """Primality of an odd n >= _PRIME_BELOW with no prime factor below 1000.

    Tries the prime bases in ascending order and stops after the k-th once
    n < _MR_BOUNDS[k - 1], below which passing the first k bases proves n
    prime.  Raises FactoringLimitError for a probable prime at or above the
    last bound, where passing every base proves nothing.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, bound in zip(_MR_BASES, _MR_BOUNDS):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    raise FactoringLimitError(
        f"cannot prove {n} prime: Miller-Rabin is proven only below "
        f"{_MR_BOUNDS[-1]}"
    )


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

    g = gcd(|x|, _SMALL_PRODUCT) is the product of the primes below 1000
    that divide x.  Only those are divided out, walking the primes upward
    until g is 1; once p^2 > g, what is left of g is one prime.  The rest
    is split with Brent's rho, each part proven prime with Miller-Rabin.
    Raises FactoringLimitError for a cofactor out of reach (see the module
    docstring); never returns a factor that is not proven prime.
    """
    if x == 0:
        raise ValueError("cannot factor 0")
    a = abs(x)
    exps = {}
    g = math.gcd(a, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            # Every prime left in g is at least p, so g is one of them.
            p = g
        elif g % p:
            continue
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        exps[p] = e
        g //= p
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
    """Split x != 0 as d*d * s with s squarefree, returning (d, s).

    Each pass of a gcd ladder (see the module docstring) takes g = g_k for
    an odd k: g/g_(k+1) goes into s and g_(k+1) into d, and the ladder stops
    at the first rung that is 1.  The screens of `_SCREENS` run in turn:
    the ladder on the primes below 1000, and for a cofactor left at or above
    1009^3 the ladder on the primes in (1000, 2^14).  A cofactor below the
    screen's bound (1009^3, then 16411^3) is 1, p, p^2 or pq, so its square
    part is its integer square root or 1 and it is never factored; one at or
    above 16411^3 goes to `factorization`.
    """
    if x == 0:
        raise ValueError("cannot factor 0")
    a = abs(x)
    d = s = 1
    for product, bound in _SCREENS:
        g = math.gcd(a, product)
        while g > 1:
            a //= g
            h = math.gcd(a, g)
            s *= g // h
            if h == 1:
                break
            a //= h
            d *= h
            g = math.gcd(a, h)
        if a < bound:
            r = int_sqrt(a)
            if r is None:
                s *= a
            else:
                d *= r
            break
    else:
        for p, e in factorization(a):
            d *= p ** (e // 2)
            if e % 2:
                s *= p
    return SquarefreeSplit(d, s if x > 0 else -s)


@lru_cache(maxsize=1 << 15)
def is_squarefree(x: int) -> bool:
    return squarefree_split(x).square_part == 1


def divisors(x: int) -> tuple[int, ...]:
    """Positive divisors of |x| != 0, ascending; p^e appends e blocks, each p * the last."""
    vals = [1]
    for p, e in factorization(x):
        for i in range(e * len(vals)):
            vals.append(vals[i] * p)
    vals.sort()
    return tuple(vals)
