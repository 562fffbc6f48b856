import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import evaluate, rat_sqrt

from eventorsion import intmath
from eventorsion.curve import CurveMND, normalize
from eventorsion.intmath import (
    FactoringLimitError,
    divisors,
    factorization,
    int_sqrt,
    integer_roots,
    is_squarefree,
    squarefree_split,
)
from eventorsion.oracle import five_division_coeffs, three_torsion_coeffs


def brute_squarefree(x: int) -> bool:
    """Independent check: no prime square divides x."""
    x = abs(x)
    p = 2
    while p * p <= x:
        if x % (p * p) == 0:
            return False
        p += 1
    return True


def next_prime(x: int) -> int:
    """Least prime >= x, by trial division."""
    while x < 2 or any(x % p == 0 for p in range(2, math.isqrt(x) + 1)):
        x += 1
    return x


# The primes below 1000, by trial division, and the ones at either end that
# the planted-input strategy below draws more often.
PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % r for r in range(2, math.isqrt(p) + 1))]
EDGE_PRIMES = [2, 3, 991, 997]
# The primes in (1000, 2^14), by trial division: squarefree_split's second
# ladder clears them, leaving no prime factor below 16411 = next_prime(2^14).
PRIMES_1000_TO_2_14 = [p for p in range(1001, 1 << 14) if all(p % r for r in range(2, math.isqrt(p) + 1))]
# Cofactors with no prime factor below 1000, beside a drawn prime >= 1009:
# int_sqrt splits those below 1009^3 after the first ladder and those below
# 16411^3 after the second, factorization the rest.
COFACTORS = [
    1,
    1009**2,
    1009 * 1013,
    1009**3,
    next_prime(1009**3 + 1),
    16381**2,
    16411**3,
    next_prime(16411**3 + 1),
]
# Planted inputs +-prod p_i^e_i * cofactor: each gcd-ladder rung k holds the
# primes with e_i >= k, up to 40 rungs.
PLANTED_EXPONENTS = st.dictionaries(
    st.one_of(st.sampled_from(EDGE_PRIMES), st.sampled_from(PRIMES_BELOW_1000)),
    st.integers(min_value=1, max_value=40),
    max_size=6,
)
PLANTED_COFACTORS = st.one_of(
    st.sampled_from(COFACTORS),
    st.integers(min_value=1009, max_value=10**6).map(next_prime),
)


def trial_factorization(x: int) -> dict[int, int]:
    """Prime exponents of x >= 1, by trial division."""
    exps = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            exps[p] = exps.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        exps[x] = exps.get(x, 0) + 1
    return exps


def split_from_factorization(x: int) -> tuple[int, int]:
    d = s = 1
    for p, e in factorization(x):
        d *= p ** (e // 2)
        s *= p ** (e % 2)
    return d, s if x > 0 else -s


def strong_probable_prime(n: int, a: int) -> bool:
    """n passes the strong (Miller-Rabin) test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# psi_k, the least odd composite that passes the strong test to each of the
# first k prime bases (OEIS A014233), with its prime factors.
PSI = [
    (1, 2047, (23, 89)),
    (2, 1373653, (829, 1657)),
    (3, 25326001, (2251, 11251)),
    (4, 3215031751, (151, 751, 28351)),
    (5, 2152302898747, (6763, 10627, 29947)),
    (6, 3474749660383, (1303, 16927, 157543)),
    (7, 341550071728321, (10670053, 32010157)),
    (8, 341550071728321, (10670053, 32010157)),
    (9, 3825123056546413051, (149491, 747451, 34233211)),
    (10, 3825123056546413051, (149491, 747451, 34233211)),
    (11, 3825123056546413051, (149491, 747451, 34233211)),
    (12, 318665857834031151167461, (399165290221, 798330580441)),
    (13, 3317044064679887385961981, (1287836182261, 2575672364521)),
]


class TestIntSqrt:
    def test_zero(self):
        assert int_sqrt(0) == 0

    def test_square(self):
        assert int_sqrt(81) == 9

    def test_non_square(self):
        assert int_sqrt(24) is None

    def test_negative(self):
        assert int_sqrt(-4) is None

    def test_random_roundtrip(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            r = rng.randrange(0, 10**18)
            assert int_sqrt(r * r) == r

    @given(st.integers(min_value=0, max_value=10**12))
    def test_never_wrong(self, x):
        r = int_sqrt(x)
        if r is None:
            import math

            f = math.isqrt(x)
            assert f * f != x
        else:
            assert r * r == x


class TestSquarefreeSplit:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (8, (2, 2)),
            (-12, (2, -3)),
            (7, (1, 7)),
            (1, (1, 1)),
            (-1, (1, -1)),
            (360, (6, 10)),
            # Cofactors past the primes below 1000: below 1009^3 they are
            # split by int_sqrt alone, from 1009^3 on by the second ladder.
            (1009 * 1013, (1, 1009 * 1013)),
            (-(1009**2), (1009, -1)),
            (2 * 1013**2, (1013, 2)),
            (1009**3, (1009, 1009)),
            (1009**2 * 1013, (1009, 1013)),
            # Many rungs of the gcd ladder, and every prime below 1000 at once.
            (2**64, (2**32, 1)),
            (-(997**9), (997**4, -997)),
            (math.prod(PRIMES_BELOW_1000) ** 2, (math.prod(PRIMES_BELOW_1000), 1)),
            # Below 1009^3, so a prime missing from the ladder would reach
            # int_sqrt as the cofactor and stay in the squarefree part.
            (991**3, (991, 991)),
            (-(997**3), (997, -997)),
            # From 1009^3 on, the second ladder clears the primes below 2^14.
            (1009 * 1013 * 1019, (1, 1009 * 1013 * 1019)),
            (1009**2 * 16411, (1009, 16411)),
            # Below 16411^3, settled by the second ladder and int_sqrt: a
            # prime below 2^14 missing from its product would stay in the
            # squarefree part.
            (16381**3, (16381, 16381)),
            (16381**2 * 16411, (16381, 16411)),
            # From 16411^3 on, by factorization.
            (16411**3, (16411, 16411)),
            (16411**2 * 16417, (16411, 16417)),
        ],
    )
    def test_examples(self, x, expected):
        assert squarefree_split(x) == expected
        assert is_squarefree(x) == (expected[0] == 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_split(0)

    def test_screens(self):
        assert len(PRIMES_1000_TO_2_14) == 1732
        assert intmath._SCREENS == (
            (math.prod(PRIMES_BELOW_1000), 1009**3),
            (math.prod(PRIMES_1000_TO_2_14), next_prime(1 << 14) ** 3),
        )

    def test_below_16411_cubed_factors_nothing(self, monkeypatch):
        # Every cofactor in [1009^3, 16411^3) is split by the two ladders and
        # int_sqrt, and so is a large-height case-III D = a^2 - c^2 =
        # -1291^2 * 263183 in normalize and in the curve's re-test.
        rng = random.Random(14)
        cofactors = [1009**3, 1009 * 1013 * 1019, 16381**3, 16381**2 * 16411, 16411**3 - 1]
        cofactors += [rng.randrange(1009**3, 16411**3) for _ in range(200)]
        cofactors += [rng.choice(PRIMES_1000_TO_2_14) ** 2 * rng.randrange(1009, 16411) for _ in range(100)]
        xs = [k * c for c in cofactors for k in (1, -12)]
        want = [split_from_factorization(x) for x in xs]
        a, c, d = 701749, 964932, -438642105623
        assert d == a * a - c * c
        m, n = a * a + 2 * a * c + d, 2 * (a + c)
        curve = normalize(m, n, d)
        assert curve.D == -263183 and curve.n % 1291 == 0

        def refuse(x):
            raise AssertionError(f"factorization({x}) called")

        monkeypatch.setattr(intmath, "factorization", refuse)
        intmath.is_squarefree.cache_clear()
        assert [squarefree_split(x) for x in xs] == want
        assert normalize(m, n, d) == curve

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0))
    def test_reconstruction(self, x):
        d, s = squarefree_split(x)
        assert d >= 1
        assert d * d * s == x
        assert brute_squarefree(s)

    @given(st.integers(min_value=-(10**12), max_value=10**12).filter(lambda x: x != 0))
    @settings(max_examples=300)
    def test_matches_factorization(self, x):
        assert squarefree_split(x) == split_from_factorization(x)

    @given(
        st.integers(min_value=1009, max_value=10**9).map(next_prime),
        st.integers(min_value=1009, max_value=10**9).map(next_prime),
        st.sampled_from([1, -1, 2, -6]),
    )
    @settings(max_examples=200)
    def test_two_large_primes_match_factorization(self, p, q, k):
        assert squarefree_split(k * p * q) == split_from_factorization(k * p * q)

    @given(PLANTED_EXPONENTS, PLANTED_COFACTORS, st.sampled_from([1, -1]))
    @settings(max_examples=300)
    def test_planted_exponents_match_factorization(self, exps, cofactor, sign):
        x = sign * cofactor * math.prod(p**e for p, e in exps.items())
        want = split_from_factorization(x)
        assert squarefree_split(x) == want
        assert is_squarefree(x) == (want[0] == 1)

    def test_large_prime_square_cofactor(self):
        p = 1000003
        assert squarefree_split(p * p) == (p, 1)
        assert squarefree_split(2 * p * p) == (p, 2)

    def test_large_prime_cube_cofactor(self):
        p = 1000003
        assert squarefree_split(p**3) == (p, p)

    def test_large_semiprime_cofactor(self):
        p, q = 1000003, 1000033
        assert squarefree_split(p * q) == (1, p * q)

    def test_square_times_prime_cofactor(self):
        p, q = 1000003, 1000033
        assert squarefree_split(p * p * q) == (p, q)


class TestDivisors:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            divisors(0)

    @given(st.integers(min_value=1, max_value=10**5))
    def test_divisors_sorted_and_complete(self, x):
        ds = divisors(x)
        assert list(ds) == sorted(ds)
        assert all(x % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, x + 1) if x % d == 0)

    @pytest.mark.parametrize(
        "x,count",
        [
            (6515208, 128),  # 2^3 * 3^3 * 7 * 31 * 139
            (12252240, 480),  # 2^4 * 3^2 * 5 * 7 * 11 * 13 * 17
            (2**20, 21),
            (3**12, 13),
            (1, 1),
            (1000003, 2),
            (-6515208, 128),
        ],
    )
    def test_matches_brute_force(self, x, count):
        small = [d for d in range(1, math.isqrt(abs(x)) + 1) if x % d == 0]
        brute = sorted(set(small) | {abs(x) // d for d in small})
        assert divisors(x) == tuple(brute)
        assert len(brute) == count


def poly_from_roots(lead: int, roots, cofactor=(1,)) -> list[int]:
    """Coefficients, leading first, of lead * cofactor * prod (x - r)."""
    f = [lead * a for a in cofactor]
    for r in roots:
        f = [a - r * b for a, b in zip(f + [0], [0] + f)]
    return f


def has_repeated_factor(f) -> bool:
    """gcd(f, f') over Q has positive degree, by Euclid on Fractions."""
    from fractions import Fraction

    d = len(f) - 1
    a = [Fraction(c) for c in f]
    b = [Fraction(c * (d - i)) for i, c in enumerate(f[:-1])]
    while any(b):
        while b and b[0] == 0:
            del b[0]
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [x - q * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
        a, b = b, a
    return len(a) > 1


def fujiwara_bits(f) -> int:
    """1 + max(0, max_i ceil((bitlen(a_i) - lb)/i)) over the nonzero a_i,
    2^lb <= |lead|, by Fractions: the bound the root lift must reach."""
    from fractions import Fraction

    lb = abs(f[0]).bit_length() - 1
    return 1 + max([0] + [math.ceil(Fraction(abs(a).bit_length() - lb, i)) for i, a in enumerate(f[1:], 1) if a])


def fujiwara_edge_poly(lead: int, d: int, c: int) -> tuple[list[int], int]:
    """(f, z): f = |lead|*x^d - a_1*x^(d-1) - ... - a_d, up to sign, with
    a_1 .. a_(d-1) = 2^(lb + i*c) - 1 at the top of their bit length and
    a_d, of at most lb + d*c bits, chosen to make z a root, z the largest
    integer for which one exists; so fujiwara_bits(f) = c + 1 and, for
    c >= 2, z lies in [2^c, 2^(c+1))."""
    lb = abs(lead).bit_length() - 1
    a = [(1 << (lb + i * c)) - 1 for i in range(1, d)]
    top = 1 << (lb + d * c)

    def last(z):
        return abs(lead) * z**d - sum(ai * z ** (d - 1 - i) for i, ai in enumerate(a))

    lo, hi = 1 << c, 1 << (c + 1)
    assert last(lo) < top <= last(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if last(mid) < top:
            lo = mid
        else:
            hi = mid
    assert -top < last(lo) != 0
    f = [abs(lead), *[-x for x in a], -last(lo)]
    return (f if lead > 0 else [-x for x in f]), lo


EDGE_LEADS = (1, -1, 3, 1 << 19, -(1 << 19), 10**6, -(10**6))


class TestIntegerRoots:
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.integers(min_value=-(10**20), max_value=10**20),
                    max_size=d,
                    unique=True,
                ),
                st.integers(min_value=1, max_value=50),
            )
        )
    )
    @settings(max_examples=300)
    def test_planted_roots(self, args):
        # 2x^j + 1 has no integer root and no repeated root, so the planted
        # roots are all of them.
        d, roots, lead = args
        j = d - len(roots)
        cofactor = (2, *[0] * (j - 1), 1) if j else (1,)
        f = poly_from_roots(lead, roots, cofactor)
        assert len(f) == d + 1
        assert integer_roots(f) == sorted(roots)

    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6))
    @settings(max_examples=500)
    def test_random_monic_against_brute_force(self, tail):
        # Every integer root lies inside the Cauchy bound 1 + max|a_i| <= 21.
        f = [1, *tail]
        brute = [x for x in range(-21, 22) if evaluate(f, x) == 0]
        try:
            got = integer_roots(f)
        except ValueError:
            assert has_repeated_factor(f), f
        else:
            assert got == brute

    @pytest.mark.parametrize(
        "f,roots",
        [
            ([2, -6], [3]),
            ([2, -3], []),
            ([7], []),
            ([1, 0], [0]),
            ([1, 0, 0, 0], [0]),
            ([0, 0, 1, -3], [3]),
            ([1, -2, -3, 0, 0], [-1, 0, 3]),
            ([3, 0, 0, 0, 5, 0, 0], [0]),
        ],
    )
    def test_small_and_x_power_cases(self, f, roots):
        assert integer_roots(f) == roots

    @given(
        st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=5, unique=True),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=200)
    def test_x_power_stripped(self, roots, k):
        roots = [r for r in roots if r]
        f = poly_from_roots(3, roots, (1, 0, 5)) + [0] * k
        assert integer_roots(f) == sorted(roots + [0])

    def test_prime_walk_passes_1000(self):
        # (x - 1)(x - 1 - P) with P the product of the primes below 1000 has
        # a double root mod each of them; the first usable prime is 1009.
        big = math.prod(intmath._SMALL_PRIMES)
        f = poly_from_roots(1, [1, 1 + big])
        assert all(big % p == 0 for p in intmath._SMALL_PRIMES)
        assert integer_roots(f) == [1, 1 + big]

    def test_primes_extend_past_the_sieve(self):
        primes = list(islice(intmath._primes(), 4000))
        assert primes[-1] > 2 * intmath._PRIMES[-1]
        brute = [n for n in range(2, primes[-1] + 1) if all(n % p for p in range(2, math.isqrt(n) + 1))]
        assert primes == brute

    @pytest.mark.parametrize("f", [[1, 0, -3, 2], [4, -4, 1], [1, -15, 75, -125]])
    def test_repeated_root_raises(self, f):
        # (x - 1)^2 (x + 2), (2x - 1)^2 and (x - 5)^3: every prime fails.
        assert has_repeated_factor(f)
        with pytest.raises(ValueError, match="not squarefree"):
            integer_roots(f)

    def test_huge_coefficients_not_squarefree_raises(self):
        # (x - 1)^2 (x + 10^600): about 8,000 primes fail, each at the double
        # root 1, before ValueError.
        f = poly_from_roots(1, [1, 1, -(10**600)])
        with pytest.raises(ValueError, match="not squarefree"):
            integer_roots(f)

    def test_large_double_root_raises_quickly(self):
        # (x - 10^60)^2 (x + 3): every prime is bad, and the double root sits
        # at a residue the scan would reach only after ~p/2 steps; the
        # gcd(f, f') mod p pre-test rejects each prime at once.
        import time

        f = poly_from_roots(1, [10**60, 10**60, -3])
        start = time.monotonic()
        with pytest.raises(ValueError, match="not squarefree"):
            integer_roots(f)
        assert time.monotonic() - start < 0.5

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=7),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    @settings(max_examples=300)
    def test_repeated_factor_mod_matches_sympy(self, f, p):
        sympy = pytest.importorskip("sympy")
        if f[0] % p == 0:
            f[0] += 1
        d = len(f) - 1
        deriv = [a * (d - i) for i, a in enumerate(f[:-1])]
        x = sympy.Symbol("x")
        fp = sympy.Poly(f, x, modulus=p)
        want = fp.gcd(sympy.Poly(deriv, x, modulus=p)).degree() > 0
        assert intmath._repeated_factor_mod([a % p for a in f], deriv, p) == want

    def test_huge_psi5_has_no_root(self):
        # psi_5 of a curve with a 2,500-digit m: its coefficients run to
        # about 10^30000, and the bad-prime bound is read from bit lengths.
        f = five_division_coeffs(CurveMND(10**2500 + 7, 2, 2))
        assert integer_roots(f) == []

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            integer_roots([0, 0])

    @pytest.mark.parametrize("lead", [1, -1, 2**20, -(2**20)])
    def test_root_bits_tight_on_rescaled_quadratic(self, lead):
        # x^2 - x - 2 = (x - 2)(x + 1) rescaled by 2^s has roots 2^(s+1) and
        # -2^s, and its bound is 2^(s+2): the larger root sits at half of it.
        for s in range(64):
            f = [lead, -lead << s, -lead << (2 * s + 1)]
            k = intmath._root_bits(f)
            assert k == fujiwara_bits(f) == s + 2
            assert integer_roots(f) == [-(1 << s), 1 << (s + 1)]

    @pytest.mark.parametrize("lead", EDGE_LEADS)
    def test_root_bits_bounds_edge_roots(self, lead):
        for d in (2, 3, 4):
            for c in range(2, 40):
                f, z = fujiwara_edge_poly(lead, d, c)
                k = intmath._root_bits(f)
                assert k == fujiwara_bits(f) == c + 1
                assert 1 << (k - 1) <= z < 1 << k

    @pytest.mark.parametrize("lead", EDGE_LEADS)
    def test_roots_at_the_edge_of_the_bound(self, lead):
        # A root in [2^(k-1), 2^k) is recovered only if the lift runs past
        # 2^(k+1): a modulus p^j in (2^k, 2|z|] leaves the wrong residue.
        for d in (2, 3, 4):
            for c in range(2, 72):
                f, z = fujiwara_edge_poly(lead, d, c)
                assert z in integer_roots(f)
                mirrored = [a * (-1) ** (d - i) for i, a in enumerate(f)]
                assert -z in integer_roots(mirrored)

    @pytest.mark.parametrize("lead", [1, -1, 7, -(10**6)])
    def test_planted_root_times_x_power_plus_one(self, lead):
        # (x - R)(x^j + 1): R sets the bound, so 2^k is at most 8|R|, and
        # x^j + 1 adds the root -1 for odd j.
        rng = random.Random(lead)
        for j in range(1, 12):
            for digits in (1, 5, 20, 40):
                r = rng.choice((-1, 1)) * rng.randrange(2, 10**digits + 2)
                f = poly_from_roots(lead, [r], (1, *[0] * (j - 1), 1))
                assert abs(r) < 1 << intmath._root_bits(f) <= 8 * abs(r)
                assert integer_roots(f) == sorted({r, -1} if j % 2 else {r})

    def test_lift_stops_at_the_fujiwara_bound(self, monkeypatch):
        # The largest modulus of the lift is the square of one at most
        # 2^(k+1); a lift to the Cauchy bound, about q^6 for psi_5 and q^2
        # for psi_3, would run one to three squarings further.
        seen = []
        horner = intmath._horner

        def recording(f, x, mod):
            seen.append(mod)
            return horner(f, x, mod)

        monkeypatch.setattr(intmath, "_horner", recording)
        cases = [
            (five_division_coeffs(CurveMND(95, 32, 10)), [9, 81]),
            (three_torsion_coeffs(CurveMND(-366, 30, -15)), [256]),
        ]
        for f, roots in cases:
            seen.clear()
            assert integer_roots(f) == roots
            assert max(seen) < (2 << fujiwara_bits(f)) ** 2

    def test_matches_sympy_ground_roots(self):
        # Coefficients of 10-60 digits, where the Cauchy bound exceeds
        # Fujiwara's the most; planted factors a*x - b with a in {1, 2, 3}
        # give integer and non-integer rational roots.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(39)
        done = 0
        while done < 80:
            d = rng.randint(1, 12)
            planted = rng.randint(0, min(3, d))
            f = [
                rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
                for digits in (rng.randint(10, 60) for _ in range(d - planted + 1))
            ]
            for _ in range(planted):
                a, b = rng.randint(1, 3), rng.randrange(-(10**20), 10**20)
                f = [p * a - q * b for p, q in zip(f + [0], [0] + f)]
            poly = sympy.Poly(f, x)
            if not poly.is_sqf:
                continue
            done += 1
            want = sorted(int(r) for r in poly.ground_roots() if r.is_integer)
            assert integer_roots(f) == want, f


class TestFactorization:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (997, ((997, 1),)),
            (2 * 997, ((2, 1), (997, 1))),
            (991 * 997, ((991, 1), (997, 1))),
            (-(997**9), ((997, 9),)),
            (2**64, ((2, 64),)),
            (math.prod(PRIMES_BELOW_1000), tuple((p, 1) for p in PRIMES_BELOW_1000)),
            (math.prod(PRIMES_BELOW_1000) ** 2, tuple((p, 2) for p in PRIMES_BELOW_1000)),
        ],
    )
    def test_examples(self, x, expected):
        assert factorization(x) == expected

    @given(PLANTED_EXPONENTS, PLANTED_COFACTORS, st.sampled_from([1, -1]))
    @settings(max_examples=300)
    def test_planted_exponents(self, exps, cofactor, sign):
        # Checked against the planted exponents themselves; the cofactor has
        # no prime below 1000, so its primes are new keys.
        x = sign * cofactor * math.prod(p**e for p, e in exps.items())
        assert factorization(x) == tuple(sorted((exps | trial_factorization(cofactor)).items()))

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200)
    def test_reconstruction(self, x):
        prod = 1
        for p, e in factorization(x):
            assert brute_squarefree(p) and all(p % r for r in range(2, min(p, 100)))
            prod *= p**e
        assert prod == x

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        xs = [rng.randrange(2, 10**24) for _ in range(100)]
        for _ in range(5):
            p = sympy.nextprime(rng.randrange(10**9, 10**12))
            q = sympy.nextprime(rng.randrange(10**9, 10**12))
            xs.append(p * q)
        for k, hi in ((2, 10**12), (3, 10**8), (5, 10**7)):
            p = sympy.nextprime(rng.randrange(10**6, hi))
            xs += [p**k, 3 * p**k]
        # Strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..37.
        xs += [3215031751, 3825123056546413051]
        # Composite cofactors left once the primes below 1000 are divided
        # out, the first of them just above 10^6.
        xs += [1009**2, 1009 * 1013, 2 * 1009 * 9973]
        for x in xs:
            want = tuple(sorted(sympy.factorint(x).items()))
            assert factorization(x) == want, x

    @pytest.mark.parametrize("k,psi,factors", PSI)
    def test_miller_rabin_bounds(self, k, psi, factors):
        # Below psi_k the first k bases prove primality; psi_k itself is the
        # composite that passes them.
        assert intmath._MR_BOUNDS[k - 1] == psi == math.prod(factors)
        assert all(strong_probable_prime(psi, a) for a in intmath._SMALL_PRIMES[:k])
        if k < 13:
            assert factorization(psi) == tuple((p, 1) for p in factors)

    def test_past_the_last_bound_raises(self):
        psi13 = PSI[-1][1]
        with pytest.raises(FactoringLimitError, match=f"cannot prove {psi13} prime"):
            factorization(psi13)

    def test_out_of_reach_raises(self):
        import time

        p, q = 1000000000000037, 1000000000000091  # primes above 10^15
        start = time.monotonic()
        with pytest.raises(FactoringLimitError, match=str(p * q)):
            factorization(p * q)
        assert time.monotonic() - start < 20

    def test_is_squarefree(self):
        assert is_squarefree(30)
        assert not is_squarefree(18)
        assert is_squarefree(-2)


class TestRatSqrt:
    def test_square(self):
        from fractions import Fraction

        assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)

    def test_non_square(self):
        from fractions import Fraction

        assert rat_sqrt(Fraction(2, 3)) is None
        assert rat_sqrt(Fraction(-1, 4)) is None
