import math
import time
from itertools import islice, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import add, discriminant, double_x

from eventorsion import intmath, oracle
from eventorsion.classifier import CASES
from eventorsion.curve import (
    INFINITY,
    CurveMND,
    InvalidCurveError,
    Point,
    normalize,
    order,
)
from eventorsion.family import sample_case, sweep_curves
from eventorsion.oracle import (
    MAZUR_CYCLIC_ORDERS,
    TorsionGroup,
    reduction_bound,
    three_torsion_coeffs,
    torsion_group,
)

C322 = CurveMND(3, 2, 2)
C323 = CurveMND(3, 2, 3)
C523 = CurveMND(5, 2, 3)

PINNED = [
    ((3, 2, 2), "Z4"),
    ((3, 2, 3), "Z6"),
    ((5, 2, 3), "Z2"),
    ((23, 8, 7), "Z8"),
    ((59, 24, 6), "Z6"),
    ((95, 32, 10), "Z10"),
    ((1, 1, 2), "Z2"),
    ((-366, 30, -15), "Z12"),
]

# The canonical generator of each PINNED curve's group: its first sorted
# element whose order is the group's order.
PINNED_GENERATORS = {
    (3, 2, 2): Point(-1, -2),
    (3, 2, 3): Point(-3, -6),
    (5, 2, 3): Point(0, 0),
    (23, 8, 7): Point(-27, -108),
    (59, 24, 6): Point(25, -300),
    (95, 32, 10): Point(-135, -1080),
    (1, 1, 2): Point(0, 0),
    (-366, 30, -15): Point(96, -2880),
}


def _points_mod_p(c: CurveMND, p: int) -> int:
    """#E(F_p) by direct search over F_p x F_p, plus the point at infinity."""
    return 1 + sum(
        1
        for x, y in product(range(p), repeat=2)
        if (y * y - c.rhs(x)) % p == 0
    )


# Small family bounds that still reach every class the case predicts.
SAMPLE_BOUNDS = {"I": 3, "II": 2, "III": 3, "IV": 25, "V": 9}


def _unbounded(c: CurveMND) -> TorsionGroup:
    """torsion_group(c) with the reduction bound replaced by
    120 = lcm(8, 3, 5), which admits every order, so every torsion condition
    is solved."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "reduction_bound", lambda c: 120)
        return torsion_group(c)


ODD_PRIMES = tuple(islice(intmath._primes(), 1, 200))


def _first_good_prime(c: CurveMND) -> int:
    return next(p for p in ODD_PRIMES if c.q * c.n * c.D % p)


def _first_good_at(p: int) -> list[CurveMND]:
    """Curves whose first odd prime of good reduction is p: n/2 is the
    product of the odd primes below p, and the residues of q mod p vary."""
    n = 2 * math.prod(r for r in ODD_PRIMES if r < p)
    curves = [CurveMND(m, n, d) for m in range(1, 9) for d in (-2, -1, 2, 3)]
    return [c for c in curves if _first_good_prime(c) == p]


def _assert_paths_agree(curves):
    for c in curves:
        group = torsion_group(c)
        assert _unbounded(c) == group, c
        assert reduction_bound(c) % group.order == 0, c


class TestDiscriminant:
    # y^2 = x^3 + 2m*x^2 + q*x has discriminant 64*q^2*n^2*D, so an odd prime
    # divides it exactly when it divides q*n*D, the test reduction_bound uses.
    def test_322(self):
        assert discriminant(6, 1, 0) == 512

    def test_323(self):
        assert discriminant(6, -3, 0) == 6912

    def test_matches_b_invariant_formula(self):
        for triple, _ in PINNED:
            c = CurveMND(*triple)
            disc = discriminant(2 * c.m, c.q, 0)
            assert disc == 64 * c.q**2 * c.n**2 * c.D != 0


class TestTorsionGroup:
    def test_z4_elements(self):
        g = torsion_group(C322)
        assert g.structure == "Z4"
        assert set(g.elements) == {INFINITY, Point(0, 0), Point(-1, 2), Point(-1, -2)}

    def test_z2_elements(self):
        g = torsion_group(C523)
        assert g.structure == "Z2"
        assert set(g.elements) == {INFINITY, Point(0, 0)}

    def test_z6_elements(self):
        g = torsion_group(C323)
        assert g.structure == "Z6"
        assert Point(1, 2) in g.elements and Point(1, -2) in g.elements
        assert Point(-3, 6) in g.elements and Point(-3, -6) in g.elements
        assert order(C323, Point(1, 2)) == 3
        assert order(C323, Point(-3, 6)) == 6

    def test_z10_contains_order_five_point(self):
        c = CurveMND(95, 32, 10)
        g = torsion_group(c)
        assert g.structure == "Z10"
        assert Point(81, 1296) in g.elements
        assert order(c, Point(81, 1296)) == 5

    @pytest.mark.parametrize("triple,structure", PINNED)
    def test_pinned_structures(self, triple, structure):
        g = torsion_group(CurveMND(*triple))
        assert g.structure == structure
        assert g.order == int(structure[1:])

    @pytest.mark.parametrize("triple", PINNED_GENERATORS)
    def test_pinned_generators(self, triple):
        c = CurveMND(*triple)
        want = PINNED_GENERATORS[triple]
        assert torsion_group(c).generator == want
        assert _unbounded(c).generator == want

    @pytest.mark.parametrize("triple,structure", PINNED)
    def test_unbounded_same_answer(self, triple, structure):
        _assert_paths_agree([CurveMND(*triple)])

    def test_closure_under_group_law(self):
        for triple, _ in PINNED:
            c = CurveMND(*triple)
            elements = set(torsion_group(c).elements)
            for p, q in product(elements, repeat=2):
                assert add(c, p, q) in elements

    def test_integer_coordinates(self):
        for triple, _ in PINNED:
            for p in torsion_group(CurveMND(*triple)).elements:
                assert p.is_infinity or (type(p.x) is int and type(p.y) is int)

    def test_integral_points_stay_ints(self):
        def ints(p):
            return p.is_infinity or (type(p.x) is int and type(p.y) is int)

        for triple, _ in PINNED:
            c = CurveMND(*triple)
            elements = torsion_group(c).elements
            assert all(ints(p) for p in elements), c
            for p, q in product(elements, repeat=2):
                assert ints(add(c, p, q)), (c, p, q)
            for p in elements:
                if not p.is_infinity and p.y != 0:
                    assert type(double_x(c, p)) is int, (c, p)

    def test_generators_span(self):
        g = torsion_group(C323)
        gen = g.generator
        acc = INFINITY
        seen = set()
        for _ in range(g.order):
            acc = add(C323, acc, gen)
            seen.add(acc)
        assert seen == set(g.elements)

    def test_small_scan_against_direct_point_search(self):
        # Independent cross-check: brute-force x in a window large enough to
        # cover every integral point of small height, keep torsion orders.
        for m, n, d in product(range(-4, 5), (1, 2), (-2, 2, 5)):
            try:
                c = CurveMND(m, n, d)
            except InvalidCurveError:
                continue
            direct = {INFINITY}
            for x in range(-600, 601):
                y2 = c.rhs(x)
                if y2 < 0:
                    continue
                from eventorsion.intmath import int_sqrt

                y = int_sqrt(y2)
                if y is None:
                    continue
                for p in (Point(x, y), Point(x, -y)):
                    if order(c, p) is not None:
                        direct.add(p)
            assert direct == set(torsion_group(c).elements), c


@pytest.fixture
def enumerations(monkeypatch):
    """Curves a torsion condition is solved on, one entry per solve: the
    order-4 closed form, the order-8 halving quartic, psi_3 and psi_5."""
    calls = []
    real = oracle._torsion_points
    monkeypatch.setattr(
        oracle,
        "_torsion_points",
        lambda c, xs, found: calls.append(c) or real(c, xs, found),
    )
    return calls


def test_many_prime_z4_curve_is_quick():
    # The discriminant has 13 distinct primes; the oracle factors none of
    # it, and with bound g = 4 it takes one square root of q.
    c = normalize(10464232622576958223, 6469693230, -2)
    assert reduction_bound(c) == 4
    start = time.perf_counter()
    group = torsion_group(c)
    elapsed = time.perf_counter() - start
    assert group.structure == "Z4"
    assert elapsed < 0.05, elapsed


def test_oracle_factors_nothing(monkeypatch):
    curves = [CurveMND(*triple) for triple, _ in PINNED]
    curves.append(normalize(10464232622576958223, 6469693230, -2))

    def refuse(x):
        raise AssertionError(f"factorization({x}) called")

    monkeypatch.setattr(oracle.intmath, "factorization", refuse)
    for c in curves:
        torsion_group(c)
        _unbounded(c)


def test_oracle_takes_no_order(monkeypatch):
    # Each solved point has its condition's order, and the group comes from
    # one walk of the generator's multiples, so no order is ever asked for.
    def refuse(c, p):
        raise AssertionError(f"order({c}, {p}) called")

    monkeypatch.setattr(oracle._curve, "order", refuse)
    for triple, structure in PINNED:
        c = CurveMND(*triple)
        assert torsion_group(c).structure == structure
        assert _unbounded(c).structure == structure


class TestReductionBound:
    @pytest.mark.parametrize("p", [7, 11, 13, 47, 53, 89])
    def test_single_prime_is_point_count(self, monkeypatch, p):
        monkeypatch.setattr(oracle, "_REDUCTION_PRIME_COUNT", 1)
        curves = _first_good_at(p)
        assert curves
        for c in curves:
            assert reduction_bound(c) == _points_mod_p(c, p), c

    def test_bad_prime_is_skipped(self, monkeypatch):
        assert C323.q * C323.n * C323.D % 3 == 0
        monkeypatch.setattr(oracle, "_REDUCTION_PRIME_COUNT", 1)
        assert reduction_bound(C323) == _points_mod_p(C323, 5) == 6

    def test_all_listed_primes_bad_walks_past_47(self, monkeypatch, enumerations):
        # n/2 = 3*5*...*47: every prime tabulated at import by the orbit
        # identity divides the discriminant.
        c = CurveMND(5, 2 * math.prod(ODD_PRIMES[:14]), 3)
        bounded = torsion_group(c)
        assert reduction_bound(c) == 2 and enumerations == []
        monkeypatch.setattr(oracle, "_REDUCTION_PRIME_COUNT", 1)
        assert reduction_bound(c) == _points_mod_p(c, 53) == 60
        group = torsion_group(c)
        # g = 60 admits orders 4, 3 and 5.  q = 25 - 12*(n/2)^2 < 0 has no
        # square root, so no order-4 point is there to halve: the order-4,
        # order-3 and order-5 solves run.
        assert enumerations == [c] * 3
        assert group.elements == (INFINITY, Point(0, 0))
        assert group == bounded

    @pytest.mark.parametrize("k, p", [(20, 89), (24, 113), (40, 199)])
    def test_walk_past_47_reaches_two(self, k, p):
        # n/2 is the product of the first k odd primes, all bad.  g is the
        # gcd over the first six good primes, and it falls to 2 at p.
        c = CurveMND(5, 2 * math.prod(ODD_PRIMES[:k]), 3)
        good = [r for r in ODD_PRIMES if c.q * c.n * c.D % r][:6]
        counts = [_points_mod_p(c, r) for r in good]
        assert reduction_bound(c) == math.gcd(*counts) == 2
        assert math.gcd(*counts[: good.index(p)]) > 2
        assert math.gcd(*counts[: good.index(p) + 1]) == 2

    def test_bound_is_even_and_at_least_two(self):
        for c in sweep_curves(12, 12, 10):
            g = reduction_bound(c)
            assert g >= 2 and g % 2 == 0, c

    def test_settled_curve_skips_enumeration(self, enumerations):
        assert torsion_group(C523).structure == "Z2"
        assert enumerations == []
        assert _unbounded(C523).structure == "Z2"
        assert enumerations == [C523] * 3

    def test_settled_curve_builds_no_point(self):
        def fail(*args):
            raise AssertionError("called at g = 2")

        with pytest.MonkeyPatch.context() as mp:
            for target, name in [
                (oracle, "_assemble"),
                (oracle._curve, "_multiples"),
                (oracle.intmath, "int_sqrt"),
            ]:
                mp.setattr(target, name, fail)
            group = torsion_group(C523)
        assert group == TorsionGroup((INFINITY, Point(0, 0)), Point(0, 0))
        assert group == _unbounded(C523)

    def test_z8_curve_halves_its_order_four_point(self, enumerations):
        # With g = 120 every condition is solved; q = 81, and the order-4
        # point (9, 72) of this Z8 curve is halved, so four solves run.
        c = CurveMND(23, 8, 7)
        assert _unbounded(c).structure == "Z8"
        assert enumerations == [c] * 4

    def test_sweep_paths_agree(self):
        _assert_paths_agree(sweep_curves(12, 12, 10))

    @pytest.mark.parametrize("case", CASES)
    def test_family_paths_agree(self, case):
        samples = sample_case(case, SAMPLE_BOUNDS[case])
        assert samples
        _assert_paths_agree(s.curve for s in samples)


def _euler_character(p: int) -> list[int]:
    """chi_p(r) for r = 0..p-1 by Euler's criterion, r^((p-1)/2) mod p."""
    return [(pow(r, (p - 1) // 2, p) + 1) % p - 1 for r in range(p)]


def _euler_count(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a*x^2 + b*x with the Legendre symbol taken
    by Euler's criterion, independent of the oracle's tables."""
    chi = _euler_character(p)
    return p + 1 + sum(chi[(x * x * x + a * x * x + b * x) % p] for x in range(p))


class TestPointCount:
    def test_quadratic_character_matches_euler_criterion(self):
        primes = [p for p in ODD_PRIMES if p < 1100]
        assert primes[0] == 3 and primes[-1] == 1097
        for p in primes:
            assert list(oracle._quadratic_character(p)) == _euler_character(p), p

    def test_tables_hold_every_residue_class(self):
        tables = oracle._COUNTS
        assert tuple(tables) == oracle._REDUCTION_PRIMES
        for p, table in tables.items():
            assert type(table) is bytes and len(table) == p * p, p
        want = [
            _euler_count(p, a, b)
            for p in oracle._REDUCTION_PRIMES
            for a in range(p)
            for b in range(p)
        ]
        assert len(want) == 10462
        assert [x for table in tables.values() for x in table] == want

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_small_primes_against_direct_point_search(self, p):
        for a, b in product(range(p), repeat=2):
            model = SimpleNamespace(rhs=lambda x: x**3 + a * x * x + b * x)
            assert oracle._COUNTS[p][a * p + b] == _points_mod_p(model, p), (a, b)

    def test_tabulated_primes_count_nothing(self, monkeypatch):
        # A curve whose first six good primes are all at most 47 takes every
        # count from the tables and never sums a character.
        curves = [
            c
            for c in sweep_curves(12, 12, 10)
            if [r for r in ODD_PRIMES if c.q * c.n * c.D % r][5] <= 47
        ]
        bounds = [reduction_bound(c) for c in curves]

        def refuse(*args):
            raise AssertionError(f"_direct_count{args} called")

        monkeypatch.setattr(oracle, "_direct_count", refuse)
        assert len(curves) > 1000
        assert [reduction_bound(c) for c in curves] == bounds

    @settings(max_examples=300)
    @given(
        st.integers(-10**5, 10**5),
        st.integers(-10**4, 10**4).filter(bool),
        st.sampled_from((-15, -7, -6, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15, 30)),
    )
    @example(-7, 6, 5)
    @example(-1, 2, 3)
    @example(-366, 30, -15)
    def test_index_matches_euler_count(self, m, n, d):
        # Negative m and negative q = m^2 - n^2*D reach the tables through
        # Python's non-negative %, at index (2m mod p)*p + (q mod p).
        try:
            c = CurveMND(m, n, d)
        except InvalidCurveError:
            assume(False)
        good = [p for p in ODD_PRIMES if c.q * c.n * c.D % p][:6]
        counts = [_euler_count(p, 2 * m % p, c.q % p) for p in good]
        assert reduction_bound(c) == math.gcd(*counts), c


class TestTorsionConditions:
    """The coefficient lists the oracle solves, derived symbolically in m, q
    and x4 from the doubling formula and the division-polynomial recursion
    (Silverman, AEC Exercise 3.7, with a1 = a3 = a6 = 0, a2 = 2m, a4 = q)."""

    @pytest.fixture
    def sym(self):
        sympy = pytest.importorskip("sympy")
        m, q, x, y, x4 = sympy.symbols("m q x y x4")
        rhs = x**3 + 2 * m * x**2 + q * x
        curve = SimpleNamespace(m=m, q=q)

        def coeffs(expr):
            return [sympy.expand(a) for a in sympy.Poly(sympy.expand(expr), x).all_coeffs()]

        def same(got, want):
            return [sympy.expand(a) for a in got] == coeffs(want)

        return SimpleNamespace(
            sympy=sympy, m=m, q=q, x=x, y=y, x4=x4, rhs=rhs, curve=curve, same=same
        )

    def test_halving_quartic(self, sym):
        sympy, x, y, rhs = sym.sympy, sym.x, sym.y, sym.rhs
        # The tangent construction agrees with the closed form of x(2P).
        lam = (3 * x**2 + 4 * sym.m * x + sym.q) / (2 * y)
        closed = ((x**2 - sym.q) / (2 * y)) ** 2
        assert sympy.simplify((lam**2 - 2 * sym.m - 2 * x - closed).subs(y**2, rhs)) == 0
        # x(2P) = x4 with 4y^2 = 4*rhs(x) cleared.
        num, den = sympy.fraction(sympy.together(closed - sym.x4))
        assert sympy.expand(den) == 4 * y**2
        want = sympy.expand(num).subs(y**2, rhs)
        assert sym.same(oracle.halving_coeffs(sym.curve, sym.x4), want)

    def test_division_polynomials(self, sym):
        sympy, m, q, x, y = sym.sympy, sym.m, sym.q, sym.x, sym.y
        b2, b4, b6, b8 = 4 * 2 * m, 2 * q, 0, -q * q
        psi = {
            1: 1,
            2: 2 * y,
            3: 3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8,
            4: 2 * y * (
                2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3
                + 10 * b8 * x**2 + (b2 * b8 - b4 * b6) * x + b4 * b8 - b6**2
            ),
        }
        # psi_{2k+1} = psi_{k+2} psi_k^3 - psi_{k-1} psi_{k+1}^3 at k = 2.
        psi5 = sympy.expand(psi[4] * psi[2] ** 3 - psi[1] * psi[3] ** 3)
        psi5 = psi5.subs(y**4, sym.rhs**2)
        assert not psi5.has(y)
        assert sym.same(three_torsion_coeffs(sym.curve), psi[3])
        assert sym.same(oracle.five_division_coeffs(sym.curve), psi5)

    def test_no_root_has_y_zero(self, sym):
        # Each condition's resultant with rhs is a constant times powers of
        # q and m^2 - q = n^2*D, both nonzero on the family, so no solved
        # root has y = 0 and every solved point has its condition's order.
        sympy, m, q, x, x4 = sym.sympy, sym.m, sym.q, sym.x, sym.x4

        def poly(coeffs):
            return sum(a * x**k for k, a in enumerate(reversed(coeffs)))

        conditions = [
            (x**2 - q, -4 * q**2 * (q - m**2)),
            (poly(three_torsion_coeffs(sym.curve)), -16 * q**4 * (q - m**2) ** 2),
            (poly(oracle.five_division_coeffs(sym.curve)), 4096 * q**12 * (q - m**2) ** 6),
            (poly(oracle.halving_coeffs(sym.curve, x4)), 16 * q**4 * (q - m**2) ** 2),
        ]
        for condition, want in conditions:
            got = sympy.resultant(sympy.expand(condition), sym.rhs, x)
            assert sympy.expand(got - want) == 0, condition

    def test_roots_are_torsion_x(self):
        c = CurveMND(95, 32, 10)
        assert 81 in intmath.integer_roots(oracle.five_division_coeffs(c))
        assert -27 in intmath.integer_roots(oracle.halving_coeffs(CurveMND(23, 8, 7), 9))
        assert 1 in intmath.integer_roots(three_torsion_coeffs(C323))


class TestFullTwoTorsion:
    """The closed-form y = 0 solve on models with three roots.  A square D is
    no family member, so the models skip CurveMND's validation."""

    @pytest.mark.parametrize(
        "m,n,d,roots",
        [(3, 1, 4, [-5, -1, 0]), (5, 2, 4, [-9, -1, 0]), (10, 3, 1, [-13, -7, 0])],
    )
    def test_three_points_of_order_two(self, monkeypatch, m, n, d, roots):
        c = object.__new__(CurveMND)
        for name, value in zip("mnD", (m, n, d)):
            object.__setattr__(c, name, value)
        cap = 1 + max(abs(2 * m), abs(c.q))
        assert [x for x in range(-cap, cap + 1) if c.rhs(x) == 0] == roots
        # Full rational 2-torsion puts Z/2 x Z/2 in every E(F_p), so g is
        # never 2 and the g = 2 return cannot skip the check below.
        assert reduction_bound(c) % 4 == 0
        seen = []
        assemble = oracle._assemble

        def capture(c, gen, found):
            seen.append(sorted(p.x for p in found if p.y == 0))
            return assemble(c, gen, found)

        monkeypatch.setattr(oracle, "_assemble", capture)
        with pytest.raises(oracle.OracleError, match="3 points of order 2"):
            torsion_group(c)
        assert seen == [roots]


class TestAssemble:
    """_assemble's checks, each on a generator or point set that violates it."""

    Z4 = {Point(0, 0), Point(-1, 2), Point(-1, -2)}

    def test_no_two_torsion_point(self):
        with pytest.raises(oracle.OracleError, match="0 points of order 2"):
            oracle._assemble(C322, Point(-1, 2), {Point(-1, 2), Point(-1, -2)})

    def test_two_two_torsion_points(self):
        with pytest.raises(oracle.OracleError, match="2 points of order 2"):
            oracle._assemble(C322, Point(0, 0), {Point(0, 0), Point(1, 0)})

    def test_infinite_order_generator(self):
        c = CurveMND(0, 1, 2)
        assert c.contains(Point(2, 2)) and order(c, Point(2, 2)) is None
        with pytest.raises(oracle.OracleError, match=r"\(2, 2\) has no order up to 12"):
            oracle._assemble(c, Point(2, 2), {Point(0, 0), Point(2, 2)})

    def test_non_integral_sum_fails_loudly(self, monkeypatch):
        # A forged order-3 condition with root x = 4 gives the non-torsion
        # point (4, 2); its sum with (0, 0) has slope 1/2, so no integral
        # generator exists.
        monkeypatch.setattr(oracle, "three_torsion_coeffs", lambda c: [1, -4])
        with pytest.raises(oracle.OracleError, match="has no order up to 12"):
            _unbounded(CurveMND(-6, 1, 3))

    def test_label_outside_mazur_list(self, monkeypatch):
        without_four = tuple(k for k in MAZUR_CYCLIC_ORDERS if k != 4)
        monkeypatch.setattr(oracle, "MAZUR_CYCLIC_ORDERS", without_four)
        with pytest.raises(oracle.OracleError, match="impossible torsion structure Z4"):
            oracle._assemble(C322, Point(-1, 2), self.Z4)

    def test_not_closed_under_group_law(self):
        with pytest.raises(oracle.OracleError, match="do not form a group"):
            oracle._assemble(C322, Point(-1, 2), self.Z4 | {Point(5, 7)})

    def test_enumerated_group_assembles(self):
        group = oracle._assemble(C322, Point(-1, 2), self.Z4)
        assert group == torsion_group(C322)
        assert group.generator == Point(-1, -2)


class TestFamilyShape:
    def test_mazur_labels(self):
        assert 11 not in MAZUR_CYCLIC_ORDERS
        assert 12 in MAZUR_CYCLIC_ORDERS
        assert MAZUR_CYCLIC_ORDERS == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
