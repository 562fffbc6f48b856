import functools
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    QuadElement,
    add,
    double_x,
    evaluate,
    is_halvable,
    is_square_quad,
    j_invariant,
    weierstrass_multiples,
)

from eventorsion import intmath
from eventorsion.classifier import full_report, generator
from eventorsion.curve import (
    INFINITY,
    CurveMND,
    FullTwoTorsionError,
    InvalidCurveError,
    NoRationalTwoTorsionError,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
    _multiples,
    from_general,
    normalize,
    order,
)
from eventorsion.family import sample_case, sweep_curves
from eventorsion.oracle import three_torsion_coeffs

C322 = CurveMND(3, 2, 2)
C323 = CurveMND(3, 2, 3)
C523 = CurveMND(5, 2, 3)
C2387 = CurveMND(23, 8, 7)


def small_curves():
    out = []
    for m, n, d in product(range(-6, 7), range(1, 5), (-3, -2, -1, 2, 3, 5)):
        try:
            out.append(CurveMND(m, n, d))
        except InvalidCurveError:
            pass
    return out


class TestCurveDatum:
    def test_q(self):
        assert C322.q == 1
        assert C323.q == -3

    def test_invariants_rejected(self):
        with pytest.raises(InvalidCurveError):
            CurveMND(3, 0, 2)
        with pytest.raises(InvalidCurveError):
            CurveMND(3, 2, 4)  # D not squarefree
        with pytest.raises(InvalidCurveError):
            CurveMND(3, 2, 1)
        with pytest.raises(InvalidCurveError):
            CurveMND(12, 8, 5)  # gcd has square part

    def test_m_zero_allowed(self):
        c = CurveMND(0, 1, 2)
        assert c.q == -2


class TestNormalize:
    def test_gcd_square_removed(self):
        assert normalize(12, 8, 5) == CurveMND(3, 2, 5)

    def test_square_part_of_d_absorbed(self):
        assert normalize(3, 1, 8) == CurveMND(3, 2, 2)

    def test_already_normalized(self):
        assert normalize(3, 2, 2) == CurveMND(3, 2, 2)

    def test_negative_n_canonicalized(self):
        assert normalize(3, -2, 2) == CurveMND(3, 2, 2)

    def test_rejections(self):
        with pytest.raises(InvalidCurveError):
            normalize(3, 0, 2)
        with pytest.raises(InvalidCurveError):
            normalize(3, 1, 0)
        with pytest.raises(SingularCurveError):
            normalize(3, 1, 9)  # perfect-square D and m^2 = n^2*D: x^2 (x + 6)
        with pytest.raises(InvalidCurveError):
            normalize(3, 2, 1)

    @given(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-12, max_value=12).filter(lambda n: n != 0),
        st.integers(min_value=-30, max_value=30).filter(lambda d: d != 0),
    )
    @settings(max_examples=300)
    def test_idempotent_and_isomorphic(self, m, n, d_raw):
        try:
            c = normalize(m, n, d_raw)
        except InvalidCurveError:
            return
        again = normalize(c.m, c.n, c.D)
        assert again == c
        # Same Q-isomorphism class: equal j-invariants, exactly.
        assert j_invariant(2 * c.m, c.q, 0) == j_invariant(
            2 * m, m * m - n * n * d_raw, 0
        )


# Square parts planted on primes below 1000, in (1000, 2^14) and above 2^14:
# the two gcd-ladder rungs of `squarefree_split` and the factoring past them.
PLANTED_PRIMES = (2, 3, 7, 997, 1009, 1291, 16381, 16411, 65537, 1000003)
planted_square = st.lists(st.sampled_from(PLANTED_PRIMES), max_size=3).map(
    lambda ps: math.prod(ps) ** 2
)
raw = st.integers(min_value=-(10**12), max_value=10**12)


class TestNormalizedConstruction:
    """`normalize` and `sweep_curves` build through `CurveMND._normalized`,
    skipping the public constructor's tests; their results must pass them."""

    @given(
        raw,
        raw.filter(bool),
        raw.filter(lambda d: d != 0 and intmath.int_sqrt(d) is None),
        planted_square,
        planted_square,
    )
    @settings(max_examples=300)
    def test_normalize_passes_the_public_checks(self, m, n, d, d_square, g_square):
        c = normalize(m * g_square, n * g_square, d * d_square)
        assert CurveMND(c.m, c.n, c.D) == c

    def test_sweep_curves_pass_the_public_checks(self):
        curves = list(sweep_curves(8, 8, 12))
        # 17 * 8 pairs (m, n) less the 10 with 4 | gcd(m, n), times 14 Ds.
        assert len(curves) == (17 * 8 - 10) * 14
        for c in curves:
            assert CurveMND(c.m, c.n, c.D) == c

    def test_normalize_tests_no_squarefreeness_again(self, monkeypatch):
        # D = -1291^2 * 263183: the square part sits on the second ladder rung.
        expected = {
            (1408089685514, 3333362, -438642105623): CurveMND(
                1408089685514, 4303370342, -263183
            ),
            (12, 8, 5): CurveMND(3, 2, 5),
        }

        def refuse(x):
            raise AssertionError(f"is_squarefree({x}) called again")

        monkeypatch.setattr(intmath, "is_squarefree", refuse)
        for args, c in expected.items():
            assert normalize(*args) == c


class TestFromGeneral:
    @pytest.mark.parametrize("position", range(3))
    def test_float_coefficient_refused(self, position):
        coeffs = [6, 1, 0]
        coeffs[position] = 0.5
        name = ("a2", "a4", "a6")[position]
        with pytest.raises(TypeError, match=f"^{name}=0.5 is a float"):
            from_general(*coeffs)

    def test_decimal_string_is_exact(self):
        # "0.1" is one tenth; the float 0.1 would be its binary expansion.
        exact = from_general(Fraction(1, 10), Fraction(-1, 2), 0)
        assert from_general("0.1", "-0.5", 0) == exact

    def test_integral_family_member(self):
        assert from_general(6, 1, 0) == CurveMND(3, 2, 2)

    def test_three_rational_roots(self):
        with pytest.raises(FullTwoTorsionError) as exc:
            from_general(0, -1, 0)  # y^2 = x(x-1)(x+1)
        assert exc.value.roots == (Fraction(-1), Fraction(0), Fraction(1))

    def test_square_d_is_the_same_error(self):
        # x(x + 1)(x + 5), as (m, n, D) = (3, 1, 4) and as a general cubic.
        for build, args in ((normalize, (3, 1, 4)), (from_general, (6, 5, 0))):
            with pytest.raises(FullTwoTorsionError) as exc:
                build(*args)
            assert exc.value.roots == (-5, -1, 0)
            assert str(exc.value).startswith("three rational roots -5, -1, 0:")

    def test_no_rational_root(self):
        with pytest.raises(NoRationalTwoTorsionError):
            from_general(0, 0, 2)  # y^2 = x^3 + 2

    def test_singular(self):
        with pytest.raises(SingularCurveError):
            from_general(2, 1, 0)  # double root at -1

    def test_singular_has_no_j_invariant(self):
        with pytest.raises(SingularCurveError):
            j_invariant(0, 0, 0)  # y^2 = x^3, triple root

    def test_translation_needed(self):
        # y^2 = (x - 1)((x - 1)^2 + 6(x - 1) + 1): root at 1
        assert from_general(3, -8, 4) == CurveMND(3, 2, 2)

    def test_fractional_coefficients_rescaled(self):
        assert from_general(Fraction(3, 2), Fraction(1, 16), 0) == CurveMND(3, 2, 2)
        assert from_general("3/2", "1/16", "0") == CurveMND(3, 2, 2)

    def test_odd_middle_coefficient_scaled_by_two(self):
        # y^2 = x^3 + 3x^2 + x has one rational root but odd middle term.
        result = from_general(3, 1, 0)
        assert j_invariant(2 * result.m, result.q, 0) == j_invariant(3, 1, 0)

    def test_large_root_without_factoring(self):
        # (x - P)(x^2 + 2x - 1) with P a product of two primes near 10^20:
        # the root is found without factoring the constant term P.
        p = (10**20 + 39) * (3 * 10**20 + 53)
        assert from_general(2 - p, -1 - 2 * p, p) == CurveMND(p + 1, 1, 2)

    @given(
        st.lists(
            st.integers(min_value=-(10**30), max_value=10**30),
            min_size=3,
            max_size=3,
            unique=True,
        ),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_three_planted_rational_roots(self, nums, den):
        # (x - r)(x - s)(x - t) with r, s, t = nums / den: the scaled monic
        # model's roots are integers up to 10^30 * den^2, found exactly.
        r, s, t = (Fraction(a, den) for a in nums)
        with pytest.raises(FullTwoTorsionError) as exc:
            from_general(-(r + s + t), r * s + r * t + s * t, -r * s * t)
        assert exc.value.roots == tuple(sorted((r, s, t)))

    @given(
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([-5, -3, -2, -1, 2, 3, 5, 6]),
        st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    @settings(max_examples=200)
    def test_roundtrip_through_scaling_and_translation(self, m, n, d, u, s):
        try:
            c = CurveMND(m, n, d)
        except InvalidCurveError:
            return
        # Move x by s and rescale by u: an isomorphism over Q, so the
        # normalized datum comes back exactly (equal j-invariants alone would
        # not rule out a quadratic twist).
        a2, a4, a6 = Fraction(2 * m), Fraction(c.q), Fraction(0)
        a2, a4, a6 = (
            a2 + 3 * s,
            a4 + 2 * a2 * s + 3 * s * s,
            a6 + a4 * s + a2 * s * s + s**3,
        )
        assert from_general(a2 * u**2, a4 * u**4, a6 * u**6) == c


class TestGroupLaw:
    def test_identity(self):
        p = Point(-1, 2)
        assert add(C322, p, INFINITY) == p
        assert add(C322, INFINITY, p) == p

    def test_two_torsion_doubles_to_infinity(self):
        assert add(C322, Point(0, 0), Point(0, 0)) == INFINITY

    def test_chord(self):
        assert add(C323, Point(1, 2), Point(0, 0)) == Point(-3, 6)

    def test_inverse(self):
        p = Point(-1, 2)
        assert add(C322, p, Point(p.x, -p.y)) == INFINITY

    def test_off_curve_rejected(self):
        with pytest.raises(PointNotOnCurveError):
            add(C322, Point(1, 1), INFINITY)

    def test_axioms_on_full_torsion_group(self):
        # Z10 on (95, 32, 10): all pairs commute, all triples associate.
        from eventorsion.oracle import torsion_group

        c = CurveMND(95, 32, 10)
        pts = torsion_group(c).elements
        for p, q in product(pts, repeat=2):
            assert add(c, p, q) == add(c, q, p)
        for p, q, r in product(pts, repeat=3):
            assert add(c, add(c, p, q), r) == add(c, p, add(c, q, r))

    def test_non_integral_chord_is_none(self):
        # y^2 = x^3 - 12x^2 + 33x; the slope from (0, 0) to (4, 2) is 1/2.
        assert add(CurveMND(-6, 1, 3), Point(0, 0), Point(4, 2)) is None

    def test_non_integral_tangent_is_none(self):
        # y^2 = x^3 - 2x; the tangent slope at (2, 2) is 10/4.
        assert add(CurveMND(0, 1, 2), Point(2, 2), Point(2, 2)) is None

    @pytest.mark.parametrize("x", [1.5, Fraction(9, 4)], ids=["float", "fraction"])
    def test_float_coordinate_rejected(self, x):
        with pytest.raises(TypeError):
            Point(x, 2)

    def test_half_a_point_rejected(self):
        with pytest.raises(ValueError):
            Point(1, None)

    def test_scalar_multiples(self):
        p = Point(-1, 2)
        p2 = add(C322, p, p)
        assert p2 == Point(0, 0)
        assert add(C322, p2, p2) == INFINITY
        assert add(C322, p, Point(-1, -2)) == INFINITY
        assert order(C322, p) == 4


class TestDoubleX:
    def test_example_322(self):
        assert double_x(C322, Point(-1, 2)) == 0

    def test_example_323(self):
        assert double_x(C323, Point(1, 2)) == 1

    def test_example_2387(self):
        assert double_x(C2387, Point(-3, 12)) == 9

    def test_matches_group_law(self):
        for c, p in [
            (C322, Point(-1, 2)),
            (C323, Point(1, 2)),
            (C323, Point(-3, 6)),
            (C2387, Point(-3, 12)),
        ]:
            assert double_x(c, p) == add(c, p, p).x

    def test_order_two_rejected(self):
        with pytest.raises(ValueError):
            double_x(C322, Point(0, 0))


class TestOrder:
    def test_infinity(self):
        assert order(C322, INFINITY) == 1

    def test_two_torsion(self):
        assert order(C322, Point(0, 0)) == 2

    def test_order_four(self):
        assert order(C322, Point(-1, 2)) == 4

    def test_infinite_order_detected_by_non_integral_multiple(self):
        c = CurveMND(0, 1, 2)  # y^2 = x^3 - 2x
        assert order(c, Point(2, 2)) is None


# The family samples and the sweep box that the walk gate and the Point
# contract run on.
FAMILY_BOUNDS = (("I", 8), ("II", 10), ("III", 11), ("IV", 25), ("V", 60))
SWEEP_BOX = (12, 12, 10)


@functools.cache
def family_points() -> list[tuple[CurveMND, tuple[Point, ...]]]:
    """Each family sample's curve with its case witness's generator, its
    report's generator and its oracle group's elements."""
    out = []
    for tag, bound in FAMILY_BOUNDS:
        for s in sample_case(tag, bound):
            report = full_report(s.curve, with_oracle=True)
            points = (generator(s.curve, s.predicted), report.generator)
            out.append((s.curve, points + report.oracle_group.elements))
    return out


@functools.cache
def sweep_reports() -> list:
    return [full_report(c, with_oracle=True) for c in sweep_curves(*SWEEP_BOX)]


def reference_multiples(c: CurveMND, p: Point) -> list[Point] | None:
    """What `_multiples(c, p)` must return, by the Fraction walk of
    tests/reference.py: [INFINITY, p, ..., (k-1)p] for p of order k <= 12,
    else None."""
    if p.is_infinity:
        return [INFINITY]
    multiples = weierstrass_multiples(2 * c.m, c.q, 0, p.x, p.y)
    if multiples is None:
        return None
    # Nagell-Lutz: every torsion point of the integral model is integral.
    assert all(x.denominator == y.denominator == 1 for x, y in multiples), (c, p)
    return [INFINITY, *(Point(int(x), int(y)) for x, y in multiples)]


class TestMultiplesWalk:
    """`_multiples`, the inlined walk on ints, against the Fraction walk."""

    def test_family_generators_and_groups(self):
        orders = set()
        for c, points in family_points():
            for p in points:
                want = reference_multiples(c, p)
                assert _multiples(c, p) == want, (c, p)
                orders.add(len(want))
        assert orders == {1, 2, 3, 4, 5, 6, 8, 10, 12}

    def test_integral_points_of_a_sweep_box(self):
        finite = infinite = 0
        for c in sweep_curves(*SWEEP_BOX):
            for x in range(-200, 201):
                y = intmath.int_sqrt(c.rhs(x))
                if y is None:
                    continue
                for p in {Point(x, y), Point(x, -y)}:
                    want = reference_multiples(c, p)
                    assert _multiples(c, p) == want, (c, p)
                    if want is None:
                        infinite += 1
                    else:
                        finite += 1
        assert finite and infinite

    def test_non_integral_tangent(self):
        c, p = CurveMND(0, 1, 2), Point(2, 2)
        assert reference_multiples(c, p) is None
        assert _multiples(c, p) is None


def is_int_pair(p: Point) -> bool:
    return type(p) is Point and (
        p.is_infinity or (type(p.x) is int and type(p.y) is int)
    )


class TestPointContract:
    """Points are int pairs with the tuple's equality, hash and order, and
    every point the package builds is exactly a Point of ints."""

    def test_family_points_are_int_pairs(self):
        for c, points in family_points():
            for p in points:
                assert is_int_pair(p), (c, p)

    def test_sweep_points_are_int_pairs(self):
        for report in sweep_reports():
            group = report.oracle_group
            for p in (report.generator, group.generator, *group.elements):
                assert is_int_pair(p), (report.curve, p)

    def test_equals_and_hashes_as_its_pair(self):
        p = Point(-15, 240)
        assert p == (-15, 240)
        assert hash(p) == hash((-15, 240))
        assert {p: 1}[(-15, 240)] == 1
        assert INFINITY == (None, None)

    def test_sorts_by_x_then_y(self):
        points = [Point(2, -1), Point(-3, 5), Point(-3, -5), Point(0, 0)]
        assert sorted(points) == [(-3, -5), (-3, 5), (0, 0), (2, -1)]

    def test_immutable(self):
        p = Point(-15, 240)
        with pytest.raises(AttributeError):
            p.x = 0

    def test_repr(self):
        assert repr(Point(-15, 240)) == "Point(x=-15, y=240)"
        assert repr(INFINITY) == "Point(x=None, y=None)"
        assert str(Point(-15, 240)) == "(-15, 240)"
        assert str(INFINITY) == "infinity"


class TestQuadraticFieldSquares:
    def test_example_3_plus_2sqrt2(self):
        root = is_square_quad(QuadElement(3, 2, 2))
        assert root == QuadElement(1, 1, 2)

    def test_example_23_plus_8sqrt7(self):
        assert is_square_quad(QuadElement(23, 8, 7)) == QuadElement(4, 1, 7)

    def test_example_5_plus_2sqrt3(self):
        assert is_square_quad(QuadElement(5, 2, 3)) is None

    def test_rational_part_only(self):
        assert is_square_quad(QuadElement(4, 0, 3)) == QuadElement(2, 0, 3)
        assert is_square_quad(QuadElement(3, 0, 3)) == QuadElement(0, 1, 3)
        assert is_square_quad(QuadElement(5, 0, 3)) is None
        assert is_square_quad(QuadElement(0, 0, 3)) == QuadElement(0, 0, 3)

    def test_square_d_rejected(self):
        with pytest.raises(ValueError):
            QuadElement(1, 1, 4)

    def test_negative_d(self):
        assert is_square_quad(QuadElement(-2, 0, -2)) == QuadElement(0, 1, -2)
        root = is_square_quad(QuadElement(-1, 2, -2))  # (1 + sqrt(-2))^2
        assert root == QuadElement(1, 1, -2)

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=20),
        st.fractions(min_value=-10, max_value=10, max_denominator=20),
        st.sampled_from([-5, -2, -1, 2, 3, 7, 10]),
    )
    @settings(max_examples=300)
    def test_roundtrip(self, g, h, d):
        e = g * g + h * h * d
        f = 2 * g * h
        root = is_square_quad(QuadElement(e, f, d))
        assert root is not None
        assert root.e * root.e + root.f * root.f * d == e
        assert 2 * root.e * root.f == f


class TestHalvable:
    def test_halvable_when_order_four_exists(self):
        assert is_halvable(C322, Point(0, 0)) is True

    def test_not_halvable_z2(self):
        assert is_halvable(C523, Point(0, 0)) is False

    def test_not_halvable_z6(self):
        assert is_halvable(C323, Point(0, 0)) is False

    def test_infinity_rejected(self):
        with pytest.raises(ValueError):
            is_halvable(C322, INFINITY)


class TestThreeTorsionQuartic:
    def test_vanishes_at_order_three_point(self):
        assert evaluate(three_torsion_coeffs(C323), 1) == 0

    def test_constant_term(self):
        assert evaluate(three_torsion_coeffs(C323), 0) == -9

    def test_vanishes_on_59_24_6(self):
        assert evaluate(three_torsion_coeffs(CurveMND(59, 24, 6)), 1) == 0

    def test_order_three_points_zero_it(self):
        from eventorsion.oracle import torsion_group

        for c in small_curves():
            group = torsion_group(c)
            for p in group.elements:
                if not p.is_infinity and order(c, p) == 3:
                    assert evaluate(three_torsion_coeffs(c), p.x) == 0
