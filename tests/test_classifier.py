from collections import Counter
from dataclasses import fields, replace
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import add, case_witnesses

from eventorsion import classifier as classifier_module
from eventorsion import curve as curve_module
from eventorsion import intmath
from eventorsion.classifier import (
    CASES,
    NonSquareYError,
    Witness,
    WitnessI,
    WitnessII,
    WitnessIII,
    WitnessIV,
    WitnessV,
    check_case_i,
    check_case_ii,
    check_case_iii,
    check_case_iv,
    check_case_v,
    classify,
    full_report,
    generator,
)
from eventorsion.curve import CurveMND, InvalidCurveError, Point, order
from eventorsion.family import sample_case
from eventorsion.oracle import reduction_bound, torsion_group

# First curve with full Z12, by sweep order over |m| <= 500, n <= 500,
# |D| <= 50; frozen after confirming against the enumeration oracle.
Z12_CURVE = CurveMND(-366, 30, -15)
Z12_WITNESS_IV = WitnessIV(u=24, v=15, w=1)
Z12_GENERATOR = Point(1536, 46080)

C322 = CurveMND(3, 2, 2)
C323 = CurveMND(3, 2, 3)
C523 = CurveMND(5, 2, 3)
C2387 = CurveMND(23, 8, 7)
C59246 = CurveMND(59, 24, 6)
C953210 = CurveMND(95, 32, 10)
# Z2, with n/2 the product of the first 20 odd primes: 2^20 divisors.
ODD_PRIMORIAL_20 = prod(p for p in range(3, 74) if all(p % q for q in range(2, p)))


class TestCaseI:
    def test_322(self):
        assert check_case_i(C322) == WitnessI(1, 1)

    def test_2387(self):
        assert check_case_i(C2387) == WitnessI(4, 1)

    def test_absent(self):
        assert check_case_i(C523) is None

    def test_945(self):
        assert check_case_i(CurveMND(9, 4, 5)) == WitnessI(2, 1)

    def test_odd_n(self):
        assert check_case_i(CurveMND(1, 1, 2)) is None

    def test_canonical_sign(self):
        w = check_case_i(Z12_CURVE)
        assert w is not None and w.a > 0

    def test_factors_nothing(self, monkeypatch):
        # Case I is solved in closed form and case II refines its witness,
        # so neither lists a divisor of n/2.
        z2 = CurveMND(5, 2 * ODD_PRIMORIAL_20, 3)

        def refuse(x):
            raise AssertionError(f"factorization({x}) called")

        monkeypatch.setattr(intmath, "factorization", refuse)
        for c, w1, w2 in (
            (C322, WitnessI(1, 1), None),
            (C2387, WitnessI(4, 1), WitnessII(2, 1, 1)),
            (Z12_CURVE, WitnessI(3, 5), None),
        ):
            assert check_case_i(c) == w1, c
            assert check_case_ii(c, w1) == w2, c
        assert check_case_i(z2) is None


class TestCaseII:
    def test_2387(self):
        assert check_case_ii(C2387, WitnessI(4, 1)) == WitnessII(2, 1, 1)

    def test_322_absent(self):
        # a^2 - b^2 D = -1 is not a square
        assert check_case_ii(C322, WitnessI(1, 1)) is None

    def test_945_absent(self):
        # a = 2 is not a perfect square
        assert check_case_ii(CurveMND(9, 4, 5), WitnessI(2, 1)) is None


class TestCaseIII:
    def test_323(self):
        assert check_case_iii(C323) == WitnessIII(2, 1, -1)

    def test_59246(self):
        assert check_case_iii(C59246) == WitnessIII(5, 2, 1)

    def test_322_absent(self):
        assert check_case_iii(C322) is None

    def test_zero_a_at_d_minus_1(self):
        # (0, 1, 1) gives m = b^2*D = -1, n = 2b(a + c) = 2 and
        # a^2 - b^2*D = c^2; a = 0 needs -b^2*D = c^2, so D = -1, and this
        # is the only normalized curve with such a witness.
        c = CurveMND(-1, 2, -1)
        assert check_case_iii(c) == WitnessIII(0, 1, 1)
        rep = full_report(c, with_oracle=True)
        assert rep.cls == WitnessIII(0, 1, 1)
        assert rep.generator == Point(5, 10)
        assert rep.oracle_group.order == 6 and rep.agree is True


class TestCaseIV:
    def test_59246_absent(self):
        # (v, w) = (6, 2) gives u = 1 but the quartic evaluates to 13824
        assert check_case_iv(C59246) is None

    def test_322_absent(self):
        # (v, w) = (1, 1) forces u = 0, which is excluded
        assert check_case_iv(C322) is None

    def test_z12_regression(self):
        assert check_case_iv(Z12_CURVE) == Z12_WITNESS_IV

    def test_lattice_keeps_every_root(self):
        # The lattice drops each D that does not divide the quartic's
        # constant term; every (u, v, w, D) with w <= 2 at which the quartic
        # holds, both planted witnesses among them, must survive.
        bound = 25
        kept = set(WitnessIV.lattice(bound))
        held = [
            (WitnessIV(u, v, w), d)
            for u, v, w in product(range(1, bound + 1), range(1, bound + 1), (1, 2))
            for d in classifier_module._squarefree_ds(bound)
            if WitnessIV(u, v, w).holds(d)
        ]
        assert (Z12_WITNESS_IV, Z12_CURVE.D) in held
        assert (WitnessIV(21, 20, 2), -5) in held
        assert all(t in kept for t in held)

    def test_lattice_keeps_only_divisors_of_the_constant(self):
        # X = w^2*D is an integer root of the quartic in X, so it divides
        # the constant term v^6 (3v^2 - 4u^2); the lattice yields no other.
        kept = list(WitnessIV.lattice(25))
        assert kept
        for witness, d in kept:
            u, v, w = witness.params
            assert v**6 * (3 * v * v - 4 * u * u) % (w * w * d) == 0


class TestCaseV:
    def test_953210(self):
        assert check_case_v(C953210) == WitnessV(4, 4, 9, 3)

    def test_322_absent(self):
        assert check_case_v(C322) is None

    def test_523_absent(self):
        # u^2 = 3 + 1 - 5 < 0 for every divisor pair
        assert check_case_v(C523) is None

    @staticmethod
    def positive_twin(u, v):
        """sigma: (v, -u) when u < 0, (-v, u) when v < 0."""
        return (v, -u) if u < 0 else (-v, u)

    def test_sign_maps_keep_the_curve_symbolically(self):
        # m and q depend only on (u, v) once s is eliminated, sigma keeps
        # both, and it scales s by |u + v| / |u - v|.
        sp = pytest.importorskip("sympy")
        u, v = sp.symbols("u v")

        def s_m_q(u, v):
            s = (u - v) ** 2 * (u + v) / (4 * u * v)  # (u-v)^2 (u+v) = 4uvs
            m = 2 * s * (s + u) - v**2
            q = m**2 - 4 * s**2 * ((s + u) ** 2 - v**2)  # n^2 D = 4 s^2 t^2 D
            return s, m, q

        s, m, q = s_m_q(u, v)
        assert sp.simplify(q + u * v * (u**2 - u * v - v**2)) == 0
        maps = (((v, -u), (u + v) / (u - v)), ((-v, u), -(u + v) / (u - v)))
        for (u2, v2), ratio in maps:
            s2, m2, q2 = s_m_q(u2, v2)
            assert sp.simplify(m2 - m) == 0
            assert sp.simplify(q2 - q) == 0
            assert sp.simplify(s2 / s - ratio) == 0

    def test_negative_roots_have_a_positive_twin_first(self):
        # Every (s > 0, t, u, v, D) with |u|, |v| <= 200 and u or v < 0.
        seen = 0
        for u, v in product(range(-200, 201), repeat=2):
            if u * v == 0 or min(u, v) > 0:
                continue
            s, rem = divmod((u - v) ** 2 * (u + v), 4 * u * v)
            if rem or s <= 0:
                continue
            t, d = intmath.squarefree_split((s + u) ** 2 - v * v)
            if d == 1:
                continue
            seen += 1
            w = WitnessV(s, t, u, v)
            assert w.holds(d)
            m, n = w.curve_mn(d)
            u2, v2 = self.positive_twin(u, v)
            s2, rem = divmod((u2 - v2) ** 2 * (u2 + v2), 4 * u2 * v2)
            assert rem == 0 and 0 < s2 < s, w
            t2, rem = divmod(s * t, s2)
            assert rem == 0, w
            twin = WitnessV(s2, t2, u2, v2)
            assert twin.holds(d) and twin.curve_mn(d) == (m, n), w
            try:
                c = CurveMND(m, n, d)
            except InvalidCurveError:
                c = curve_module.normalize(m, n, d)
            found = check_case_v(c)
            assert found is not None and found.u > 0 and found.v > 0, (w, c)
            assert found == _reference_witness("V", c), (w, c)
        assert seen == 122


def _signed_pairs(half):
    """Every (p, q) with p*q == half: ascending |p|, positive p first.  The
    divisors are products of the prime powers of `intmath.factorization`
    (gated against sympy), not `intmath.divisors`, which the scan walks."""
    powers = [[p**k for k in range(e + 1)] for p, e in intmath.factorization(half)]
    for d in sorted(prod(ps) for ps in product(*powers)):
        yield d, half // d
        yield -d, -(half // d)


def _reference_candidates_v(c):
    for s, t in _signed_pairs(c.n // 2):
        u0 = intmath.int_sqrt(t * t * c.D + s * s - c.m)
        if not u0:
            continue
        for u in (u0, -u0):
            v0 = intmath.int_sqrt(2 * s * s + 2 * s * u - c.m)
            if v0:
                yield WitnessV(s, t, u, v0)
                yield WitnessV(s, t, u, -v0)


def _reference_candidates_iii(c):
    for b, k in _signed_pairs(c.n // 2):
        b2d = b * b * c.D
        a, rem = divmod(k * k + b2d, 2 * k)
        if not rem and a * (2 * k - a) + b2d == c.m:
            yield WitnessIII(a, b, k - a)


# The scan over every signed divisor pair of n/2 that cases I, III, IV and V
# ran before case I got its closed form and III-V their positive-only scan.
REFERENCE_CANDIDATES = {
    "I": lambda c: (
        WitnessI(a, b) for a, b in _signed_pairs(c.n // 2) if a * a + b * b * c.D == c.m
    ),
    "III": _reference_candidates_iii,
    "IV": lambda c: (
        WitnessIV(u, v, w)
        for v, w in _signed_pairs(c.n // 2)
        if (u := intmath.int_sqrt(v * v + w * w * c.D - c.m))
    ),
    "V": _reference_candidates_v,
}
SCANNED_CHECKS = {"I": check_case_i, "III": check_case_iii, "IV": check_case_iv, "V": check_case_v}


def _reference_witness(tag, c):
    if c.n % 2:
        return None
    for w in REFERENCE_CANDIDATES[tag](c):
        if w.holds(c.D) and w.curve_mn(c.D) == (c.m, c.n):
            return w
    return None


# (witness, D) of cases I, III, IV and V with small parameters.  Case IV's
# lattice holds its only two witnesses up to bound 25 (`sample IV 25`), so
# they are listed instead.
PLANTED = [
    (w, d)
    for tag, bound in (("I", 6), ("III", 6), ("V", 30))
    for w, d in CASES[tag].lattice(bound)
    if w.holds(d)
] + [(Z12_WITNESS_IV, Z12_CURVE.D), (WitnessIV(21, 20, 2), -5)]
SMALL_DS = (-15, -7, -6, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15)


class TestDivisorPairs:
    def test_matches_brute_force(self):
        # Cases III-V pair each d of divisors(n // 2) with (n/2)/d.
        for n in (2, 24, 36, -24, 2 * 3 * 5 * 7 * 11):
            half = n // 2
            brute = tuple(d for d in range(1, abs(half) + 1) if half % d == 0)
            assert classifier_module.divisors(half) == brute, n

    def test_one_factoring_per_scanning_case(self, monkeypatch):
        # C523 has g = 2, which admits neither order 3 nor order 5, so
        # nothing is scanned.  With the bound replaced by 120 = lcm(8, 3, 5),
        # cases III and V each factor n/2 once; case I finds no witness, so
        # IV does not run.
        calls = []
        divisors = classifier_module.divisors
        monkeypatch.setattr(
            classifier_module, "divisors", lambda x: calls.append(x) or divisors(x)
        )
        assert classify(C523).label == "Z2"
        assert calls == []
        monkeypatch.setattr(classifier_module._oracle, "reduction_bound", lambda c: 120)
        assert classify(C523).label == "Z2"
        assert calls == [1, 1]

    def test_family_curves_have_at_most_one_witness(self):
        # The scan returns the witness at the smallest positive divisor d of
        # n/2 (b for III, v for IV, s for V), but no family curve at these
        # bounds has two III-V witnesses to choose between.  The hit counts
        # keep the check from passing on an empty scan.
        curves = {
            s.curve
            for tag, bound in (("I", 8), ("II", 10), ("III", 11), ("IV", 25), ("V", 60))
            for s in sample_case(tag, bound)
        }
        hits = Counter()
        for c in curves:
            for case in (WitnessIII, WitnessIV, WitnessV):
                found = [
                    w
                    for w in case.candidates(c)
                    if w.holds(c.D) and w.curve_mn(c.D) == (c.m, c.n)
                ]
                assert len(found) <= 1, (c, found)
                hits[case.tag] += len(found)
        assert len(curves) == 1146
        assert hits == {"III": 182, "IV": 2, "V": 8}


class TestReferenceScan:
    """Cases I and III-V return the witness the signed scan returns first."""

    @staticmethod
    def assert_same(m, n, d):
        try:
            c = CurveMND(m, n, d)
        except InvalidCurveError:
            return
        TestReferenceScan.assert_same_curve(c)

    @staticmethod
    def assert_same_curve(c):
        found = {tag: check(c) for tag, check in SCANNED_CHECKS.items()}
        for tag, w in found.items():
            assert w == _reference_witness(tag, c), (tag, c)
        return found

    def test_planted_kinds_present(self):
        assert {w.tag for w, _ in PLANTED} == set(SCANNED_CHECKS)

    @settings(max_examples=300)
    @given(
        st.integers(-200, 200),
        st.integers(-120, 120).filter(bool),
        st.sampled_from(SMALL_DS),
    )
    def test_random_small(self, m, n, d):
        self.assert_same(m, n, d)

    @settings(max_examples=300)
    @given(st.sampled_from(PLANTED), st.sampled_from((1, -1)))
    def test_planted(self, planted, sign):
        # sign -1 builds the unnormalized curve with negative n/2.
        w, d = planted
        m, n = w.curve_mn(d)
        self.assert_same(m, sign * n, d)

    @given(
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.sampled_from(SMALL_DS),
        st.sampled_from((1, -1)),
    )
    def test_planted_case_i_large(self, a, b, d, sign):
        g = gcd(a, b)
        m, n = WitnessI(a // g, b // g).curve_mn(d)
        self.assert_same(m, sign * n, d)

    @given(
        st.integers(10**5, 10**6),
        st.integers(10**5, 10**6),
        st.sampled_from((1, -1)),
    )
    def test_planted_case_iii_large(self, a, c, sign):
        # The large-height benchmark pool's case-III witnesses: b = 1 and
        # D = a^2 - c^2, which is not squarefree in general, so the curve
        # is normalized; n/2 has up to a few hundred divisors.
        d = a * a - c * c
        assume(intmath.int_sqrt(d) is None)  # skip D = 0 and positive squares
        m, n = WitnessIII(a, 1, c).curve_mn(d)
        curve = curve_module.normalize(m, sign * n, d)
        assert self.assert_same_curve(curve)["III"] is not None, curve


class TestHolds:
    # Each pinned witness, and copies with one parameter moved off a case
    # relation: V's t = 5 breaks only (s+u)^2 - v^2 = t^2*D, and its
    # s = -22 only (u-v)^2*(u+v) = 4uvs.
    @pytest.mark.parametrize(
        "curve,witness,broken",
        [
            (C322, WitnessI(1, 1), [WitnessI(1, 0)]),
            (C2387, WitnessII(2, 1, 1), [WitnessII(2, 1, 2)]),
            (C59246, WitnessIII(5, 2, 1), [WitnessIII(5, 2, 2)]),
            (Z12_CURVE, Z12_WITNESS_IV, [WitnessIV(24, 15, 2)]),
            (C953210, WitnessV(4, 4, 9, 3), [WitnessV(4, 5, 9, 3), WitnessV(-22, 4, 9, 3)]),
        ],
        ids=list(CASES),
    )
    def test_pinned(self, curve, witness, broken):
        assert witness.holds(curve.D)
        assert witness.curve_mn(curve.D) == (curve.m, curve.n)
        for w in broken:
            assert not w.holds(curve.D), w
        for f in fields(witness):
            assert not replace(witness, **{f.name: 0}).holds(curve.D), f.name

    @pytest.mark.parametrize(
        "witness,d", [(WitnessI(2, 2), C322.D), (WitnessIII(10, 4, 2), C59246.D)]
    )
    def test_coprime(self, witness, d):
        # Twice a valid witness keeps the relation but not the gcd condition.
        assert not witness.holds(d)


@pytest.mark.parametrize(
    "witness",
    [
        WitnessI(2, 3),
        WitnessII(2, 3, 5),
        WitnessIII(2, 3, -5),
        WitnessIV(2, 3, 5),
        WitnessV(2, 3, 5, 7),
    ],
    ids=list(CASES),
)
def test_params_in_field_order(witness):
    assert witness.params == tuple(getattr(witness, f.name) for f in fields(witness))


class TestClassify:
    @pytest.mark.parametrize(
        "curve,label",
        [
            (C322, "Z4"),
            (C323, "Z6"),
            (CurveMND(1, 1, 2), "Z2"),
            (C523, "Z2"),
            (C2387, "Z8"),
            (C59246, "Z6"),
            (C953210, "Z10"),
            (Z12_CURVE, "Z12"),
        ],
    )
    def test_labels(self, curve, label):
        assert classify(curve).label == label

    def test_odd_n_always_z2(self):
        for m, n, d in product(range(-15, 16), (1, 3, 5), (-3, -1, 2, 5)):
            try:
                c = CurveMND(m, n, d)
            except InvalidCurveError:
                continue
            assert classify(c).order == 2

    def test_z2_is_one_parameterless_witness(self):
        # Odd n, and even n with reduction bound g = 2.
        odd, even = classify(CurveMND(1, 1, 2)), classify(C523)
        assert odd is even
        assert odd == Witness() and hash(odd) == hash(Witness())

    def test_z2_witness(self):
        w = Witness()
        assert (w.tag, w.label, w.order, w.params) == (None, "Z2", 2, ())
        assert w.generator_x(C523.D) == 0
        assert generator(C523, w) == Point(0, 0)

    def test_labels_follow_orders(self):
        assert all(case.label == f"Z{case.order}" for case in CASES.values())

    def test_witness_reconstruction(self):
        for c in (C322, C323, C2387, C59246, C953210, Z12_CURVE):
            w = classify(c)
            assert w.tag is not None
            assert w.curve_mn(c.D) == (c.m, c.n)

    def test_case_table(self):
        # Tag -> (class order, exact); I and III only show containment.
        rows = {tag: (case.order, case.exact) for tag, case in CASES.items()}
        assert rows == {
            "I": (4, False),
            "II": (8, True),
            "III": (6, False),
            "IV": (12, True),
            "V": (10, True),
        }
        assert all(case.tag == tag for tag, case in CASES.items())


class TestGenerator:
    @pytest.mark.parametrize(
        "curve,point",
        [
            (C322, Point(-1, 2)),
            (C2387, Point(-3, 12)),
            (C953210, Point(-15, 240)),
            (C59246, Point(25, 300)),
            (C523, Point(0, 0)),
            (Z12_CURVE, Z12_GENERATOR),
        ],
    )
    def test_pinned_generators(self, curve, point):
        cls = classify(curve)
        gen = generator(curve, cls)
        assert gen == point
        assert order(curve, gen) == cls.order

    @pytest.mark.parametrize(
        "curve,doubled_x",
        [
            (C322, 0),
            (C323, 1),
            (C2387, 9),
            (C59246, 1),
            (C953210, 9),
            (Z12_CURVE, 576),
        ],
    )
    def test_doubling_identities(self, curve, doubled_x):
        gen = generator(curve, classify(curve))
        assert add(curve, gen, gen).x == doubled_x

    def test_z10_five_torsion_x_is_u_squared(self):
        # x(P5) = u^2 and |y(P5)| = |u (u^2 - v^2 + 2us)|; the double of the
        # generator lands on the complementary order-5 x, which is v^2.
        w = classify(C953210)
        p5 = Point(w.u**2, abs(w.u * (w.u**2 - w.v**2 + 2 * w.u * w.s)))
        assert p5 == Point(81, 1296)
        assert C953210.contains(p5)
        assert order(C953210, p5) == 5
        gen = generator(C953210, w)
        assert add(C953210, gen, gen).x == w.v**2

    def test_z10_doubled_x_is_v_squared_symbolically(self):
        # On the case-V parametrization, x(2P) = (x^2 - q)^2 / (4y^2) equals
        # v^2 identically for x = 2v^2 + 4vs - u^2; u^2 misses by a nonzero
        # rational function of (u, v).
        sp = pytest.importorskip("sympy")
        u, v = sp.symbols("u v")
        s = (u - v) ** 2 * (u + v) / (4 * u * v)  # (u-v)^2 (u+v) = 4uvs
        m = 2 * s * (s + u) - v**2
        # q = m^2 - n^2 D with n = 2st and t^2 D = (s+u)^2 - v^2
        q = m**2 - 4 * s**2 * ((s + u) ** 2 - v**2)
        x = 2 * v**2 + 4 * v * s - u**2
        y2 = x * (x**2 + 2 * m * x + q)
        assert sp.simplify(x * u**2 - q) == 0  # P = (0,0) + P5, x(P5) = u^2
        assert sp.simplify((x**2 - q) ** 2 - 4 * v**2 * y2) == 0
        u2_residue = -((u - v) ** 3) * (u + v) ** 5 * (u**2 - u * v - v**2) ** 2
        u2_residue /= u**4
        assert sp.simplify((x**2 - q) ** 2 - 4 * u**2 * y2 - u2_residue) == 0

    def test_z8_degree_four_identity(self):
        # (x - (u^2 - v^2)^2)^4 == 16 u^4 (u^2 - v^2)^2 x^2 at the generator
        w = classify(C2387)
        x = w.generator_x(C2387.D)
        lhs = (x - (w.u**2 - w.v**2) ** 2) ** 4
        rhs = 16 * w.u**4 * (w.u**2 - w.v**2) ** 2 * x * x
        assert lhs == rhs

    def test_z12_degree_four_identity(self):
        w = Z12_WITNESS_IV
        d = Z12_CURVE.D
        a = w.v**2 - w.w**2 * d
        b = w.v**2 + w.w**2 * d
        h = 2 * (a * a + 2 * w.u**2 * b - 3 * w.u**4)
        e = a * a + w.u**4 - 2 * w.u**2 * b
        x = classify(Z12_CURVE).generator_x(d)
        assert x**4 - 4 * w.u**2 * x**3 - h * x * x - 4 * w.u**2 * e * x + e * e == 0

    def test_inconsistent_witness_raises(self):
        bogus = WitnessI(5, 7)
        with pytest.raises(NonSquareYError):
            generator(C322, bogus)


class TestFullReport:
    def test_with_oracle_agreement(self):
        rep = full_report(C322, with_oracle=True)
        assert rep.cls.label == "Z4"
        assert rep.generator == Point(-1, 2)
        assert rep.agree is True

    def test_z2_with_oracle(self):
        rep = full_report(C523, with_oracle=True)
        assert rep.cls.label == "Z2"
        assert rep.generator == Point(0, 0)
        assert rep.agree is True

    def test_without_oracle(self):
        rep = full_report(C59246, with_oracle=False)
        assert rep.cls.label == "Z6"
        assert rep.generator == Point(25, 300)
        assert rep.oracle_group is None
        assert rep.agree is None

    def test_fields_are_read_only(self):
        rep = full_report(C322)
        with pytest.raises(AttributeError):
            rep.agree = True


class TestCaseWitnesses:
    def test_consistency_on_z12(self):
        ws = case_witnesses(Z12_CURVE)
        assert ws["I"] is not None and ws["III"] is not None and ws["IV"] is not None
        assert ws["V"] is None

    def test_exclusions_on_small_curves(self):
        for m, n, d in product(range(-10, 11), range(1, 7), (-3, -2, 2, 3, 5, 7)):
            try:
                c = CurveMND(m, n, d)
            except InvalidCurveError:
                continue
            ws = case_witnesses(c)
            has_i, has_iii = ws["I"] is not None, ws["III"] is not None
            if ws["II"] is not None:
                assert has_i
            if ws["V"] is not None:
                assert not has_i and not has_iii
            assert (ws["IV"] is not None) == (has_i and has_iii)


class TestLayerAttributes:
    """classify, full_report and case_witnesses reach the case checks, the
    generator and the point order through module attributes, so a profiler
    that replaces those attributes sees every call."""

    CURVES = (Z12_CURVE, C2387, C953210)

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for i in ("i", "ii", "iii", "iv", "v"):
            spy(classifier_module, f"check_case_{i}")
        spy(classifier_module, "generator")
        spy(curve_module, "order")
        return seen

    # Z12 (g = 12) runs I, III, then IV; (23, 8, 7) (g = 8) runs I, then II
    # on top of I; (95, 32, 10) (g = 10) runs only V.
    CLASSIFY_CHECKS = {
        "check_case_i": 2,
        "check_case_ii": 1,
        "check_case_iii": 1,
        "check_case_iv": 1,
        "check_case_v": 1,
    }

    def test_classify(self, calls):
        for c in self.CURVES:
            classify(c)
        assert calls == Counter(self.CLASSIFY_CHECKS)

    def test_full_report(self, calls):
        for c in self.CURVES:
            full_report(c)
        assert calls == Counter({**self.CLASSIFY_CHECKS, "generator": 3, "order": 3})

    # Z2 by odd n, and Z2 by g = 2 at even n: the report takes (0, 0) as
    # its generator and calls neither generator nor order, oracle or not.
    Z2_CURVES = (CurveMND(5, 3, 2), C523)

    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_full_report_z2_skips_generator_and_order(self, calls, with_oracle):
        for c in self.Z2_CURVES:
            rep = full_report(c, with_oracle=with_oracle)
            assert rep.cls is classify(c)
            assert rep.cls == Witness()
            assert rep.generator == Point(0, 0)
            assert rep.agree is (True if with_oracle else None)
        assert calls["generator"] == 0
        assert calls["order"] == 0

    def test_case_witnesses(self, calls):
        for c in self.CURVES:
            case_witnesses(c)
        assert calls == Counter(
            {
                "check_case_i": 3,
                "check_case_ii": 2,
                "check_case_iii": 3,
                "check_case_iv": 3,
                "check_case_v": 3,
            }
        )


class TestOneReductionBound:
    """full_report computes the reduction bound g at most once per curve:
    with the oracle it hands one g to both classify and torsion_group;
    without it, classify computes g itself, and only at even n."""

    @pytest.fixture
    def bound_calls(self, monkeypatch):
        calls = []
        real = classifier_module._oracle.reduction_bound
        monkeypatch.setattr(
            classifier_module._oracle, "reduction_bound", lambda c: calls.append(c) or real(c)
        )
        return calls

    # Z2 by odd n, Z2 by g = 2 at even n, and Z12.
    @pytest.mark.parametrize(
        "curve,calls_without_oracle",
        [(CurveMND(5, 3, 2), 0), (C523, 1), (Z12_CURVE, 1)],
        ids=["odd n", "g = 2", "Z12"],
    )
    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_calls_per_curve(self, bound_calls, curve, calls_without_oracle, with_oracle):
        full_report(curve, with_oracle=with_oracle)
        assert len(bound_calls) == (1 if with_oracle else calls_without_oracle)

    @pytest.mark.parametrize("curve", TestLayerAttributes.CURVES)
    def test_oracle_takes_the_bound(self, curve):
        assert torsion_group(curve, reduction_bound(curve)) == torsion_group(curve)
