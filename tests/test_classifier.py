from collections import Counter
from dataclasses import fields, replace
from itertools import product

import pytest

from eventorsion import classifier as classifier_module
from eventorsion import curve as curve_module
from eventorsion.classifier import (
    CASES,
    NonSquareYError,
    TorsionClass,
    WitnessI,
    WitnessII,
    WitnessIII,
    WitnessIV,
    WitnessV,
    case_witnesses,
    check_case_i,
    check_case_ii,
    check_case_iii,
    check_case_iv,
    check_case_v,
    classify,
    full_report,
    generator,
    generator_x,
)
from eventorsion.curve import CurveMND, InvalidCurveError, Point, add, order

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


class TestCaseIV:
    def test_59246_absent(self):
        # (v, w) = (6, 2) gives u = 1 but the quartic evaluates to 13824
        assert check_case_iv(C59246) is None

    def test_322_absent(self):
        # (v, w) = (1, 1) forces u = 0, which is excluded
        assert check_case_iv(C322) is None

    def test_z12_regression(self):
        assert check_case_iv(Z12_CURVE) == Z12_WITNESS_IV


class TestCaseV:
    def test_953210(self):
        assert check_case_v(C953210) == WitnessV(4, 4, 9, 3)

    def test_322_absent(self):
        assert check_case_v(C322) is None

    def test_523_absent(self):
        # u^2 = 3 + 1 - 5 < 0 for every divisor pair
        assert check_case_v(C523) is None


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

    def test_witness_reconstruction(self):
        for c in (C322, C323, C2387, C59246, C953210, Z12_CURVE):
            cls = classify(c)
            if cls.witness is not None:
                assert cls.witness.curve_mn(c.D) == (c.m, c.n)

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

    def test_torsion_class_validation(self):
        with pytest.raises(ValueError):
            TorsionClass(3, None)
        with pytest.raises(ValueError):
            TorsionClass(2, WitnessI(1, 1))
        with pytest.raises(ValueError):
            TorsionClass(8, WitnessI(1, 1))


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

    def test_doubling_identities(self):
        for curve in (C322, C323, C2387, C59246, C953210, Z12_CURVE):
            cls = classify(curve)
            if cls.order == 2:
                continue
            gen = generator(curve, cls)
            assert add(curve, gen, gen).x == cls.witness.doubled_x(curve.D)

    def test_z10_five_torsion_x_is_u_squared(self):
        # x(P5) = u^2 and |y(P5)| = |u (u^2 - v^2 + 2us)|; the double of the
        # generator lands on the complementary order-5 x, which is v^2.
        cls = classify(C953210)
        w = cls.witness
        p5 = Point(w.u**2, abs(w.u * (w.u**2 - w.v**2 + 2 * w.u * w.s)))
        assert p5 == Point(81, 1296)
        assert C953210.contains(p5)
        assert order(C953210, p5) == 5
        gen = generator(C953210, cls)
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
        cls = classify(C2387)
        w = cls.witness
        x = generator_x(C2387, cls)
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
        x = generator_x(Z12_CURVE, classify(Z12_CURVE))
        assert x**4 - 4 * w.u**2 * x**3 - h * x * x - 4 * w.u**2 * e * x + e * e == 0

    def test_inconsistent_witness_raises(self):
        bogus = TorsionClass(4, WitnessI(5, 7))
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

    # Z12 runs I, III, then IV; (23, 8, 7) runs I, III, then II on top of
    # I; (95, 32, 10) runs I, III, then V.
    CLASSIFY_CHECKS = {
        "check_case_i": 3,
        "check_case_ii": 1,
        "check_case_iii": 3,
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
