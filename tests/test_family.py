import pytest

from eventorsion.classifier import CASES, WitnessV, classify, full_report
from eventorsion.curve import Point, normalize, order
from eventorsion.family import FamilySample, sample_case
from eventorsion.intmath import int_sqrt

# Small bounds that still give samples for every case.
SAMPLE_BOUNDS = [("I", 4), ("II", 5), ("III", 4), ("V", 20), ("IV", 25)]


class TestSampleCase:
    def test_case_i_bound_one_reaches_322(self):
        samples = sample_case("I", 1)
        curves = {(s.curve.m, s.curve.n, s.curve.D) for s in samples}
        assert (3, 2, 2) in curves
        assert all(s.predicted.order == 4 for s in samples)

    def test_case_ii_bound_two_reaches_2387(self):
        samples = sample_case("II", 2)
        curves = {(s.curve.m, s.curve.n, s.curve.D) for s in samples}
        assert (23, 8, 7) in curves

    def test_case_v_bound_nine_reaches_953210(self):
        samples = sample_case("V", 9)
        curves = {(s.curve.m, s.curve.n, s.curve.D) for s in samples}
        assert (95, 32, 10) in curves

    def test_case_iv_reaches_z12_curves(self):
        samples = sample_case("IV", 25)
        curves = {(s.curve.m, s.curve.n, s.curve.D) for s in samples}
        assert (-366, 30, -15) in curves
        assert (-61, 80, -5) in curves

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_case("VI", 3)
        with pytest.raises(ValueError):
            sample_case("I", 0)

    def test_deduplicated_and_sorted(self):
        samples = sample_case("I", 6)
        keys = [(s.curve.m, s.curve.n, s.curve.D) for s in samples]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_deterministic(self):
        assert sample_case("III", 5) == sample_case("III", 5)

    @pytest.mark.parametrize("tag,bound", SAMPLE_BOUNDS)
    def test_samples_are_classified_consistently(self, tag, bound):
        samples = sample_case(tag, bound)
        assert samples, f"case {tag} produced nothing at bound {bound}"
        for s in samples:
            cls = classify(s.curve)
            if tag in ("I", "III"):
                # Containment: the case's subgroup order divides the class order.
                assert cls.order % CASES[tag].order == 0, s
            else:
                assert cls.order == CASES[tag].order, s

    @staticmethod
    def rescaled_generator_x(w, c):
        """The witness's generator x on the normalized curve c.  Normalization
        divides (m, n) by e^2; points rescale by the same square, and the
        image of an integral torsion point stays integral."""
        _, n = w.curve_mn(c.D)
        assert n % c.n == 0, (w, c)
        e2 = abs(n) // c.n
        gx, rem = divmod(w.generator_x(c.D), e2)
        assert rem == 0, (w, c, e2)
        return gx

    @pytest.mark.parametrize("tag,bound", SAMPLE_BOUNDS)
    def test_predicted_generators_lie_on_curve_with_predicted_order(self, tag, bound):
        for s in sample_case(tag, bound):
            gx = self.rescaled_generator_x(s.predicted, s.curve)
            y = int_sqrt(s.curve.rhs(gx))
            assert y is not None, s
            assert order(s.curve, Point(gx, y)) == s.predicted.order

    @pytest.mark.parametrize("tag,bound", SAMPLE_BOUNDS)
    def test_witnesses_satisfy_side_conditions(self, tag, bound):
        for s in sample_case(tag, bound):
            assert s.predicted.holds(s.curve.D), s

    @pytest.mark.parametrize("tag,bound", SAMPLE_BOUNDS)
    def test_case_tag(self, tag, bound):
        assert {s.case_tag for s in sample_case(tag, bound)} == {tag}

    def test_sample_is_its_witness_and_curve(self):
        assert FamilySample._fields == ("predicted", "curve")
        s = sample_case("II", 2)[0]
        assert s == (s.predicted, s.curve)
        assert s.case_tag == s.predicted.tag == "II"

    @staticmethod
    def only_scaled_953210(monkeypatch):
        # (u, v) = (18, 6) parametrizes (95, 32, 10) scaled by e^2 = 4:
        # (m, n) = (380, 128) and generator x = -60.  The real lattice reaches
        # (95, 32, 10) first with e = 1, so it is the only tuple offered.
        lattice = classmethod(lambda cls, bound: iter([(WitnessV(8, 8, 18, 6), 10)]))
        monkeypatch.setattr(WitnessV, "lattice", lattice)

    def test_normalization_rescale_keeps_prediction(self, monkeypatch):
        self.only_scaled_953210(monkeypatch)
        [sample] = sample_case("V", 18)
        assert sample.predicted == WitnessV(8, 8, 18, 6)
        assert (sample.curve.m, sample.curve.n, sample.curve.D) == (95, 32, 10)
        gx = self.rescaled_generator_x(sample.predicted, sample.curve)
        assert (sample.predicted.generator_x(10), gx) == (-60, -15)
        assert int_sqrt(sample.curve.rhs(gx)) == 240


class TestLargeHeight:
    # Primes in [10^11, 10^12]: far past trial division, inside the proven
    # Miller-Rabin range.
    P, R = 100000000003, 999999999989
    BOUNDS = {"I": 4, "II": 5, "III": 4, "IV": 25, "V": 20}

    @pytest.mark.parametrize("tag", CASES)
    def test_scaled_witnesses(self, tag):
        p, r = self.P, self.R
        for s in sample_case(tag, self.BOUNDS[tag]):
            m, n, d = s.curve.m, s.curve.n, s.curve.D
            # n*sqrt(D*r^2) = n*r*sqrt(D): a different curve, of height ~r.
            big = normalize(m * p * p, n * p * p, d * r * r)
            assert (big.m, big.n, big.D) == (m, n * r, d), s
            full_report(big)  # raises if the class and its generator disagree
            # The sample's own curve, scaled by (p*r)^2.
            same = normalize(m * (p * r) ** 2, n * p * p * r, d * r * r)
            assert same == s.curve, s
            cls = classify(same)
            if CASES[tag].exact:
                assert cls.order == CASES[tag].order, s
            else:
                assert cls.order % CASES[tag].order == 0, s
