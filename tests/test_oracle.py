import tracemalloc
from itertools import islice, product

import pytest

from eventorsion import oracle
from eventorsion.classifier import CASES
from eventorsion.curve import (
    INFINITY,
    CurveMND,
    InvalidCurveError,
    Point,
    add,
    normalize,
    order,
)
from eventorsion.family import sample_case, sweep_curves
from eventorsion.oracle import (
    MAZUR_STRUCTURES,
    TorsionGroup,
    assert_family_shape,
    discriminant,
    reduction_bound,
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


def _points_mod_p(c: CurveMND, p: int) -> int:
    """#E(F_p) by direct search over F_p x F_p, plus the point at infinity."""
    return 1 + sum(
        1
        for x, y in product(range(p), repeat=2)
        if (y * y - c.rhs(x)) % p == 0
    )


# Small family bounds that still reach every class the case predicts.
SAMPLE_BOUNDS = {"I": 3, "II": 2, "III": 3, "IV": 25, "V": 9}


def _assert_paths_agree(curves):
    for c in curves:
        group = torsion_group(c)
        assert torsion_group(c, weak_bound=True) == group, c
        assert reduction_bound(c) % group.order == 0, c


class TestDiscriminant:
    def test_322(self):
        assert discriminant(C322) == 512

    def test_323(self):
        assert discriminant(C323) == 6912

    def test_matches_b_invariant_formula(self):
        for triple, _ in PINNED:
            c = CurveMND(*triple)
            assert discriminant(c) == c.to_cubic().discriminant()
            assert discriminant(c) != 0


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

    @pytest.mark.parametrize("triple,structure", PINNED)
    def test_weak_bound_same_answer(self, triple, structure):
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
                assert p.is_integral

    def test_generators_span(self):
        g = torsion_group(C323)
        (gen,) = g.generators
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
    """Curves the candidate enumeration runs on, recorded at its first step."""
    calls = []
    real = oracle._delta_factorization
    monkeypatch.setattr(
        oracle, "_delta_factorization", lambda c: calls.append(c) or real(c)
    )
    return calls


def test_candidate_ys_are_lazy():
    # 207,360 candidate y for this many-prime curve; taking the first
    # thousand must not build the rest.
    c = normalize(10464232622576958223, 6469693230, -2)
    items = oracle._delta_factorization(c)
    tracemalloc.start()
    try:
        ys = list(islice(oracle._candidate_ys(items, weak_bound=False), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ys) == 1000 and len(set(ys)) == 1000
    assert all(discriminant(c) % (y * y) == 0 for y in ys)
    assert peak < 1 << 20, peak


class TestReductionBound:
    @pytest.mark.parametrize("p", [7, 11, 13, 47])
    def test_single_prime_is_point_count(self, monkeypatch, p):
        c = CurveMND(95, 32, 10)
        assert discriminant(c) % p != 0
        monkeypatch.setattr(oracle, "_REDUCTION_PRIMES", (p,))
        assert reduction_bound(c) == _points_mod_p(c, p)

    def test_bad_prime_is_skipped(self, monkeypatch):
        assert discriminant(C323) == 6912 and 6912 % 3 == 0
        monkeypatch.setattr(oracle, "_REDUCTION_PRIMES", (3,))
        assert reduction_bound(C323) == 0
        monkeypatch.setattr(oracle, "_REDUCTION_PRIMES", (3, 5))
        assert reduction_bound(C323) == _points_mod_p(C323, 5) == 6

    def test_no_usable_prime_falls_back_to_enumeration(self, monkeypatch, enumerations):
        c = CurveMND(1, 105, 2)
        monkeypatch.setattr(oracle, "_REDUCTION_PRIMES", (3, 5, 7))
        assert reduction_bound(c) == 0
        group = torsion_group(c)
        assert enumerations == [c]
        assert group.elements == (INFINITY, Point(0, 0))
        assert group == torsion_group(c, weak_bound=True)

    def test_settled_curve_skips_enumeration(self, enumerations):
        assert torsion_group(C523).structure == "Z2"
        assert enumerations == []
        assert torsion_group(C523, weak_bound=True).structure == "Z2"
        assert enumerations == [C523]

    def test_sweep_paths_agree(self):
        _assert_paths_agree(sweep_curves(12, 12, 10))

    @pytest.mark.parametrize("case", CASES)
    def test_family_paths_agree(self, case):
        samples = sample_case(case, SAMPLE_BOUNDS[case])
        assert samples
        _assert_paths_agree(s.curve for s in samples)


class TestFamilyShape:
    def test_true_on_family(self):
        assert assert_family_shape(torsion_group(C322), C322)

    def test_false_on_product_structure(self):
        fake = TorsionGroup((INFINITY,), "Z2xZ2", ())
        assert not assert_family_shape(fake, C322)

    def test_false_on_odd_cyclic(self):
        fake = TorsionGroup((INFINITY,), "Z7", ())
        assert not assert_family_shape(fake, C322)

    def test_mazur_labels(self):
        assert "Z11" not in MAZUR_STRUCTURES
        assert "Z12" in MAZUR_STRUCTURES
        assert "Z2xZ8" in MAZUR_STRUCTURES
        assert len(MAZUR_STRUCTURES) == 15
