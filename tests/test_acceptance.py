"""Acceptance suite.

Runs every acceptance criterion at its stated bounds and tolerance (all
equalities here are exact; there are no floating-point tolerances anywhere).
One line per criterion is printed on success; a failure carries the full
list of violations in its assertion message.
"""

import hashlib
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from reference import add, case_witnesses, double_x, evaluate, is_halvable, j_invariant
from test_cli import PINS

from eventorsion.classifier import (
    Witness,
    check_case_i,
    check_case_iii,
    check_case_iv,
    classify,
    full_report,
    generator,
)
from eventorsion.corpus import CorpusRecord
from eventorsion.curve import CurveMND, InvalidCurveError, Point, normalize, order
from eventorsion.family import sample_case, sweep_curves
from eventorsion.intmath import int_sqrt, is_squarefree
from eventorsion.oracle import (
    five_division_coeffs,
    reduction_bound,
    three_torsion_coeffs,
    torsion_group,
)

SWEEP_BOUNDS = (60, 60, 30)
# perfbench's families bounds, but case IV at 25, where its two Z12 curves
# appear.
FAMILY_BOUNDS = (("I", 8), ("II", 10), ("III", 11), ("IV", 25), ("V", 60))
Z12_BOUNDS = (500, 500, 50)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# x(2P) for the paper's generator P of each class: 0 (Z4), c^2 (Z6),
# (u^2-v^2)^2 (Z8), v^2 (Z10), u^2 (Z12).
#
# Z10 is v^2, not u^2, which no Z10 curve attains.  With the paper's
# generator x(P) = 2v^2 + 4vs - u^2 one has x(P) * u^2 = q, so P = (0,0) + P5
# where P5 is the order-5 point with x(P5) = u^2, and 2P = 2*P5.  Were
# x(2*P5) = x(P5), then 2*P5 = +-P5 and 3*P5 = O (or P5 = O), impossible for
# an order-5 point.  On the case-V parametrization s = (u-v)^2 (u+v) / (4uv),
# t^2 D = (s+u)^2 - v^2, m = 2s(s+u) - v^2, q = m^2 - 4 s^2 t^2 D, the
# duplication formula x(2P) = (x^2 - q)^2 / (4y^2) reduces identically to
# v^2, while the u^2 variant leaves -(u-v)^3 (u+v)^5 (u^2-uv-v^2)^2 / u^4,
# which vanishes only for u = +-v (then s = 0 and n = 0) or u^2 - uv - v^2 = 0
# (no rational solution with v != 0); tests/test_classifier.py checks both
# symbolically.  u^2 is the doubled x of the other generator 3P
# (2*(3P) = 6P = P5); criterion 4 checks that too.
STATED_DOUBLED_X = {
    4: lambda w: 0,
    6: lambda w: w.c**2,
    8: lambda w: (w.u**2 - w.v**2) ** 2,
    10: lambda w: w.v**2,
    12: lambda w: w.u**2,
}


def _doubling_mismatches(c, cls, gen):
    """Criterion 4 on one curve of class order > 2: x(2P) against
    STATED_DOUBLED_X, and for Z10 also x(2*(3P)) = u^2.  Each mismatch is
    (curve, class, witness, stated, group-law value)."""
    key = (c.m, c.n, c.D)
    p2 = add(c, gen, gen)
    checks = [(cls.label, p2.x, STATED_DOUBLED_X[cls.order](cls))]
    if cls.order == 10:
        p3 = add(c, gen, p2)
        checks.append(("Z10 (3P)", add(c, p3, p3).x, cls.u**2))
    return [
        (key, label, cls.params, expected, int(actual))
        for label, actual, expected in checks
        if actual != expected
    ]


def _tree_witness(ws):
    """The decision tree of `classify` applied to all five case witnesses:
    IV when I and III both hold, else II or I, else III, else V, else Z2's
    Witness()."""
    if ws["I"] is not None and ws["III"] is not None:
        return ws["IV"]
    if ws["I"] is not None:
        return ws["I"] if ws["II"] is None else ws["II"]
    if ws["III"] is not None:
        return ws["III"]
    return Witness() if ws["V"] is None else ws["V"]


def _bound_violations(c, cls, ws):
    """classify skips the checks the reduction bound g rules out: the
    unfiltered witnesses ws must reach the classifier's class cls, and each
    witness found must have an order that divides g.  Each violation is
    (curve, g, what failed)."""
    key, g = (c.m, c.n, c.D), reduction_bound(c)
    violations = [(key, g, tag) for tag, w in ws.items() if w is not None and g % w.order]
    if _tree_witness(ws) != cls:
        violations.append((key, g, "unfiltered tree differs"))
    return violations


@dataclass
class SweepData:
    bounds: tuple
    total: int = 0
    records: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    class_counts: Counter = field(default_factory=Counter)
    disagreements: list = field(default_factory=list)
    shape_violations: list = field(default_factory=list)
    nonintegral_points: list = field(default_factory=list)
    division_violations: list = field(default_factory=list)
    parity_violations: list = field(default_factory=list)
    duplication_mismatches: list = field(default_factory=list)
    doubling_mismatches: list = field(default_factory=list)
    halvable_mismatches: list = field(default_factory=list)
    forbidden_x_hits: list = field(default_factory=list)
    tree_violations: list = field(default_factory=list)
    bound_violations: list = field(default_factory=list)
    z2_generator_mismatches: list = field(default_factory=list)


@pytest.fixture(scope="session")
def sweep() -> SweepData:
    m_max, n_max, d_max = SWEEP_BOUNDS
    data = SweepData(bounds=SWEEP_BOUNDS)
    for c in sweep_curves(m_max, n_max, d_max):
        report = full_report(c, with_oracle=True)
        cls, group, gen = report.cls, report.oracle_group, report.generator
        key = (c.m, c.n, c.D)
        data.total += 1
        data.class_counts[cls.label] += 1
        data.records.update(f"{CorpusRecord.from_report(report).to_line()}\n".encode())

        # criterion 1: exact classifier/oracle agreement
        if not report.agree:
            data.disagreements.append((key, cls.label, group.structure))

        # criterion 4: stated doubling identities (exact)
        if cls.order > 2:
            data.doubling_mismatches += _doubling_mismatches(c, cls, gen)
        else:
            # a Z2 report skips generator and order; run both here instead
            built = generator(c, cls)
            k = order(c, built)
            if gen != built or k != 2:
                data.z2_generator_mismatches.append((key, str(gen), str(built), k))

        # criterion 5: structural invariants
        if group.order not in (2, 4, 6, 8, 10, 12):
            data.shape_violations.append((key, group.structure))
        affine = [p for p in group.elements if not p.is_infinity]
        for p in affine:
            if not (type(p.x) is int and type(p.y) is int):
                data.nonintegral_points.append((key, str(p)))
            if p.y != 0 and double_x(c, p) != add(c, p, p).x:
                data.duplication_mismatches.append((key, str(p)))
        for k, condition in ((3, three_torsion_coeffs), (5, five_division_coeffs)):
            if group.order % k == 0:
                for p in affine:
                    if order(c, p) == k and evaluate(condition(c), p.x) != 0:
                        data.division_violations.append((key, k, str(p)))
        if c.n % 2 and cls.order != 2:
            data.parity_violations.append((key, cls.label))

        # criterion 7: halving test at (0, 0) against Z4-containment
        if is_halvable(c, Point(0, 0)) != (cls.order in (4, 8, 12)):
            data.halvable_mismatches.append((key, cls.label))

        # criterion 8 and decision-tree consistency need all five witnesses
        ws = case_witnesses(c)
        has_i, has_iii = ws["I"] is not None, ws["III"] is not None
        if ws["II"] is not None and not has_i:
            data.tree_violations.append((key, "II without I"))
        if ws["V"] is not None and (has_i or has_iii):
            data.tree_violations.append((key, "V alongside I or III"))
        if (ws["IV"] is not None) != (has_i and has_iii):
            data.tree_violations.append((key, "IV does not match I-and-III"))

        data.bound_violations += _bound_violations(c, cls, ws)
        if has_i:
            w = ws["I"]
            forbidden = -(w.a**2 - w.b**2 * c.D)
            if any(p.x == forbidden for p in affine):
                data.forbidden_x_hits.append((key, forbidden))
    return data


def test_criterion_1_exhaustive_oracle_agreement(sweep):
    assert sweep.total > 0
    assert not sweep.disagreements, sweep.disagreements
    counts = " ".join(f"{k}={v}" for k, v in sorted(sweep.class_counts.items()))
    print(
        f"criterion 1 PASS: {sweep.total} curves at bounds {sweep.bounds}, "
        f"0 disagreements ({counts})"
    )


def test_sweep_record_stream(sweep):
    # `eventorsion sweep 60 60 30` prints these reports, in this order, as
    # records; its pin lives in test_cli.PINS with every other output pin.
    digest, summary = PINS["sweep " + " ".join(map(str, SWEEP_BOUNDS))]
    counts = " ".join(f"{k}={v}" for k, v in sorted(sweep.class_counts.items()))
    assert sweep.records.hexdigest() == digest
    assert f"curves={sweep.total} {counts} disagreements={len(sweep.disagreements)}\n" == summary
    print(f"record stream PASS: {sweep.total} sweep records hash to {digest[:8]}")


def test_d_minus_1_oracle_agreement():
    # sweep_curves takes 2 <= |D|, so the sweep box has no D = -1 curve,
    # the only D where a case-III witness can have a = 0 (on (-1, 2, -1)).
    curves = []
    for m in range(-60, 61):
        for n in range(1, 61):
            try:
                curves.append(CurveMND(m, n, -1))
            except InvalidCurveError:
                continue
    disagreements = []
    for c in curves:
        report = full_report(c, with_oracle=True)
        if not report.agree:
            disagreements.append(((c.m, c.n), report.cls.label, report.oracle_group.structure))
    assert len(curves) == 6707
    assert not disagreements, disagreements
    print(f"D = -1 slice PASS: {len(curves)} curves with |m|, n <= 60, 0 disagreements")


def test_criterion_2_pinned_examples():
    def check(triple, label, generator_point, extras=()):
        c = CurveMND(*triple)
        report = full_report(c, with_oracle=True)
        assert report.cls.label == label, triple
        assert report.agree is True, triple
        assert report.generator == generator_point, triple
        elements = set(report.oracle_group.elements)
        for point, point_order in extras:
            assert point in elements, (triple, point)
            assert order(c, point) == point_order, (triple, point)

    check((3, 2, 2), "Z4", Point(-1, 2))
    check((3, 2, 3), "Z6", Point(-3, 6), [(Point(1, 2), 3), (Point(-3, 6), 6)])
    check((23, 8, 7), "Z8", Point(-3, 12))
    assert add(CurveMND(23, 8, 7), Point(-3, 12), Point(-3, 12)).x == 9
    check((59, 24, 6), "Z6", Point(25, 300), [(Point(1, 12), 3), (Point(25, 300), 6)])
    check((95, 32, 10), "Z10", Point(-15, 240), [(Point(81, 1296), 5)])
    check((5, 2, 3), "Z2", Point(0, 0))
    check((1, 1, 2), "Z2", Point(0, 0))
    print("criterion 2 PASS: 7 pinned classifications, generators, and orders exact")


def _z12_box_curves():
    """Curves in the Z12 search box whose class contains Z4 and Z6.

    Uses the order-4 parametrization (m = a^2 + b^2 D, n = 2ab) as an exact
    sieve for the box, then filters by the order-6 criterion; every hit is
    confirmed against the enumeration oracle before being reported.
    """
    m_max, n_max, d_max = Z12_BOUNDS
    ds = [d for d in range(-d_max, d_max + 1) if abs(d) >= 2 and is_squarefree(d)]
    hits = []
    for a in range(1, n_max // 2 + 1):
        for b in range(1, n_max // (2 * a) + 1):
            if math.gcd(a, b) != 1:
                continue
            n = 2 * a * b
            for d in ds:
                m = a * a + b * b * d
                if abs(m) > m_max:
                    continue
                c = CurveMND(m, n, d)
                if check_case_iii(c) is None:
                    continue
                if torsion_group(c).structure == "Z12":
                    hits.append(c)
    return hits


def test_criterion_3_z12_existence_and_identities():
    hits = _z12_box_curves()
    assert hits, (
        f"no curve with torsion Z12 found in the box {Z12_BOUNDS}; "
        "widen the bounds and report absence as a finding"
    )
    for c in hits:
        w1 = check_case_i(c)
        w3 = check_case_iii(c)
        w4 = check_case_iv(c)
        assert w1 is not None and w3 is not None and w4 is not None, c
        x12 = (w4.u + w4.v) ** 2 - w4.w**2 * c.D
        y = int_sqrt(c.rhs(x12))
        assert y is not None, c
        p12 = Point(x12, y)
        assert order(c, p12) == 12, c
        assert add(c, p12, p12).x == w4.u**2, c
    keys = [(c.m, c.n, c.D) for c in hits]
    assert (-366, 30, -15) in keys  # first sweep hit, pinned after oracle check
    print(f"criterion 3 PASS: {len(keys)} Z12 curves in box {Z12_BOUNDS}: {keys}")


def test_criterion_4_doubling_identities(sweep):
    # The sweep box holds only two Z8 curves and one Z10 curve, so the
    # pinned Z10 curve and the Z8/Z10 family samples are checked as well.
    extra = [CurveMND(95, 32, 10)] + [
        s.curve for s in sample_case("II", 10) + sample_case("V", 30)
    ]
    mismatches = list(sweep.doubling_mismatches)
    extra_counts = Counter()
    for c in extra:
        report = full_report(c)
        extra_counts[report.cls.label] += 1
        mismatches += _doubling_mismatches(c, report.cls, report.generator)
    assert not mismatches, (
        "x(2P) differs from the stated per-case value on these curves "
        "(tuple: curve, class, witness, stated, group-law value): "
        f"{mismatches}"
    )
    counts = " ".join(f"{k}={v}" for k, v in sorted(extra_counts.items()))
    print(
        f"criterion 4 PASS: doubling identities exact on {sweep.total} sweep "
        f"curves and {len(extra)} pinned and family curves ({counts})"
    )


def test_z2_report_generator_matches_library(sweep):
    assert sweep.class_counts["Z2"] > 0
    assert not sweep.z2_generator_mismatches, (
        "(curve, report generator, generator(c, cls), its order): "
        f"{sweep.z2_generator_mismatches}"
    )
    print(
        f"Z2 generator PASS: on {sweep.class_counts['Z2']} of {sweep.total} sweep "
        "curves the report's (0, 0) equals generator(c, cls), of order 2"
    )


def test_criterion_5_structural_invariants(sweep):
    assert not sweep.shape_violations, sweep.shape_violations
    assert not sweep.nonintegral_points, sweep.nonintegral_points
    assert not sweep.division_violations, sweep.division_violations
    assert not sweep.parity_violations, sweep.parity_violations
    assert not sweep.duplication_mismatches, sweep.duplication_mismatches
    print(
        "criterion 5 PASS: cyclic even orders, integral coordinates, psi_3 and "
        f"psi_5 at order-3 and order-5 points, odd-n parity, duplication formula on "
        f"{sweep.total} curves"
    )


def test_criterion_6_family_round_trip():
    requirements = [("I", 10, 50), ("II", 10, 5), ("III", 10, 20), ("V", 30, 3)]
    summary = []
    for tag, bound, minimum in requirements:
        samples = sample_case(tag, bound)
        assert len(samples) >= minimum, (tag, bound, len(samples))
        for s in samples:
            report = full_report(s.curve, with_oracle=True)
            assert report.agree is True, s
            if tag in ("I", "III"):
                assert report.cls.order % s.predicted.order == 0, s
            else:
                assert report.cls.order == s.predicted.order, s
        summary.append(f"{tag}:{len(samples)}")
    print(f"criterion 6 PASS: family round trip 100% ({', '.join(summary)})")


def test_criterion_7_halving_test_matches_z4_containment(sweep):
    assert not sweep.halvable_mismatches, sweep.halvable_mismatches
    print(
        "criterion 7 PASS: (0,0) halvable over Q(sqrt(D)) exactly on classes "
        f"Z4/Z8/Z12 across {sweep.total} curves"
    )


def test_criterion_8_no_forbidden_generator_x(sweep):
    assert not sweep.forbidden_x_hits, (
        "torsion points with x = -(a^2 - b^2 D) exist; "
        f"finding: {sweep.forbidden_x_hits}"
    )
    print(
        "criterion 8 PASS: no torsion point with x = -(a^2 - b^2 D) on any "
        "order-4-containing curve"
    )


def test_decision_tree_consistency_across_sweep(sweep):
    # Cross-checks stated with the classifier: a Z8 witness needs a Z4
    # witness, a Z10 witness excludes Z4 and Z6, and the Z12 witness exists
    # exactly when Z4 and Z6 witnesses coexist.
    assert not sweep.tree_violations, sweep.tree_violations
    print(f"decision-tree consistency PASS on {sweep.total} curves")


def test_reduction_bound_filter_across_sweep(sweep):
    # classify runs cases I, III and V only when g admits order 4, 3 or 5.
    # Most sweep curves have g = 2 and skip every check, so the family
    # samples, all with g > 2, are checked as well.
    samples = [
        s.curve
        for tag, bound in (("I", 10), ("II", 10), ("III", 10), ("V", 30), ("IV", 25))
        for s in sample_case(tag, bound)
    ]
    violations, bounds = list(sweep.bound_violations), Counter()
    for c in samples:
        violations += _bound_violations(c, classify(c), case_witnesses(c))
        bounds[reduction_bound(c)] += 1
    assert not violations, violations
    print(
        f"reduction-bound filter PASS on {sweep.total} sweep curves and "
        f"{len(samples)} family samples (g: {dict(sorted(bounds.items()))}): "
        "unfiltered checks give the classifier's witness, every witness order divides g"
    )


def _witness_token(w):
    return "-" if w is None else f"{w.tag}:" + ",".join(map(str, w.params))


def test_witness_digest():
    # One line per curve: its record (class, witness, generator) and the
    # tokens of all five unfiltered case witnesses, I..V.  The curves are
    # the sweep box, the benchmark's fixed large-height pool, the family
    # samples at FAMILY_BOUNDS, and every 12th sweep curve with n negated.
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    sweep = list(sweep_curves(*SWEEP_BOUNDS))
    curves = sweep + [normalize(*workloads.large_height_input(i)) for i in range(4000)]
    for tag, bound in FAMILY_BOUNDS:
        curves += [s.curve for s in sample_case(tag, bound)]
    curves += [normalize(c.m, -c.n, c.D) for c in sweep[::12][:20000]]
    digest = hashlib.sha256()
    for c in curves:
        tokens = " ".join(map(_witness_token, case_witnesses(c).values()))
        line = f"{CorpusRecord.from_report(full_report(c)).to_line()} {tokens}\n"
        digest.update(line.encode())
    assert len(curves) == 266607
    assert digest.hexdigest() == "6fe43d152e294868902d1a2e57edc4c5bb7249b807e3b09b7d6ca40d60c4c349"
    print(f"witness digest PASS on {len(curves)} curves")


TWISTS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7)


def test_quadratic_twists():
    # The twist of (m, n, D) by a squarefree d is y^2 = x^3 + 2md*x^2 + q*d^2*x,
    # the curve normalize(m*d, n*d, D), with the same j-invariant.  For an odd
    # prime l, E(Q(sqrt(d)))[l] = E(Q)[l] + E^d(Q)[l], and the Weil pairing
    # admits Z/l in both only when Q(sqrt(d)) holds a primitive l-th root of
    # unity: 5 never divides both classify orders, and 3 only at d = -3.
    curves = list(sweep_curves(30, 30, 15))
    for tag, bound in FAMILY_BOUNDS:
        curves += [s.curve for s in sample_case(tag, bound)]
    both, j_mismatches = Counter(), []
    for c in curves:
        k, j = classify(c).order, j_invariant(2 * c.m, c.q, 0)
        for d in TWISTS:
            t = normalize(c.m * d, c.n * d, c.D)
            kt = classify(t).order
            both.update((ell, d) for ell in (3, 5) if k % ell == 0 and kt % ell == 0)
            if j_invariant(2 * t.m, t.q, 0) != j:
                j_mismatches.append(((c.m, c.n, c.D), d))
    assert len(curves) * len(TWISTS) == 386925
    assert not j_mismatches, j_mismatches
    assert both.keys() == {(3, -3)}, both
    print(
        f"twist gate PASS: {len(curves)} curves x {len(TWISTS)} twists, equal j; "
        f"3 divides both orders in {both[3, -3]} pairs, all at d = -3; 5 in none"
    )
