"""The package's public surface: what `from eventorsion import *` gives."""

import eventorsion

PUBLIC = [
    "ClassificationReport",
    "CorpusRecord",
    "CurveMND",
    "FamilySample",
    "INFINITY",
    "InconsistencyError",
    "InvalidCurveError",
    "NonSquareYError",
    "Point",
    "TorsionGroup",
    "Witness",
    "WitnessI",
    "WitnessII",
    "WitnessIII",
    "WitnessIV",
    "WitnessV",
    "check_case_i",
    "check_case_ii",
    "check_case_iii",
    "check_case_iv",
    "check_case_v",
    "classify",
    "from_general",
    "full_report",
    "generator",
    "normalize",
    "order",
    "sample_case",
    "sweep_curves",
    "torsion_group",
]


def test_public_surface():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 30
    assert eventorsion.__all__ == PUBLIC
    assert all(hasattr(eventorsion, name) for name in PUBLIC)
    namespace = {}
    exec("from eventorsion import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
