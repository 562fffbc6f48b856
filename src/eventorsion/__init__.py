"""Exact classification of even cyclic rational torsion subgroups for the
curve family y^2 = x(x+M)(x+N), M = m + n*sqrt(D), N = m - n*sqrt(D)."""

from .classifier import (
    ClassificationReport,
    InconsistencyError,
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
from .corpus import CorpusRecord
from .curve import (
    INFINITY,
    CurveMND,
    InvalidCurveError,
    Point,
    from_general,
    normalize,
    order,
)
from .family import FamilySample, sample_case, sweep_curves
from .oracle import TorsionGroup, torsion_group

__version__ = "0.1.0"

__all__ = [
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
