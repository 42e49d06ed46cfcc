"""Mirror-modified two-slit experiment: geometry, wave model, design
validation, and single-photon Monte Carlo."""

from .geometry import Apparatus, DetectorLayouts
from .wavemodel import (
    FringePattern,
    HypothesisKind,
    OutcomeHypothesis,
    fringe_spacing,
)
from .design import DesignReport, SearchSpace
from .montecarlo import ScanConfig, ScanSummary

__all__ = [
    "Apparatus",
    "DetectorLayouts",
    "FringePattern",
    "HypothesisKind",
    "OutcomeHypothesis",
    "fringe_spacing",
    "DesignReport",
    "SearchSpace",
    "ScanConfig",
    "ScanSummary",
]
