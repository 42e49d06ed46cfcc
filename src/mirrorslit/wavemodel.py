"""Scalar two-beam intensities, fringe visibility, and the duality tradeoff.

Intensities keep the unnormalized two-beam convention (amplitude 1 per
slit, range 0..4); the Monte Carlo layer rescales counts by its own rate.
The single-slit diffraction envelope is intentionally absent: slits are
treated as point sources.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Apparatus, incidence_angles, path_lengths


class FitError(ValueError):
    """Raised when a fringe fit is not meaningful on the given samples."""


def wave_number(app: Apparatus) -> float:
    """k = 2*pi / wavelength."""
    return 2.0 * math.pi / app.wavelength


@dataclass(frozen=True)
class FringePattern:
    """Ordered intensity (or count) samples along the screen line."""

    positions: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        inten = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "intensities", inten)
        if pos.ndim != 1 or pos.shape != inten.shape:
            raise ValueError("positions and intensities must be matching 1D arrays")
        if pos.size and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(inten < 0):
            raise ValueError("intensities must be non-negative")

    def __len__(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class DualityPoint:
    distinguishability: float
    visibility: float

    def __post_init__(self):
        for name in ("distinguishability", "visibility"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


class HypothesisKind(enum.Enum):
    FULL_DUALITY = "full"  # fringes and complete path knowledge together
    EXCLUSIVE = "exclusive"  # path knowledge destroys the fringes
    PARTIAL = "partial"  # tradeoff on the duality boundary


@dataclass(frozen=True)
class OutcomeHypothesis:
    """One of the three anticipated experimental outcomes.

    ``distinguishability`` is free for PARTIAL and pinned by convention to
    0 for FULL_DUALITY and 1 for EXCLUSIVE.
    """

    kind: HypothesisKind
    distinguishability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.distinguishability <= 1.0:
            raise ValueError("distinguishability must lie in [0, 1]")
        pinned = {HypothesisKind.FULL_DUALITY: 0.0, HypothesisKind.EXCLUSIVE: 1.0}
        if self.kind in pinned:
            object.__setattr__(self, "distinguishability", pinned[self.kind])


def fringe_spacing(app: Apparatus) -> float:
    """Far-field fringe period wavelength * L / d."""
    return app.wavelength * app.screen_distance / app.slit_separation


def phase(app: Apparatus, x) -> np.ndarray | float:
    """Detector-1 fringe phase k (d1 - d2) + 2 (gamma1 - gamma2) at scan
    position(s) x: the screen phase plus twice the incidence-angle
    difference the mirror adds."""
    d1, d2 = path_lengths(app, x)
    g1, g2 = incidence_angles(app, x)
    return wave_number(app) * (d1 - d2) + 2.0 * (g1 - g2)


def screen_intensity(app: Apparatus, x) -> np.ndarray | float:
    """Two-beam intensity 2(1 + cos(k (d1 - d2))) at screen position(s) x."""
    d1, d2 = path_lengths(app, np.atleast_1d(np.asarray(x, dtype=float)))
    out = 2.0 * (1.0 + np.cos(wave_number(app) * (d1 - d2)))
    return out if np.ndim(x) else float(out[0])


def detector_intensity(app: Apparatus, x, which: int) -> np.ndarray | float:
    """Intensity at detector 1 or 2 at scan position(s) x: the screen
    pattern shifted by twice the incidence-angle difference (the two
    formulas are mirror images and thus numerically identical)."""
    if which not in (1, 2):
        raise ValueError("detector index must be 1 or 2")
    p = phase(app, x)
    out = 2.0 * (1.0 + np.cos(p if which == 1 else -p))
    return out if np.ndim(x) else float(out)


def visibility(pattern: FringePattern) -> float:
    """Raw (I_max - I_min) / (I_max + I_min) from the sample extrema."""
    if len(pattern) == 0:
        raise FitError("cannot compute visibility of an empty pattern")
    hi = float(np.max(pattern.intensities))
    lo = float(np.min(pattern.intensities))
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class FringeFit:
    visibility: float
    phase: float
    baseline: float
    rms_residual: float


def fit_visibility(pattern: FringePattern, period: float) -> FringeFit:
    """Least-squares fit of A (1 + V cos(2 pi x / period + phi)).

    The period is fixed to the theoretical fringe spacing; fitting it would
    make V degenerate on noisy counts.  Raw extrema are biased upward by
    shot noise, hence the fit.  Requires a span of at least two periods
    sampled at four or more points per period on average.
    """
    if period <= 0:
        raise FitError("period must be positive")
    n = len(pattern)
    if n < 8:
        raise FitError(f"need at least 8 samples, got {n}")
    span = float(pattern.positions[-1] - pattern.positions[0])
    if span < 2.0 * period:
        raise FitError("pattern must span at least two fringe periods")
    if span / (n - 1) > period / 4.0:
        raise FitError("mean sample spacing exceeds a quarter period")
    u = 2.0 * math.pi * pattern.positions / period
    design = np.column_stack([np.ones(n), np.cos(u), np.sin(u)])
    coef, *_ = np.linalg.lstsq(design, pattern.intensities, rcond=None)
    a, b, c = (float(v) for v in coef)
    if a <= 0:
        raise FitError("degenerate fit: non-positive baseline")
    v = min(math.hypot(b, c) / a, 1.0)
    phase = math.atan2(-c, b)
    residual = pattern.intensities - design @ coef
    rms = float(np.sqrt(np.mean(residual**2)))
    return FringeFit(visibility=v, phase=phase, baseline=a, rms_residual=rms)


def duality_check(p: DualityPoint, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether D^2 + V^2 <= 1 holds, and the remaining slack 1 - D^2 - V^2."""
    slack = 1.0 - p.distinguishability**2 - p.visibility**2
    return slack >= -tol, slack


def hypothesis_visibility(hyp: OutcomeHypothesis) -> float:
    """Fringe visibility implied by an outcome hypothesis.

    The partial case sits on the saturated duality boundary V = sqrt(1 - D^2);
    the interior of the inequality has no single-parameter model.
    """
    if hyp.kind is HypothesisKind.FULL_DUALITY:
        return 1.0
    if hyp.kind is HypothesisKind.EXCLUSIVE:
        return 0.0
    return math.sqrt(1.0 - hyp.distinguishability**2)
