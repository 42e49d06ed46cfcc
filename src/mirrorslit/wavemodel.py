"""Two-beam intensities over arrays of positions, fringe visibility, and the duality tradeoff.

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


class HypothesisKind(enum.Enum):
    FULL_DUALITY = "full"  # fringes and complete path knowledge together
    EXCLUSIVE = "exclusive"  # path knowledge destroys the fringes
    PARTIAL = "partial"  # tradeoff on the duality boundary

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"hypothesis kind must be full, exclusive or partial, got {value!r}")


@dataclass(frozen=True)
class OutcomeHypothesis:
    """One of the three anticipated experimental outcomes: a point (D, V) of
    the duality relation D^2 + V^2 <= 1, on its saturated boundary.

    ``distinguishability`` D is free for PARTIAL and pinned by convention to
    0 for FULL_DUALITY and 1 for EXCLUSIVE; ``visibility`` is V = sqrt(1 - D^2),
    since the interior of the inequality has no single-parameter model.
    """

    kind: HypothesisKind
    distinguishability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.distinguishability <= 1.0:
            raise ValueError("distinguishability must lie in [0, 1]")
        pinned = {HypothesisKind.FULL_DUALITY: 0.0, HypothesisKind.EXCLUSIVE: 1.0}
        if self.kind in pinned:
            object.__setattr__(self, "distinguishability", pinned[self.kind])

    @property
    def visibility(self) -> float:
        return math.sqrt(1.0 - self.distinguishability**2)


def fringe_spacing(app: Apparatus) -> float:
    """Far-field fringe period wavelength * L / d."""
    return app.wavelength * app.screen_distance / app.slit_separation


def _screen_phase(app: Apparatus, x):
    """The screen phase k (d1 - d2) at screen position(s) x."""
    d1, d2 = path_lengths(app, x)
    return wave_number(app) * (d1 - d2)


def phases(app: Apparatus, x) -> tuple:
    """The screen phase and the detector-1 fringe phase at scan position(s)
    x, from one evaluation of the path lengths: the detector-1 phase is the
    screen phase k (d1 - d2) plus twice the incidence-angle difference
    2 (gamma1 - gamma2) the mirror adds."""
    screen = _screen_phase(app, x)
    g1, g2 = incidence_angles(app, x)
    return screen, screen + 2.0 * (g1 - g2)


def two_beam_intensity(phi) -> np.ndarray | float:
    """Two-beam intensity 2 (1 + cos(phi)) at a phase difference phi of the
    two beams."""
    return 2.0 * (1.0 + np.cos(phi))


def screen_intensity(app: Apparatus, x) -> np.ndarray | float:
    """Two-beam intensity at screen position(s) x, at the screen phase."""
    return two_beam_intensity(_screen_phase(app, x))


def detector_intensity(app: Apparatus, x, which: int) -> np.ndarray | float:
    """Intensity at detector 1 or 2 at scan position(s) x: the screen
    pattern shifted by twice the incidence-angle difference (the two
    formulas are mirror images and thus numerically identical)."""
    if which not in (1, 2):
        raise ValueError("detector index must be 1 or 2")
    p = phases(app, x)[1]
    return two_beam_intensity(p if which == 1 else -p)


@dataclass(frozen=True)
class FringeFit:
    visibility: float
    phase: float
    baseline: float
    rms_residual: float


def fit_visibilities(positions: np.ndarray, columns, period: float) -> list[FringeFit]:
    """Least-squares fits of A (1 + V cos(2 pi x / period + phi)), one per
    column of samples taken at the same increasing positions.

    The period is fixed to the theoretical fringe spacing; fitting it would
    make V degenerate on noisy counts, and raw extrema are biased upward by
    shot noise.  Requires a span of at least two periods sampled at four or
    more points per period on average.  The sampling is checked and the
    design matrix built once; each column gets its own lstsq, since one
    lstsq with a 2-D right-hand side changes the last bits of V.
    """
    if period <= 0:
        raise FitError("period must be positive")
    n = len(positions)
    if n < 8:
        raise FitError(f"need at least 8 samples, got {n}")
    span = float(positions[-1] - positions[0])
    if span < 2.0 * period:
        raise FitError("pattern must span at least two fringe periods")
    if span / (n - 1) > period / 4.0:
        raise FitError("mean sample spacing exceeds a quarter period")
    u = 2.0 * math.pi * positions / period
    design = np.column_stack([np.ones(n), np.cos(u), np.sin(u)])
    fits = []
    for values in columns:
        values = np.asarray(values, dtype=float)
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        a, b, c = (float(v) for v in coef)
        if a <= 0:
            raise FitError("degenerate fit: non-positive baseline")
        v = min(math.hypot(b, c) / a, 1.0)
        phase = math.atan2(-c, b)
        residual = values - design @ coef
        rms = float(np.sqrt(np.mean(residual**2)))
        fits.append(FringeFit(visibility=v, phase=phase, baseline=a, rms_residual=rms))
    return fits


def duality_check(d: float, v: float, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether d^2 + v^2 <= 1 holds within tol, and the slack 1 - d^2 - v^2."""
    slack = 1.0 - d**2 - v**2
    return slack >= -tol, slack
