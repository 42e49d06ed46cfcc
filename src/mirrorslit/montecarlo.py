"""Seeded single-photon Monte Carlo of the mirror scan.

Each photon picks a slit at random, survives an acceptance test against the
fringe rate implied by the outcome hypothesis, lands uniformly on the
mirror, and is routed purely geometrically: the reflected ray either
crosses one detector aperture segment or misses both.  Mis-detection is
therefore an emergent geometric event, not a modelling input.

Routing is computed in closed form rather than ray by ray.  A flat mirror
reflects each slit as a mirror-image source, so the mirror points that send
slit s into detector d form one interval of the mirror; its length fraction
f_sd (``geometry.routing_fractions``), the slit probability 1/2 and the
fringe rate give the probability of each outcome, and one multinomial draw
per scan position yields all the counts.  The cost per position does not depend on the photon count.

Every scan position owns an independent random substream keyed by
(seed, position index), so totals are reproducible regardless of the order
positions are evaluated in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import design, geometry
from .geometry import Apparatus
from .wavemodel import (
    FringePattern,
    OutcomeHypothesis,
    fringe_spacing,
    fit_visibility,
    hypothesis_visibility,
    phase,
    screen_intensity,
    detector_intensity,
)


class ScanError(ValueError):
    pass


@dataclass(frozen=True)
class ScanConfig:
    x_positions: np.ndarray
    photons_per_position: int
    seed: int
    freeze_detectors: bool = False

    def __post_init__(self):
        xs = np.asarray(self.x_positions, dtype=float)
        object.__setattr__(self, "x_positions", xs)
        if xs.ndim != 1 or xs.size < 2:
            raise ScanError("need at least two scan positions")
        if np.any(np.diff(xs) <= 0):
            raise ScanError("scan positions must be strictly increasing")
        if self.photons_per_position < 1:
            raise ScanError("photons_per_position must be >= 1")
        if self.seed < 0:
            raise ScanError(f"seed must be >= 0, got {self.seed}")

    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.x_positions)))

    def check_sampling(self, app: Apparatus) -> None:
        """Grid must resolve the fringe period (a few samples per period)."""
        f_s = fringe_spacing(app)
        if self.max_spacing() > f_s / 2.0:
            raise ScanError(
                f"grid spacing {self.max_spacing():.3g} m exceeds half the "
                f"fringe period {f_s:.3g} m"
            )


@dataclass(frozen=True)
class ScanRecord:
    x: float
    n1: int
    n2: int
    misdetected: int
    i1_theory: float
    i2_theory: float

    @property
    def n(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class ScanSummary:
    records: list[ScanRecord]
    v_total: float
    v_1: float
    v_2: float
    misdetection_rate: float
    hypothesis: OutcomeHypothesis
    seed: int = 0

    def positions(self) -> np.ndarray:
        return np.array([r.x for r in self.records])

    def counts(self) -> np.ndarray:
        return np.array([r.n for r in self.records], dtype=float)


def _position_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _acceptance_rate(app: Apparatus, x, v: float):
    """Fringe-modulated detection probability at the mirror, in [0, 1], at
    scan position(s) x."""
    return 0.5 * (1.0 + v * np.cos(phase(app, x)))


def simulate_scan(
    app: Apparatus, config: ScanConfig, hyp: OutcomeHypothesis
) -> ScanSummary:
    """Full photon-counting scan under an outcome hypothesis.

    Each photon takes either slit with probability 1/2 and survives the
    fringe rate with probability r, so at each position the outcome (slit
    s, detector d) has probability r/2 f_sd; one multinomial draw per
    position gives every count.  The design is validated with its
    mis-detection verdict taken from the routing of the layouts simulated
    (re-aimed, or frozen at x = 0), and a failure is warned about.
    """
    config.check_sampling(app)
    xs = config.x_positions
    layouts = geometry.detector_layouts(app, 0.0 if config.freeze_detectors else xs)
    fractions = geometry.routing_fractions(app, xs, layouts)
    x_max = float(max(abs(xs[0]), abs(xs[-1])))
    report = replace(
        design.validate(app, x_max), misdetection_free=design.no_cross_routing(fractions)
    )
    if not report.feasible:
        warnings.warn("apparatus fails design validation; simulating anyway", stacklevel=2)

    v = hypothesis_visibility(hyp)
    p = (0.5 * _acceptance_rate(app, xs, v))[:, None] * fractions.reshape(-1, 4)
    # rounding can carry the sum of p a hair past 1 when the routed shares
    # cover the whole mirror; numpy rejects a negative last probability
    table = np.column_stack([p, np.maximum(1.0 - p.sum(axis=1), 0.0)])
    counts = np.array(
        [
            _position_rng(config.seed, i).multinomial(config.photons_per_position, row)
            for i, row in enumerate(table)
        ]
    )
    c11, c12, c21, c22 = counts[:, :4].T
    n1, n2, mis = c11 + c21, c12 + c22, c12 + c21
    # detector 2 sees the mirror image of detector 1's phase, and cos is
    # even, so one evaluation serves both columns
    intensity = detector_intensity(app, xs, 1)
    records = [
        ScanRecord(x=x, n1=a, n2=b, misdetected=m, i1_theory=i, i2_theory=i)
        for x, a, b, m, i in zip(
            xs.tolist(), n1.tolist(), n2.tolist(), mis.tolist(), intensity.tolist()
        )
    ]
    total_n = int(n1.sum() + n2.sum())

    f_s = fringe_spacing(app)

    def fitted(values: np.ndarray) -> float:
        return fit_visibility(FringePattern(xs, values.astype(float)), f_s).visibility

    return ScanSummary(
        records=records,
        v_total=fitted(n1 + n2),
        v_1=fitted(n1),
        v_2=fitted(n2),
        misdetection_rate=(int(mis.sum()) / total_n) if total_n else 0.0,
        hypothesis=hyp,
        seed=config.seed,
    )


def conventional_scan(app: Apparatus, config: ScanConfig) -> FringePattern:
    """Reference mirror-free experiment: one detector stepped along y = L.

    Each position's count is one binomial draw, with acceptance probability
    proportional to the plain two-beam screen intensity, from the same
    per-position substreams.
    """
    config.check_sampling(app)
    rates = screen_intensity(app, config.x_positions) / 4.0
    counts = [
        _position_rng(config.seed, i).binomial(config.photons_per_position, rate)
        for i, rate in enumerate(rates)
    ]
    return FringePattern(config.x_positions, np.array(counts, dtype=float))


def compare_distributions(
    reference: FringePattern, scan: ScanSummary
) -> tuple[float, bool]:
    """Pearson chi-squared per degree of freedom of N1+N2 against the
    reference counts, after normalizing to equal totals.  Compatible when
    chi2/dof < 2."""
    xs = scan.positions()
    if len(reference) != len(xs) or not np.allclose(reference.positions, xs):
        raise ScanError("reference and scan use different position grids")
    observed = scan.counts()
    ref = reference.intensities
    total_obs = observed.sum()
    total_ref = ref.sum()
    if total_ref == 0:
        raise ScanError("reference pattern has no counts")
    expected = ref * (total_obs / total_ref)
    mask = expected > 0
    chi2 = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(np.sum(mask)) - 1
    if dof <= 0:
        raise ScanError("not enough populated bins for a comparison")
    per_dof = chi2 / dof
    return per_dof, per_dof < 2.0
