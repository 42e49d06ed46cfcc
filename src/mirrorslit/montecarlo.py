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
fringe rate give the probability of each outcome.  ``outcomes`` tabulates
them, a row per scan position, and one multinomial draw per row yields all
the counts.  The cost per position does not depend on the photon count.

A scan draws from one generator, ``np.random.default_rng(seed)``: all
positions' counts come from one call on it, rows in grid order, so the same
seed gives the same counts (NumPy fixes a seeded generator's stream).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import design, geometry
from .geometry import Apparatus
from .wavemodel import (
    FringePattern,
    OutcomeHypothesis,
    fringe_spacing,
    fit_visibilities,
    phases,
    screen_intensity,
    two_beam_intensity,
)


class ScanError(ValueError):
    pass


_MAX_PHOTONS = int(np.iinfo(np.int64).max)
_RECORD = np.dtype([("x", float), ("n", np.int64), ("n1", np.int64), ("n2", np.int64),
                    ("misdetected", np.int64), ("i1_theory", float), ("i2_theory", float)])


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
        if self.photons_per_position > _MAX_PHOTONS:
            raise ScanError(
                f"photons_per_position must be <= {_MAX_PHOTONS}, the largest "
                f"count numpy can draw, got {self.photons_per_position}"
            )
        if self.seed < 0:
            raise ScanError(f"seed must be >= 0, got {self.seed}")

    def check_sampling(self, app: Apparatus) -> None:
        """Grid must resolve the fringe period (a few samples per period)."""
        spacing = float(np.max(np.diff(self.x_positions)))
        half_period = fringe_spacing(app) / 2.0
        if spacing > half_period:
            raise ScanError(
                f"grid spacing {spacing:.3g} m exceeds half the "
                f"fringe period, {half_period:.3g} m"
            )


@dataclass(frozen=True)
class Outcomes:
    """What a scan can show before a photon is drawn.

    At each scan position ``x``: the detector-1 fringe ``phase``, the fringe
    ``rate`` r = (1 + V cos phase) / 2 at which a photon survives, and the
    ``fractions`` f_sd (slit, detector, position) of the mirror that route
    slit s into detector d with the detectors simulated, re-aimed at every
    position or frozen at x = 0 (one position).  ``table`` is (n, 5): the
    probabilities of (slit 1, D1), (1, D2), (2, D1), (2, D2), each r/2 f_sd,
    then of no detection, so each row sums to 1 within rounding.
    ``verdicts`` is what ``design.judge`` found on those detectors."""

    x: np.ndarray
    fractions: np.ndarray
    phase: np.ndarray
    rate: np.ndarray
    table: np.ndarray
    verdicts: design.Verdicts
    separation: float  # L12 = |D1 - D2| at x = 0; NaN where that layout fails


@dataclass(frozen=True)
class ScanSummary:
    """A simulated scan.  ``records`` holds one row per position, with the
    fields x, n (= n1 + n2), n1, n2, misdetected, i1_theory and i2_theory;
    ``outcomes`` is the table its counts were drawn from."""

    records: np.recarray
    v_total: float
    v_1: float
    v_2: float
    misdetection_rate: float
    outcomes: Outcomes

    def positions(self) -> np.ndarray:
        return self.records.x

    def counts(self) -> np.ndarray:
        return self.records.n.astype(float)


def outcomes(app: Apparatus, config: ScanConfig, hyp: OutcomeHypothesis) -> Outcomes:
    """The outcome table of a scan under an outcome hypothesis.

    The detectors are aimed in one call: at every scanned position, or at
    x = 0 when frozen, plus x = 0 for L12 when a re-aimed grid lacks it.  A
    simulated layout that fails raises its error, as
    ``geometry.detector_layouts`` does, so the verdicts judge mis-detection
    on the layouts simulated (every scanned position when re-aimed, x = 0
    when frozen) and sampling over the scan's largest |x|.  L12 is read at
    the layout aimed at x = 0, NaN where that layout fails off the grid.
    """
    config.check_sampling(app)
    xs = config.x_positions
    simulated = np.zeros(1) if config.freeze_detectors else xs
    aim = simulated if 0.0 in simulated else np.append(simulated, 0.0)
    aimed = geometry.aim_detectors(app, aim)
    layouts = aimed.at(slice(len(simulated)))
    layouts.raise_first_failure()
    fractions = geometry.routing_fractions(app, xs, layouts)
    x_max = float(max(abs(xs[0]), abs(xs[-1])))
    verdicts = design.judge(app, x_max, layouts, fractions)
    zero = int(np.argmax(aim == 0.0))
    separation = np.nan if aimed.failed()[zero] else float(geometry.separations(aimed, zero))
    phi = phases(app, xs)[1]
    rate = 0.5 * (1.0 + hyp.visibility * np.cos(phi))
    p = 0.5 * rate * fractions.reshape(4, -1)
    # rounding can carry the sum of p a hair past 1 when the routed shares
    # cover the whole mirror; numpy rejects a negative last probability
    table = np.column_stack([*p, np.maximum(1.0 - p.sum(axis=0), 0.0)])
    return Outcomes(xs, fractions, phi, rate, table, verdicts, separation)


def simulate_scan(
    app: Apparatus, config: ScanConfig, hyp: OutcomeHypothesis
) -> ScanSummary:
    """Full photon-counting scan under an outcome hypothesis.

    Each photon takes either slit with probability 1/2 and survives the
    fringe rate, so the counts are one multinomial draw per row of the
    ``outcomes`` table, every row in one call on
    ``default_rng(config.seed)``.  A design that fails its verdicts is
    warned about and simulated anyway.
    """
    scan = outcomes(app, config, hyp)
    if not scan.verdicts.feasible:
        warnings.warn("apparatus fails design validation; simulating anyway", stacklevel=2)
    counts = np.random.default_rng(config.seed).multinomial(config.photons_per_position, scan.table)
    c11, c12, c21, c22 = counts[:, :4].T
    n1, n2, mis = c11 + c21, c12 + c22, c12 + c21
    n = n1 + n2
    # detector 2's phase is the mirror image of detector 1's, and cos is even
    intensity = two_beam_intensity(scan.phase)
    records = np.recarray(len(scan.x), _RECORD)
    for name, column in zip(_RECORD.names, (scan.x, n, n1, n2, mis, intensity, intensity)):
        records[name] = column
    total_n = int(n.sum())
    fits = fit_visibilities(scan.x, [n, n1, n2], fringe_spacing(app))
    return ScanSummary(
        records=records,
        v_total=fits[0].visibility,
        v_1=fits[1].visibility,
        v_2=fits[2].visibility,
        misdetection_rate=(int(mis.sum()) / total_n) if total_n else 0.0,
        outcomes=scan,
    )


def conventional_scan(app: Apparatus, config: ScanConfig) -> FringePattern:
    """Reference mirror-free experiment: one detector stepped along y = L.

    Each position's count is one binomial draw, with acceptance probability
    proportional to the plain two-beam screen intensity, drawn in grid
    order from the scan's one generator, as in ``simulate_scan``.
    """
    config.check_sampling(app)
    rates = screen_intensity(app, config.x_positions) / 4.0
    counts = np.random.default_rng(config.seed).binomial(config.photons_per_position, rates)
    return FringePattern(config.x_positions, counts.astype(float))


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
