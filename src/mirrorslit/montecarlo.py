"""Seeded single-photon Monte Carlo of the mirror scan.

Each photon picks a slit at random, survives an acceptance test against the
fringe rate implied by the outcome hypothesis, lands uniformly on the
mirror, and is routed purely geometrically: the reflected ray either
crosses one detector aperture segment or misses both.  Mis-detection is
therefore an emergent geometric event, not a modelling input.

Routing is computed in closed form rather than ray by ray.  A flat mirror
reflects each slit as a mirror-image source, so the mirror points that send
slit s into detector d form one interval of the mirror; its length fraction
f_sd, the slit probability 1/2 and the fringe rate give the probability of
each outcome, and one multinomial draw per scan position yields all the
counts.  The cost per position does not depend on the photon count.

Every scan position owns an independent random substream keyed by
(seed, position index), so totals are reproducible regardless of the order
positions are evaluated in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import design, geometry
from .geometry import Apparatus, DetectorLayouts
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


def routing_fractions(app: Apparatus, xs, layouts: DetectorLayouts) -> np.ndarray:
    """Share of the mirror length that routes each slit into each detector.

    ``f[i, s - 1, d - 1]`` is the fraction of mirror points, uniform along
    the mirror at scan position ``xs[i]``, whose reflection of a ray from
    slit s crosses the aperture of detector d, with the detectors of
    ``layouts`` row i; a one-row layout serves every position.  A flat
    mirror reflects slit s as its mirror image s' = s - 2((s - c).n) n (the
    image-source method), so each (slit, detector) pair is hit from one
    interval of the mirror.  A reflected ray runs on the line from the
    image through the mirror point, beyond it, so it can only reach the
    part of the aperture segment on the side of the mirror line opposite
    the image; that part, projected from the image onto the mirror line
    and clipped to the mirror, is the interval.  A ray that crosses both
    apertures counts at detector 1.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    centers = np.stack([xs, np.full_like(xs, app.screen_distance)], axis=-1)[:, None, :]
    # axis 1 is the slit, axis 2 the detector
    t_s, h_s = geometry.mirror_frame(app, centers, np.array(app.slits()))
    t_img, h_img = t_s[:, :, None], -h_s[:, :, None]
    ta, ha = (c[:, None, :] for c in geometry.mirror_frame(app, centers, layouts.left))
    tb, hb = (c[:, None, :] for c in geometry.mirror_frame(app, centers, layouts.right))
    # an edge is off the reflecting side when its height has the image's
    # sign; the segment then counts only up to where it crosses the mirror
    a_off, b_off = ha * h_img >= 0.0, hb * h_img >= 0.0
    empty = a_off & b_off
    cut = a_off != b_off
    t_cross = ta + ha / np.where(cut, ha - hb, 1.0) * (tb - ta)
    ta, ha = np.where(cut & a_off, t_cross, ta), np.where(cut & a_off, 0.0, ha)
    tb, hb = np.where(cut & b_off, t_cross, tb), np.where(cut & b_off, 0.0, hb)
    # stand-in heights keep the unused projections of empty intervals finite
    h_img = np.where(empty, 1.0, h_img)
    ua = geometry.project_from_image(t_img, h_img, ta, np.where(empty, 0.0, ha))
    ub = geometry.project_from_image(t_img, h_img, tb, np.where(empty, 0.0, hb))
    half = app.mirror_width / 2
    # an empty interval starts at the mirror's upper end, so has no length
    lo = np.where(empty, half, np.maximum(np.minimum(ua, ub), -half))
    hi = np.minimum(np.maximum(ua, ub), half)
    f = np.maximum(hi - lo, 0.0)
    # rays that cross both apertures count at detector 1 only
    f[..., 1] -= np.maximum(hi.min(axis=-1) - lo.max(axis=-1), 0.0)
    return f / app.mirror_width


def simulate_scan(
    app: Apparatus, config: ScanConfig, hyp: OutcomeHypothesis
) -> ScanSummary:
    """Full photon-counting scan under an outcome hypothesis.

    Each photon takes either slit with probability 1/2 and survives the
    fringe rate with probability r, so at each position the outcome (slit
    s, detector d) has probability r/2 f_sd; one multinomial draw per
    position gives every count.
    """
    config.check_sampling(app)
    xs = config.x_positions
    x_max = float(max(abs(xs[0]), abs(xs[-1])))
    report = design.validate(app, x_max)
    if not report.feasible:
        warnings.warn("apparatus fails design validation; simulating anyway", stacklevel=2)

    v = hypothesis_visibility(hyp)
    layouts = geometry.detector_layouts(app, 0.0 if config.freeze_detectors else xs)
    p = (0.5 * _acceptance_rate(app, xs, v))[:, None] * routing_fractions(
        app, xs, layouts
    ).reshape(-1, 4)
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

    Counts are drawn with acceptance probability proportional to the plain
    two-beam screen intensity, with the same per-position substreams.
    """
    config.check_sampling(app)
    rates = screen_intensity(app, config.x_positions) / 4.0
    counts = [
        np.sum(_position_rng(config.seed, i).random(config.photons_per_position) < rate)
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
