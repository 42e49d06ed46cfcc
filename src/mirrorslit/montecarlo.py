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
from dataclasses import dataclass, field

import numpy as np

from . import design, geometry
from .geometry import Apparatus, DetectorLayout
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
        if self.max_spacing() > f_s / 8.0:
            warnings.warn(
                "grid spacing is coarser than an eighth of the fringe period; "
                "visibility estimates may degrade",
                stacklevel=2,
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


def _acceptance_rate(app: Apparatus, x: float, v: float) -> float:
    """Fringe-modulated detection probability at the mirror, in [0, 1]."""
    return 0.5 * (1.0 + v * np.cos(phase(app, x)))


def _mirror_interval(
    half: float, image: tuple[float, float], a: tuple[float, float], b: tuple[float, float]
) -> tuple[float, float]:
    """Mirror coordinates, clipped to [-half, half], of the points whose
    reflected rays cross the aperture segment a-b.

    Points are (along, height) coordinates in ``geometry.mirror_frame``.
    A reflected ray runs on the line from the source's image through the
    mirror point, beyond it, so it can only reach the part of the segment
    on the side of the mirror line opposite the image.  That part,
    projected from the image onto the mirror line, is the interval.  It is
    empty when the returned lower end is not below the upper one.
    """
    h_img = image[1]
    (ta, ha), (tb, hb) = a, b
    # negative on the reflecting side; the projection below divides by
    # h_img - h, which is then never zero
    ga, gb = ha * h_img, hb * h_img
    if ga >= 0.0 and gb >= 0.0:
        return half, -half
    if ga >= 0.0 or gb >= 0.0:
        k = ha / (ha - hb)
        crossing = (ta + k * (tb - ta), 0.0)
        if ga >= 0.0:
            ta, ha = crossing
        else:
            tb, hb = crossing
    ua = geometry.project_from_image(image, (ta, ha))
    ub = geometry.project_from_image(image, (tb, hb))
    return max(min(ua, ub), -half), min(max(ua, ub), half)


def routing_fractions(app: Apparatus, x: float, layout: DetectorLayout) -> np.ndarray:
    """Share of the mirror length that routes each slit into each detector.

    ``f[s - 1, d - 1]`` is the fraction of mirror points, uniform along the
    mirror at scan position x, whose reflection of a ray from slit s
    crosses the aperture of detector d.  A flat mirror reflects slit s as
    its mirror image s' = s - 2((s - c).n) n (the image-source method), so
    each (slit, detector) pair is hit from one interval of the mirror.  A
    ray that crosses both apertures counts at detector 1.
    """
    frame = geometry.mirror_frame(
        geometry.mirror_placement(app, x),
        [*app.slits(), layout.d1_left, layout.d1_right, layout.d2_left, layout.d2_right],
    )
    half = app.mirror_width / 2
    f = np.zeros((2, 2))
    for i, (t_s, h_s) in enumerate(frame[:2]):
        image = (t_s, -h_s)
        lo1, hi1 = _mirror_interval(half, image, frame[2], frame[3])
        lo2, hi2 = _mirror_interval(half, image, frame[4], frame[5])
        both = max(min(hi1, hi2) - max(lo1, lo2), 0.0)
        f[i] = max(hi1 - lo1, 0.0), max(hi2 - lo2, 0.0) - both
    return f / app.mirror_width


def _simulate_position(
    app: Apparatus,
    x: float,
    n_photons: int,
    v: float,
    rng: np.random.Generator,
    layout: DetectorLayout,
) -> tuple[int, int, int]:
    """Photon counts at one position: (n1, n2, misdetected).

    Each photon takes either slit with probability 1/2 and survives the
    fringe rate with probability r, so the outcome (slit s, detector d)
    has probability r/2 f_sd; one multinomial draw gives every count.
    """
    p = 0.5 * _acceptance_rate(app, x, v) * routing_fractions(app, x, layout).ravel()
    # rounding can carry the sum of p a hair past 1 when the routed shares
    # cover the whole mirror; numpy rejects a negative last probability
    c11, c12, c21, c22, _ = rng.multinomial(
        n_photons, [*p.tolist(), max(1.0 - float(p.sum()), 0.0)]
    ).tolist()
    return c11 + c21, c12 + c22, c12 + c21


def simulate_scan(
    app: Apparatus, config: ScanConfig, hyp: OutcomeHypothesis
) -> ScanSummary:
    """Full photon-counting scan under an outcome hypothesis."""
    config.check_sampling(app)
    x_max = float(max(abs(config.x_positions[0]), abs(config.x_positions[-1])))
    report = design.validate(app, x_max)
    if not report.feasible:
        warnings.warn("apparatus fails design validation; simulating anyway", stacklevel=2)

    v = hypothesis_visibility(hyp)
    n_positions = len(config.x_positions)
    if config.freeze_detectors:
        layouts = [geometry.detector_layout(app, 0.0)] * n_positions
    else:
        aimed = geometry.detector_layouts(app, config.x_positions)
        layouts = [aimed.row(i) for i in range(n_positions)]
    records = []
    total_mis = 0
    total_n = 0
    for i, (x, layout) in enumerate(zip(config.x_positions, layouts)):
        rng = _position_rng(config.seed, i)
        n1, n2, mis = _simulate_position(
            app, float(x), config.photons_per_position, v, rng, layout
        )
        # detector 2 sees the mirror image of detector 1's phase, and cos is
        # even, so one evaluation serves both columns
        intensity = detector_intensity(app, float(x), 1)
        records.append(
            ScanRecord(
                x=float(x),
                n1=n1,
                n2=n2,
                misdetected=mis,
                i1_theory=intensity,
                i2_theory=intensity,
            )
        )
        total_mis += mis
        total_n += n1 + n2

    f_s = fringe_spacing(app)
    xs = config.x_positions

    def fitted(values: np.ndarray) -> float:
        return fit_visibility(FringePattern(xs, values), f_s).visibility

    return ScanSummary(
        records=records,
        v_total=fitted(np.array([r.n for r in records], dtype=float)),
        v_1=fitted(np.array([r.n1 for r in records], dtype=float)),
        v_2=fitted(np.array([r.n2 for r in records], dtype=float)),
        misdetection_rate=(total_mis / total_n) if total_n else 0.0,
        hypothesis=hyp,
        seed=config.seed,
    )


def conventional_scan(app: Apparatus, config: ScanConfig) -> FringePattern:
    """Reference mirror-free experiment: one detector stepped along y = L.

    Counts are drawn with acceptance probability proportional to the plain
    two-beam screen intensity, with the same per-position substreams.
    """
    config.check_sampling(app)
    counts = np.empty(len(config.x_positions))
    for i, x in enumerate(config.x_positions):
        rng = _position_rng(config.seed, i)
        rate = screen_intensity(app, float(x)) / 4.0
        counts[i] = np.sum(rng.random(config.photons_per_position) < rate)
    return FringePattern(config.x_positions, counts)


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
