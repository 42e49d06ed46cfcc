"""Feasibility checks and parameter search for the mirror-scan design.

A candidate apparatus is acceptable when the scanning mirror is small
enough to resolve fringes (sampling footprint under half a period), both
reflected beams clear the diaphragm, and no mirror point can bounce a
photon from one slit into the other slit's detector over the scan range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import Apparatus, DetectorLayouts, DiaphragmClearanceError
from .wavemodel import fringe_spacing

_HALF_WIDTH_LO = 1e-6
_HALF_WIDTH_HI = 2e-3
# the searched parameters, in the column order of design_search's draws
_SEARCHED = ("wavelength", "slit_separation", "screen_distance", "mirror_angle", "arm", "aperture")
# candidates design_search draws and solves per array pass, and the most
# it judges in one; together they bound its peak memory
_BLOCK = 1024
_CHUNK = 16


class DesignError(ValueError):
    pass


class BracketError(DesignError):
    """The grazing limit does not lie in the half-width search range."""


@dataclass(frozen=True)
class DesignReport:
    fringe_spacing: float
    default_width: float  # sampling-driven mirror width F_s / 7
    w1_limit: float  # half-width at which the slit-1 ray grazes detector 2
    w2_limit: float
    required_width: float
    detector_separation: float
    sampling_ok: bool
    misdetection_free: bool
    diaphragm_clear: bool
    warnings: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.sampling_ok and self.misdetection_free and self.diaphragm_clear

    def to_dict(self) -> dict:
        return {
            "F_s_m": self.fringe_spacing,
            "w_prime_m": self.default_width,
            "w1_limit_m": self.w1_limit,
            "w2_limit_m": self.w2_limit,
            "required_w_m": self.required_width,
            "L12_m": self.detector_separation,
            "sampling_ok": self.sampling_ok,
            "misdetection_free": self.misdetection_free,
            "diaphragm_clear": self.diaphragm_clear,
            "feasible": self.feasible,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class Verdicts:
    """What ``judge`` found for a scan over [0, x_max]: numpy bools and
    floats for one apparatus, arrays over the candidates of a batch."""

    long_scan: np.ndarray  # x_max exceeds two fringe periods
    sampling_ok: np.ndarray
    diaphragm_clear: np.ndarray
    misdetection_free: np.ndarray
    separation: np.ndarray  # |D1 - D2| at x = 0; NaN where that layout fails

    @property
    def feasible(self) -> np.ndarray:
        return self.sampling_ok & self.diaphragm_clear & self.misdetection_free


@dataclass(frozen=True)
class SearchSpace:
    """Closed intervals for the searchable parameters; scan extent is fixed."""

    wavelength: tuple[float, float]
    slit_separation: tuple[float, float]
    screen_distance: tuple[float, float]
    mirror_angle: tuple[float, float]
    arm: tuple[float, float]
    aperture: tuple[float, float]
    x_max: float

    def __post_init__(self):
        for name in _SEARCHED:
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise DesignError(f"invalid interval for {name}: [{lo}, {hi}]")
        lo, hi = self.mirror_angle
        if not hi < math.pi / 2:
            raise DesignError(f"mirror_angle interval [{lo}, {hi}] must lie inside (0, pi/2)")
        if self.x_max <= 0:
            raise DesignError("x_max must be positive")


def default_mirror_params(app: Apparatus) -> tuple[float, float]:
    """Sampling-driven mirror width F_s / 7 and the standard 45-degree tilt."""
    return fringe_spacing(app) / 7.0, math.pi / 4


def _short_scan(x0: float, app: Apparatus) -> str:
    """Why a scan over [0, x0] that fails ``_sampling``'s length rule is
    too short to sample the fringes."""
    return f"scan extent {x0} must exceed two fringe periods {2 * fringe_spacing(app)}"


def _sampling(app: Apparatus, x0: float):
    """The sampling rule for a scan over [0, x0], per candidate of a batch:
    whether the scan exceeds two fringe periods, whether it also keeps the
    mirror footprint on the screen line (``geometry.mirror_footprint`` on
    a grid 0 <= x <= x0) under F_s / 2, and the worst footprint."""
    f_s = fringe_spacing(app)
    worst = np.max(geometry.mirror_footprint(app, np.linspace(0.0, x0, 101)), axis=-1)
    long_scan = x0 > 2.0 * f_s
    return long_scan, long_scan & (worst < f_s / 2.0), worst


def sampling_constraint(app: Apparatus, x0: float) -> tuple[bool, float]:
    """Check that the mirror footprint on the screen line stays under F_s / 2.

    The footprint is evaluated on a grid 0 <= x <= x0; x0 must exceed two
    fringe periods for the scan to be meaningful at all.
    """
    long_scan, ok, worst = _sampling(app, x0)
    if not long_scan:
        raise DesignError(_short_scan(x0, app))
    return bool(ok), float(worst)


def _grazing_half_width(app: Apparatus, x, slit: int) -> tuple[np.ndarray, DetectorLayouts]:
    """``limiting_half_width`` without its checks: the half-width per
    candidate of a batch (x then of shape (c, 1), one position each), and
    the unchecked layouts it was solved on."""
    layouts = geometry.aim_detectors(app, x)
    edge = layouts.right[..., 0, 1, :] if slit == 1 else layouts.left[..., 0, 0, :]
    points = np.stack([app.slits()[slit - 1], edge], axis=-2)
    t, h = geometry.mirror_frame(app, layouts.centers[..., 0, None, :], points)
    along = geometry.project_from_image(t[..., 0], -h[..., 0], t[..., 1], h[..., 1])
    return (along if slit == 1 else -along), layouts


def _bracketed(half_width) -> np.ndarray:
    return (_HALF_WIDTH_LO <= half_width) & (half_width <= _HALF_WIDTH_HI)


def limiting_half_width(app: Apparatus, x: float, slit: int) -> float:
    """Mirror half-width at which the wrong-slit ray starts grazing the other
    detector's aperture edge, detectors fixed at the same x.

    Probe points follow the worst cases: the high end of the mirror for
    slit 1, the low end for slit 2.  The mirror reflects the slit as its
    image source, so the ray from the probe point that grazes the near
    aperture edge of the other detector (d2_right for slit 1, d1_left for
    slit 2) lies on the line from the image through that edge; the probe
    point is where that line crosses the mirror line.  Raises BracketError
    when that point is not between 1 um and 2 mm from the centre on the
    probe side (then the sampling width governs).
    """
    if slit not in (1, 2):
        raise DesignError("slit must be 1 or 2")
    half_width, layouts = _grazing_half_width(app, x, slit)
    layouts.raise_first_failure()
    half_width = float(half_width)
    if not _bracketed(half_width):
        raise BracketError(
            f"grazing limit {half_width:.3g} m not within [{_HALF_WIDTH_LO}, {_HALF_WIDTH_HI}] m; "
            "width is limited by the sampling constraint instead"
        )
    return half_width


def _required_width(app: Apparatus, w1, w2):
    w_prime, _ = default_mirror_params(app)
    return 2.0 * np.minimum(np.minimum(w_prime / 2.0, w1), w2)


def _grazing_limits(app: Apparatus) -> tuple[float, float]:
    """Slit-1 limit at x = 3 F_s and slit-2 limit at x = 0."""
    w1 = limiting_half_width(app, 3.0 * fringe_spacing(app), 1)
    return w1, limiting_half_width(app, 0.0, 2)


def required_mirror_width(app: Apparatus) -> float:
    """Full mirror width 2 min(w'/2, w1, w2) combining the sampling width with
    both grazing limits (evaluated at x = 0 and x = 3 F_s)."""
    return float(_required_width(app, *_grazing_limits(app)))


def judge(
    app: Apparatus, x_max: float, fractions: np.ndarray | None = None
) -> tuple[Verdicts, DetectorLayouts]:
    """Sampling, clearance, mis-detection and separation verdicts for a
    scan over [0, x_max], of one apparatus or of every candidate of a
    batch, and the layouts judged.

    Sampling follows ``sampling_constraint``'s rule.  The detectors are
    re-aimed at 61 positions; the beams clear the diaphragm when no layout
    fails.  Mis-detection is judged from exact routing fractions: no
    position may send either slit into the other slit's detector,
    f12 = f21 = 0.  The fractions are ``fractions`` when given (the
    ``geometry.routing_fractions`` of the layouts a scan simulates), else
    those of the 61 re-aimed layouts.
    """
    long_scan, sampling_ok, _ = _sampling(app, x_max)
    xs = np.linspace(0.0, x_max, 61)
    layouts = geometry.aim_detectors(app, xs)
    failed = layouts.failed()
    clear = ~failed.any(axis=-1)
    if fractions is None:
        fractions = geometry.routing_fractions(app, xs, layouts)
    verdicts = Verdicts(
        long_scan=long_scan,
        sampling_ok=sampling_ok,
        diaphragm_clear=clear,
        misdetection_free=clear & ~fractions[..., [0, 1], [1, 0]].any(axis=(-2, -1)),
        separation=np.where(failed[..., 0], np.nan, geometry.separations(layouts)),
    )
    return verdicts, layouts


def validate(
    app: Apparatus, x_max: float, limits: tuple[float, float] | None = None
) -> DesignReport:
    """Assemble the full feasibility report for a scan over [0, x_max].

    The verdicts are ``judge``'s; this adds the grazing limits and the
    warnings.  Failures are recorded in the report rather than raised; only
    malformed inputs, and a slit on the mirror line, raise.  ``limits``
    passes grazing limits (w1, w2) already solved for this apparatus; they
    do not depend on the mirror width.
    """
    f_s = fringe_spacing(app)
    w_prime, _ = default_mirror_params(app)
    warnings_list = app.regime_warnings()

    def grazing_limit(x: float, slit: int) -> float:
        try:
            return limiting_half_width(app, x, slit)
        except BracketError:
            warnings_list.append(f"slit-{slit} grazing limit unbounded below 2 mm")
        except DiaphragmClearanceError:
            warnings_list.append(
                f"slit-{slit} grazing limit undefined: reflected beam hits the diaphragm"
            )
        return math.inf

    if limits is None:
        limits = grazing_limit(3.0 * f_s, 1), grazing_limit(0.0, 2)
    w1, w2 = limits
    verdicts, layouts = judge(app, x_max)
    if not verdicts.long_scan:
        warnings_list.append(_short_scan(x_max, app))
    try:
        layouts.raise_first_failure()
    except DiaphragmClearanceError as exc:
        warnings_list.append(str(exc))

    return DesignReport(
        fringe_spacing=f_s,
        default_width=w_prime,
        w1_limit=w1,
        w2_limit=w2,
        required_width=float(_required_width(app, w1, w2)),
        detector_separation=float(verdicts.separation),
        sampling_ok=bool(verdicts.sampling_ok),
        misdetection_free=bool(verdicts.misdetection_free),
        diaphragm_clear=bool(verdicts.diaphragm_clear),
        warnings=warnings_list,
    )


def _candidates(draws, **fields) -> Apparatus:
    """The apparatus of one row of ``design_search``'s draws, or the batch
    of a block of rows given column by column, with any further fields."""
    fields.update(zip(_SEARCHED, draws))
    arm = fields.pop("arm")
    return Apparatus(**fields, arm1=arm, arm2=arm)


def solve_block(draws: np.ndarray):
    """The cheap pass of ``design_search`` over a block of its draws (one
    row per candidate): both grazing solves, and no routing table.

    Returns, per row, whether both grazing limits solve (the other rows are
    skipped), the limits (w1, w2), the mirror width they require, and the
    detector separation L12 of the x = 0 layouts the slit-2 solve aims.
    L12 does not depend on the mirror width and equals ``judge``'s
    ``separation`` of the solved rows bit for bit.
    """
    batch = _candidates(draws.T)
    w1, layouts1 = _grazing_half_width(batch, 3.0 * fringe_spacing(batch)[:, None], 1)
    w2, layouts2 = _grazing_half_width(batch, 0.0, 2)
    solved = (
        ~layouts1.failed()[:, 0] & ~layouts2.failed()[:, 0] & _bracketed(w1) & _bracketed(w2)
    )
    return solved, (w1, w2), _required_width(batch, w1, w2), geometry.separations(layouts2)


def design_search(
    space: SearchSpace, samples: int, seed: int
) -> tuple[Apparatus, DesignReport] | None:
    """Seeded uniform random search maximizing detector separation.

    The mirror width is always derived from required_mirror_width, never
    sampled.  Candidates are drawn and solved in blocks of ``_BLOCK``, so
    memory does not grow with ``samples``.  Only the solved candidates that
    beat the best separation so far are judged, in descending separation,
    in chunks growing from 2 to ``_CHUNK``; the first feasible one is the
    block's best.  Returns None when no sampled point is feasible.  Ties are
    broken by the lowest sample index, so results are reproducible and
    independent of the block and chunk sizes.
    """
    if samples < 1:
        raise DesignError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = np.array([getattr(space, name) for name in _SEARCHED]).T
    best, best_sep = None, -math.inf
    for start in range(0, samples, _BLOCK):
        # one stream: the same values as one draw per sample and parameter
        draws = rng.uniform(lo, hi, size=(min(_BLOCK, samples - start), len(_SEARCHED)))
        solved, (w1, w2), width, separation = solve_block(draws)
        # a stable sort keeps equal separations in sample order
        order = np.argsort(-separation, kind="stable")
        order = order[solved[order] & (separation[order] > best_sep)]
        done, chunk = 0, 2
        while done < len(order):
            rows = order[done : done + chunk]
            verdicts, _ = judge(_candidates(draws[rows].T, mirror_width=width[rows]), space.x_max)
            if verdicts.feasible.any():
                i = rows[np.argmax(verdicts.feasible)]
                best_sep = separation[i]
                best = draws[i].tolist(), float(width[i]), (float(w1[i]), float(w2[i]))
                break
            done, chunk = done + chunk, min(2 * chunk, _CHUNK)
    if best is None:
        return None
    row, width, limits = best
    candidate = _candidates(row, mirror_width=width)
    return candidate, validate(candidate, space.x_max, limits)
