"""Feasibility checks and parameter search for the mirror-scan design.

A candidate apparatus is acceptable when the scanning mirror is small
enough to resolve fringes (sampling footprint under half a period), both
reflected beams clear the diaphragm, and no mirror point can bounce a
photon from one slit into the other slit's detector over the scan range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .geometry import Apparatus, DiaphragmClearanceError
from .wavemodel import fringe_spacing

_HALF_WIDTH_LO = 1e-6
_HALF_WIDTH_HI = 2e-3


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
        for name in (
            "wavelength",
            "slit_separation",
            "screen_distance",
            "mirror_angle",
            "arm",
            "aperture",
        ):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise DesignError(f"invalid interval for {name}: [{lo}, {hi}]")
        if self.x_max <= 0:
            raise DesignError("x_max must be positive")


def default_mirror_params(app: Apparatus) -> tuple[float, float]:
    """Sampling-driven mirror width F_s / 7 and the standard 45-degree tilt."""
    return fringe_spacing(app) / 7.0, math.pi / 4


def sampling_constraint(app: Apparatus, x0: float) -> tuple[bool, float]:
    """Check that the mirror footprint on the screen line stays under F_s / 2.

    The footprint at scan position x is the span between the projections of
    the two mirror endpoints onto y = L, each along its illuminating ray
    (slit 1 for the high end, slit 2 for the low end).  Evaluated on a grid
    0 <= x <= x0; x0 must exceed two fringe periods for the scan to be
    meaningful at all.
    """
    f_s = fringe_spacing(app)
    if x0 <= 2.0 * f_s:
        raise DesignError(f"scan extent {x0} must exceed two fringe periods {2 * f_s}")
    slits = np.array(app.slits())
    along, _ = geometry.mirror_axes(app)
    xs = np.linspace(0.0, x0, 101)
    centers = np.column_stack([xs, np.full_like(xs, app.screen_distance)])
    # axis 1: (high end, slit 1) and (low end, slit 2)
    half = np.array([app.mirror_width / 2, -app.mirror_width / 2])
    direction = centers[:, None, :] + half[:, None] * along - slits
    t = (app.screen_distance - slits[:, 1]) / direction[..., 1]
    feet = slits[:, 0] + t * direction[..., 0]
    worst = float(np.max(np.abs(feet[:, 0] - feet[:, 1])))
    return bool(worst < f_s / 2.0), worst


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
    layout = geometry.detector_layout(app, x)
    edge = layout.d2_right if slit == 1 else layout.d1_left
    (t_s, h_s), edge_frame = geometry.mirror_frame(
        geometry.mirror_placement(app, x), [app.slits()[slit - 1], edge]
    )
    along = geometry.project_from_image((t_s, -h_s), edge_frame)
    half_width = along if slit == 1 else -along
    lo, hi = _HALF_WIDTH_LO, _HALF_WIDTH_HI
    if not lo <= half_width <= hi:
        raise BracketError(
            f"grazing limit {half_width:.3g} m not within [{lo}, {hi}] m; "
            "width is limited by the sampling constraint instead"
        )
    return half_width


def _required_width(app: Apparatus, w1: float, w2: float) -> float:
    w_prime, _ = default_mirror_params(app)
    return 2.0 * min(w_prime / 2.0, w1, w2)


def _grazing_limits(app: Apparatus) -> tuple[float, float]:
    """Slit-1 limit at x = 3 F_s and slit-2 limit at x = 0."""
    w1 = limiting_half_width(app, 3.0 * fringe_spacing(app), 1)
    return w1, limiting_half_width(app, 0.0, 2)


def required_mirror_width(app: Apparatus) -> float:
    """Full mirror width 2 min(w'/2, w1, w2) combining the sampling width with
    both grazing limits (evaluated at x = 0 and x = 3 F_s)."""
    return _required_width(app, *_grazing_limits(app))


def validate(
    app: Apparatus, x_max: float, limits: tuple[float, float] | None = None
) -> DesignReport:
    """Assemble the full feasibility report for a scan over [0, x_max].

    Failures are recorded in the report rather than raised; only malformed
    inputs raise.  ``limits`` passes grazing limits (w1, w2) already solved
    for this apparatus; they do not depend on the mirror width.
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
    required = _required_width(app, w1, w2)

    try:
        sampling_ok, _ = sampling_constraint(app, x_max)
    except DesignError as exc:
        sampling_ok = False
        warnings_list.append(str(exc))

    diaphragm_clear = True
    misdetection_free = True
    separation = math.nan
    try:
        separation, _ = geometry.detector_separation(app, 0.0)
        layouts = geometry.detector_layouts(app, np.linspace(0.0, x_max, 61))
        # probes: low end, centre and high end of the mirror at each x
        along, _ = geometry.mirror_axes(app)
        offsets = app.mirror_width / 2 * np.array([-1.0, 0.0, 1.0])
        probes = layouts.centers[:, None, :] + offsets[:, None] * along
        d1, d2 = geometry.clearance_margins(
            app, probes, layouts.right[:, None, 1], layouts.left[:, None, 0]
        )
        misdetection_free = bool(np.all((d1 > 0) & (d2 < 0)))
    except DiaphragmClearanceError as exc:
        diaphragm_clear = False
        misdetection_free = False
        warnings_list.append(str(exc))

    return DesignReport(
        fringe_spacing=f_s,
        default_width=w_prime,
        w1_limit=w1,
        w2_limit=w2,
        required_width=required,
        detector_separation=separation,
        sampling_ok=sampling_ok,
        misdetection_free=misdetection_free,
        diaphragm_clear=diaphragm_clear,
        warnings=warnings_list,
    )


def design_search(
    space: SearchSpace, samples: int, seed: int
) -> tuple[Apparatus, DesignReport] | None:
    """Seeded uniform random search maximizing detector separation.

    The mirror width is always derived from required_mirror_width, never
    sampled.  Returns None when no sampled point is feasible.  Ties are
    broken by the lowest sample index, so results are reproducible and
    independent of any evaluation reordering.
    """
    if samples < 1:
        raise DesignError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    best: tuple[Apparatus, DesignReport] | None = None
    best_sep = -math.inf
    for _ in range(samples):
        draws = {
            name: float(rng.uniform(*getattr(space, name)))
            for name in (
                "wavelength",
                "slit_separation",
                "screen_distance",
                "mirror_angle",
                "arm",
                "aperture",
            )
        }
        candidate = Apparatus(
            wavelength=draws["wavelength"],
            slit_separation=draws["slit_separation"],
            screen_distance=draws["screen_distance"],
            mirror_angle=draws["mirror_angle"],
            arm1=draws["arm"],
            arm2=draws["arm"],
            aperture=draws["aperture"],
        )
        try:
            limits = _grazing_limits(candidate)
            candidate = replace(candidate, mirror_width=_required_width(candidate, *limits))
            report = validate(candidate, space.x_max, limits)
        except (DesignError, geometry.GeometryError):
            continue
        if report.feasible and report.detector_separation > best_sep:
            best = (candidate, report)
            best_sep = report.detector_separation
    return best
