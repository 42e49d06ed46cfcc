"""Direct, loop-by-loop references the closed forms are checked against.

The vector geometry here (mirror placement, unit vectors, specular
reflection, signed angles, the clearance margin at one mirror point) builds
the apparatus one point at a time.  ``geometry.routing_fractions`` routes
photons through mirror intervals found from the slits' mirror images over a
whole scan grid; the per-photon ray tracer here does the same job one
reflected ray at a time.  ``design`` finds grazing limits as one line
intersection and checks feasibility over whole arrays of positions; the
bisection, ``loop_validate`` (which judges mis-detection by tracing rays
from evenly spaced mirror points) and ``loop_design_search`` here do it by
root finding and one scalar geometry call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from mirrorslit import design, geometry
from mirrorslit.design import (
    _HALF_WIDTH_HI,
    _HALF_WIDTH_LO,
    BracketError,
    DesignError,
    DesignReport,
    SearchSpace,
)
from mirrorslit.geometry import (
    Apparatus,
    DetectorLayouts,
    DiaphragmClearanceError,
    GeometryError,
    GrazingIncidenceError,
)
from mirrorslit.montecarlo import _acceptance_rate
from mirrorslit.wavemodel import OutcomeHypothesis, fringe_spacing, hypothesis_visibility

_BISECT_TOL = 1e-7


class OffMirrorError(GeometryError):
    """Probe point does not lie on the mirror segment."""


def unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise GeometryError("cannot normalize zero vector")
    return v / n


@dataclass(frozen=True)
class MirrorPlacement:
    """Mirror geometry for a scan position x on the screen line."""

    x: float
    center: np.ndarray
    end_high: np.ndarray  # endpoint with larger x
    end_low: np.ndarray
    along: np.ndarray  # unit vector from center toward end_high
    normal: np.ndarray  # unit normal facing the diaphragm (negative y)

    @property
    def half_width(self) -> float:
        return float(np.linalg.norm(self.end_high - self.center))


def mirror_placement(app: Apparatus, x: float) -> MirrorPlacement:
    """Place the mirror centered at (x, L), oriented as in ``mirror_axes``."""
    along, normal = geometry.mirror_axes(app)
    center = geometry.point(x, app.screen_distance)
    half = app.mirror_width / 2
    return MirrorPlacement(
        x=float(x),
        center=center,
        end_high=center + half * along,
        end_low=center - half * along,
        along=along,
        normal=normal,
    )


def reflect_direction(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Specular reflection of direction v about unit normal n."""
    vn = float(np.dot(v, n))
    if abs(vn) < 1e-9:
        raise GrazingIncidenceError("incident ray is parallel to the mirror surface")
    return v - 2.0 * vn * n


def signed_angle(reference: np.ndarray, v: np.ndarray) -> float:
    """Counterclockwise-positive angle from ``reference`` to ``v``, in (-pi, pi]."""
    cross = reference[0] * v[1] - reference[1] * v[0]
    return math.atan2(cross, float(np.dot(reference, v)))


def _on_mirror(pl: MirrorPlacement, p: np.ndarray, slack: float = 1e-9) -> bool:
    rel = p - pl.center
    along = float(np.dot(rel, pl.along))
    off = abs(float(rel[0] * pl.along[1] - rel[1] * pl.along[0]))
    return off <= slack and abs(along) <= pl.half_width + slack


def clearance_margins(
    app: Apparatus, p: np.ndarray, d2_right: np.ndarray, d1_left: np.ndarray
) -> tuple[float, float]:
    """Angular margins against mis-detection at one mirror point p.

    delta1 compares the incidence angle of the slit-1 ray at p with the
    angle subtended by the near edge of detector 2's aperture (both measured
    from the mirror normal, unsigned): delta1 > 0 means the reflected slit-1
    ray passes beyond that edge and clears detector 2.  delta2 is the
    analogous margin for slit 2 against detector 1, safe when negative.
    """
    _, normal = geometry.mirror_axes(app)
    s1, s2 = app.slits()
    a = [abs(signed_angle(normal, v - p)) for v in (s1, d2_right, s2, d1_left)]
    return a[0] - a[1], a[2] - a[3]


def clearance_angles(
    app: Apparatus,
    x: float,
    p: np.ndarray,
    layout: DetectorLayouts | None = None,
) -> tuple[float, float]:
    """``clearance_margins`` at one mirror point p, checked to lie on the
    mirror at x.  The detector layout (one row) is the reference one
    for the same x unless supplied."""
    pl = mirror_placement(app, x)
    if not _on_mirror(pl, p):
        raise OffMirrorError(f"point {p} is not on the mirror segment at x={x}")
    if layout is None:
        layout = geometry.detector_layouts(app, x)
    delta1, delta2 = clearance_margins(app, p, layout.right[0, 1], layout.left[0, 0])
    return float(delta1), float(delta2)


def row_edges(layouts: DetectorLayouts, i: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Left and right aperture edges, shape (2, 2) with the detector first,
    of row i of ``layouts``."""
    return layouts.left[i], layouts.right[i]


def route_rays(
    origins: np.ndarray,
    directions: np.ndarray,
    edges: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Vectorized ray vs aperture-segment intersection.

    Returns the detector index (1 or 2) crossed by each ray, 0 for neither.
    A ray crossing both apertures counts at detector 1.
    """
    hit = np.zeros(len(origins), dtype=np.int64)
    for idx, left, right in zip((1, 2), *edges):
        seg = right - left
        rel = left - origins
        denom = directions[:, 0] * (-seg[1]) - directions[:, 1] * (-seg[0])
        ok = np.abs(denom) > 0
        t = np.where(ok, (rel[:, 0] * (-seg[1]) + rel[:, 1] * seg[0]) / denom, -1.0)
        s = np.where(
            ok,
            (directions[:, 0] * rel[:, 1] - directions[:, 1] * rel[:, 0]) / denom,
            -1.0,
        )
        crossed = (t > 0) & (s >= 0.0) & (s <= 1.0)
        hit = np.where(crossed & (hit == 0), idx, hit)
    return hit


def photon_event(
    app: Apparatus,
    x: float,
    hyp: OutcomeHypothesis,
    rng: np.random.Generator,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[int, int, bool]:
    """Simulate one photon at scan position x.

    Returns (detector, slit, misdetected) where detector is 1, 2, or 0 when
    the photon is not detected (rejected by the fringe rate, or its
    reflected ray misses both apertures).
    """
    if edges is None:
        edges = row_edges(geometry.detector_layouts(app, x))
    slit = 1 if rng.random() < 0.5 else 2
    v = hypothesis_visibility(hyp)
    if rng.random() >= _acceptance_rate(app, x, v):
        return 0, slit, False
    pl = mirror_placement(app, x)
    p = pl.end_low + rng.random() * (pl.end_high - pl.end_low)
    source = app.slits()[slit - 1]
    direction = reflect_direction(unit(p - source), pl.normal)
    detector = int(route_rays(p[None, :], direction[None, :], edges)[0])
    misdetected = detector != 0 and detector != slit
    return detector, slit, misdetected


def _trace(
    pl: MirrorPlacement,
    sources: np.ndarray,
    mirror_frac: np.ndarray,
    edges: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Detector (1, 2, or 0 for neither) reached by the ray from each source
    reflected at the mirror point a fraction ``mirror_frac`` along the mirror
    from ``end_low``."""
    points = pl.end_low[None, :] + mirror_frac[:, None] * (pl.end_high - pl.end_low)
    incident = points - sources
    incident /= np.linalg.norm(incident, axis=1, keepdims=True)
    n = pl.normal
    directions = incident - 2.0 * (incident @ n)[:, None] * n[None, :]
    return route_rays(points, directions, edges)


def traced_fractions(
    app: Apparatus,
    x: float,
    edges: tuple[np.ndarray, np.ndarray],
    n_rays: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ray-traced estimate of ``geometry.routing_fractions``.

    For each slit, ``n_rays`` mirror points are drawn uniformly along the
    mirror; ``f[s - 1, d - 1]`` is the share of them whose reflected ray
    crosses detector d's aperture.
    """
    pl = mirror_placement(app, x)
    f = np.zeros((2, 2))
    for i, source in enumerate(app.slits()):
        hits = _trace(pl, source[None, :], rng.random(n_rays), edges)
        f[i] = np.mean(hits == 1), np.mean(hits == 2)
    return f


def traced_position(
    app: Apparatus,
    x: float,
    n_photons: int,
    v: float,
    rng: np.random.Generator,
    edges: tuple[np.ndarray, np.ndarray],
) -> tuple[int, int, int]:
    """Per-photon counts at one position, (n1, n2, misdetected): a slit,
    an acceptance test and a uniform mirror point drawn for every photon,
    and every accepted photon's reflected ray traced."""
    slits = rng.integers(1, 3, size=n_photons)
    accept = rng.random(n_photons) < _acceptance_rate(app, x, v)
    mirror_frac = rng.random(n_photons)

    slits = slits[accept]
    s1, s2 = app.slits()
    sources = np.where((slits == 1)[:, None], s1[None, :], s2[None, :])
    hits = _trace(mirror_placement(app, x), sources, mirror_frac[accept], edges)
    n1 = int(np.sum(hits == 1))
    n2 = int(np.sum(hits == 2))
    mis = int(np.sum((hits != 0) & (hits != slits)))
    return n1, n2, mis


def clearance_at_half_width(
    app: Apparatus, x: float, slit: int, h: float, layout: DetectorLayouts | None = None
) -> float:
    """Clearance margin at probe point M1 (slit 1) or M2 (slit 2) for a
    hypothetical mirror of half-width h, detectors fixed at the same x.
    Returned with sign flipped for slit 2 so that a root crossing means the
    same thing for both: positive = safe, negative = mis-detection.  The
    layout does not depend on h; pass it to save rebuilding it."""
    widened = replace(app, mirror_width=2.0 * h)
    pl = mirror_placement(widened, x)
    if layout is None:
        layout = geometry.detector_layouts(widened, x)
    p = pl.end_high if slit == 1 else pl.end_low
    d1, d2 = clearance_angles(widened, x, p, layout)
    return d1 if slit == 1 else -d2


def bisect_half_width(app: Apparatus, x: float, slit: int) -> float:
    """``design.limiting_half_width`` by bisection of the clearance margin
    over [1 um, 2 mm] to 0.1 um."""
    if slit not in (1, 2):
        raise DesignError("slit must be 1 or 2")
    layout = geometry.detector_layouts(app, x)
    lo, hi = _HALF_WIDTH_LO, _HALF_WIDTH_HI
    f_lo = clearance_at_half_width(app, x, slit, lo, layout)
    f_hi = clearance_at_half_width(app, x, slit, hi, layout)
    if f_lo * f_hi > 0:
        raise BracketError(
            "clearance margin does not change sign in "
            f"[{lo}, {hi}] m (values {f_lo:.3g}, {f_hi:.3g})"
        )
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = clearance_at_half_width(app, x, slit, mid, layout)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def bisect_required_width(app: Apparatus) -> float:
    """``design.required_mirror_width`` from the bisection limits."""
    w_prime, _ = design.default_mirror_params(app)
    w1 = bisect_half_width(app, 3.0 * fringe_spacing(app), 1)
    w2 = bisect_half_width(app, 0.0, 2)
    return 2.0 * min(w_prime / 2.0, w1, w2)


def loop_sampling_constraint(app: Apparatus, x0: float) -> tuple[bool, float]:
    """``design.sampling_constraint`` one mirror placement at a time."""
    f_s = fringe_spacing(app)
    if x0 <= 2.0 * f_s:
        raise DesignError(f"scan extent {x0} must exceed two fringe periods {2 * f_s}")
    s1, s2 = app.slits()
    worst = 0.0
    for x in np.linspace(0.0, x0, 101):
        pl = mirror_placement(app, x)
        feet = []
        for endpoint, slit in ((pl.end_high, s1), (pl.end_low, s2)):
            direction = endpoint - slit
            t = (app.screen_distance - slit[1]) / direction[1]
            feet.append(slit[0] + t * direction[0])
        worst = max(worst, abs(feet[0] - feet[1]))
    return bool(worst < f_s / 2.0), float(worst)


def traced_misdetection_free(app: Apparatus, x: float, n_points: int = 2001) -> bool:
    """True when no ray reflected at ``n_points`` evenly spaced mirror
    points, both ends included, reaches the other slit's detector, with the
    detectors re-aimed at x.  A ray crossing both apertures counts at
    detector 1, as in ``route_rays``."""
    edges = row_edges(geometry.detector_layouts(app, x))
    slits = np.repeat([1, 2], n_points)
    sources = np.array(app.slits())[slits - 1]
    mirror_frac = np.tile(np.linspace(0.0, 1.0, n_points), 2)
    hits = _trace(mirror_placement(app, x), sources, mirror_frac, edges)
    return bool(np.all((hits == 0) | (hits == slits)))


def loop_validate(app: Apparatus, x_max: float) -> DesignReport:
    """``design.validate`` with bisection limits, and one single-position
    layout and ``traced_misdetection_free`` call per position."""
    f_s = fringe_spacing(app)
    w_prime, _ = design.default_mirror_params(app)
    warnings_list = app.regime_warnings()

    def grazing_limit(x: float, slit: int) -> float:
        try:
            return bisect_half_width(app, x, slit)
        except BracketError:
            warnings_list.append(f"slit-{slit} grazing limit unbounded below 2 mm")
        except DiaphragmClearanceError:
            warnings_list.append(
                f"slit-{slit} grazing limit undefined: reflected beam hits the diaphragm"
            )
        return math.inf

    w1 = grazing_limit(3.0 * f_s, 1)
    w2 = grazing_limit(0.0, 2)
    try:
        sampling_ok, _ = loop_sampling_constraint(app, x_max)
    except DesignError as exc:
        sampling_ok = False
        warnings_list.append(str(exc))

    diaphragm_clear = True
    misdetection_free = True
    separation = math.nan
    try:
        separation, _ = geometry.detector_separation(app, 0.0)
        for x in np.linspace(0.0, x_max, 61):
            if not traced_misdetection_free(app, x):
                misdetection_free = False
    except DiaphragmClearanceError as exc:
        diaphragm_clear = False
        misdetection_free = False
        warnings_list.append(str(exc))

    return DesignReport(
        fringe_spacing=f_s,
        default_width=w_prime,
        w1_limit=w1,
        w2_limit=w2,
        required_width=2.0 * min(w_prime / 2.0, w1, w2),
        detector_separation=separation,
        sampling_ok=sampling_ok,
        misdetection_free=misdetection_free,
        diaphragm_clear=diaphragm_clear,
        warnings=warnings_list,
    )


def loop_design_search(
    space: SearchSpace, samples: int, seed: int
) -> tuple[Apparatus, DesignReport] | None:
    """``design.design_search`` built on the bisection and ``loop_validate``,
    solving the grazing limits once for the width and again in the report."""
    rng = np.random.default_rng(seed)
    best = None
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
            candidate = replace(candidate, mirror_width=bisect_required_width(candidate))
            report = loop_validate(candidate, space.x_max)
        except (DesignError, geometry.GeometryError):
            continue
        if report.feasible and report.detector_separation > best_sep:
            best = (candidate, report)
            best_sep = report.detector_separation
    return best
