"""Direct, loop-by-loop references the closed forms are checked against.

The vector geometry here (mirror placement, unit vectors, specular
reflection, signed angles, the clearance margin at one mirror point) builds
the apparatus one point at a time, each vector an (x, y) pair; ``slits`` and
``mirror_axes`` give the slit positions and the mirror's unit vectors that
way.  ``geometry.routing_fractions`` routes photons through mirror intervals
found from the slits' mirror images over a whole scan grid; the per-photon
ray tracer here does the same job one reflected ray at a time, and
``traced_outcomes`` tallies, photon by photon, the columns of the table
``montecarlo.outcomes`` builds, with the fringe rate ``acceptance_rate``.
``design`` finds grazing limits as one line intersection and checks
feasibility over whole arrays of positions; the bisection,
``loop_validate`` (which judges mis-detection by tracing rays from evenly
spaced mirror points) and ``loop_design_search`` here do it by root finding
and one scalar geometry call per point, and ``scalar_search_steps`` draws
and judges one search candidate at a time with the scalar ``validate``.
``curves_csv`` and ``counts_csv`` write the CLI's CSV files one row at a
time.  ``visibility`` is the raw-extrema contrast that
``wavemodel.fit_visibilities`` replaces on noisy counts.

The helpers here read ``geometry``'s arrays as stored, positions-last.
``coordinate_last_layouts`` and ``coordinate_last_fractions`` are the layout
and routing formulas as first written, with the coordinate on the last
axis, returning their arrays in ``geometry``'s order.  They pin the kernels
to the last bit, which the ray-trace oracles cannot: normalising the
central rays with ``np.hypot`` in place of ``np.sqrt`` of the dot product
changes the last digits of grazing limits and detector separations but no
verdict, and of all the tests only this comparison fails.
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
from mirrorslit.wavemodel import (
    FitError,
    FringePattern,
    OutcomeHypothesis,
    fringe_spacing,
    phases,
)

_BISECT_TOL = 1e-7
_X, _Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
# slit 1 at (+d/2, 0) and slit 2 at (-d/2, 0), in units of d/2, one per row
_SLITS_LAST = np.array([[1.0, 0.0], [-1.0, 0.0]])


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


def slits(app: Apparatus) -> tuple[np.ndarray, np.ndarray]:
    """Positions of slit 1 (+d/2) and slit 2 (-d/2) on the diaphragm."""
    half = app.slit_separation / 2
    return np.array([half, 0.0]), np.array([-half, 0.0])


def mirror_axes(app: Apparatus) -> tuple[np.ndarray, np.ndarray]:
    """Unit vector along the mirror toward its +x end, cos X - sin Y, and
    the unit normal facing the diaphragm, -sin X - cos Y."""
    cos, sin = np.cos(app.mirror_angle), np.sin(app.mirror_angle)
    return np.array([cos, -sin]), np.array([-sin, -cos])


def point(x: float, y: float) -> np.ndarray:
    """Construct a 2D point/vector (transverse x, longitudinal y), in meters."""
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GeometryError(f"non-finite coordinates: {np.array([x, y])}")
    return np.array([x, y])


def mirror_placement(app: Apparatus, x: float) -> MirrorPlacement:
    """Place the mirror centered at (x, L), oriented as in ``mirror_axes``."""
    along, normal = mirror_axes(app)
    center = point(x, app.screen_distance)
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
    _, normal = mirror_axes(app)
    s1, s2 = slits(app)
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
    delta1, delta2 = clearance_margins(app, p, layout.right[:, 1, 0], layout.left[:, 0, 0])
    return float(delta1), float(delta2)


def row_edges(layouts: DetectorLayouts, i: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Left and right aperture edges at position i of ``layouts``, each of
    shape (2, 2): the coordinate, then the detector."""
    return layouts.left[..., i], layouts.right[..., i]


def route_rays(
    origins: np.ndarray,
    directions: np.ndarray,
    edges: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Vectorized ray vs aperture-segment intersection.

    ``edges`` holds the left and right aperture edges, each of shape
    (2, 2) as ``row_edges`` gives them: the coordinate, then the detector.
    Returns the detector index (1 or 2) crossed by each ray,
    0 for neither.  A ray crossing both apertures counts at detector 1.
    """
    return _first_crossing(
        origins[..., 0], origins[..., 1], directions[..., 0], directions[..., 1], edges
    )


def _first_crossing(ox, oy, dx, dy, edges: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``route_rays`` for rays from (ox, oy) heading along (dx, dy), given
    as one array per coordinate."""
    hit = np.zeros(np.broadcast_shapes(np.shape(ox), np.shape(dx)), dtype=np.int64)
    for idx in (1, 2):
        left, right = (e[:, idx - 1] for e in edges)
        lx, ly = left
        gx, gy = right[0] - lx, right[1] - ly
        rx, ry = lx - ox, ly - oy
        # a ray parallel to the aperture gives s = +-inf or nan: no crossing
        denom = dy * gx - dx * gy
        t = (ry * gx - rx * gy) / denom
        s = (dx * ry - dy * rx) / denom
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
    v = hyp.visibility
    if rng.random() >= acceptance_rate(app, x, v):
        return 0, slit, False
    pl = mirror_placement(app, x)
    p = pl.end_low + rng.random() * (pl.end_high - pl.end_low)
    source = slits(app)[slit - 1]
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
    return _reflect_and_route(
        points[:, 0], points[:, 1], sources[:, 0], sources[:, 1], pl.normal, edges
    )


def _reflect_and_route(px, py, sx, sy, normal: np.ndarray, edges) -> np.ndarray:
    """``route_rays`` for the rays from (sx, sy) reflected at mirror points
    (px, py), one array per coordinate.  Reflection is linear and whether a
    ray crosses a segment does not depend on its length, so the incident
    directions are not normalized."""
    ix, iy = px - sx, py - sy
    twice_normal = 2.0 * (ix * normal[0] + iy * normal[1])
    return _first_crossing(
        px, py, ix - twice_normal * normal[0], iy - twice_normal * normal[1], edges
    )


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
    for i, source in enumerate(slits(app)):
        hits = _trace(pl, source[None, :], rng.random(n_rays), edges)
        f[i] = np.mean(hits == 1), np.mean(hits == 2)
    return f


def acceptance_rate(app: Apparatus, x, v: float):
    """The fringe rate (1 + v cos phase) / 2 in [0, 1] at scan position(s)
    x: the chance that a photon survives the acceptance test."""
    return 0.5 * (1.0 + v * np.cos(phases(app, x)[1]))


def traced_outcomes(
    app: Apparatus,
    x: float,
    n_photons: int,
    v: float,
    rng: np.random.Generator,
    edges: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per-photon counts at one position, in the column order of
    ``montecarlo.Outcomes.table``: (slit 1, D1), (1, D2), (2, D1), (2, D2),
    not detected.  A slit, an acceptance test and a uniform mirror point
    are drawn for every photon, and every accepted photon's reflected ray
    is traced."""
    picked = rng.integers(1, 3, size=n_photons)
    accept = rng.random(n_photons) < acceptance_rate(app, x, v)
    mirror_frac = rng.random(n_photons)

    picked = picked[accept]
    s1, s2 = slits(app)
    sources = np.where((picked == 1)[:, None], s1[None, :], s2[None, :])
    hits = _trace(mirror_placement(app, x), sources, mirror_frac[accept], edges)
    pairs = [int(np.sum((picked == s) & (hits == d))) for s in (1, 2) for d in (1, 2)]
    return np.array([*pairs, n_photons - sum(pairs)])


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


def sampling_constraint(app: Apparatus, x0: float) -> tuple[bool, float]:
    """``design._sampling``'s rule for one apparatus: whether the mirror
    footprint on the screen line stays under F_s / 2 for 0 <= x <= x0, and
    the worst footprint.  x0 must exceed two fringe periods
    for the scan to be meaningful at all."""
    long_scan, ok, worst = design._sampling(app, x0)
    if not long_scan:
        raise DesignError(design._short_scan(x0, app))
    return bool(ok), float(worst)


def loop_sampling_constraint(app: Apparatus, x0: float) -> tuple[bool, float]:
    """``sampling_constraint`` one mirror position at a time, on a grid of
    101 positions 0 <= x <= x0."""
    f_s = fringe_spacing(app)
    if x0 <= 2.0 * f_s:
        raise DesignError(f"scan extent {x0} must exceed two fringe periods {2 * f_s}")
    s1, s2 = slits(app)
    # the mirror ends as ``mirror_placement`` places them
    along, _ = mirror_axes(app)
    half = app.mirror_width / 2
    worst = 0.0
    for x in np.linspace(0.0, x0, 101):
        center = point(x, app.screen_distance)
        feet = []
        for endpoint, slit in ((center + half * along, s1), (center - half * along, s2)):
            direction = endpoint - slit
            t = (app.screen_distance - slit[1]) / direction[1]
            feet.append(slit[0] + t * direction[0])
        worst = max(worst, abs(feet[0] - feet[1]))
    return bool(worst < f_s / 2.0), float(worst)


def _cross(a, b):
    """The 2D cross product a x b over axis 0."""
    return a[0] * b[1] - a[1] * b[0]


def traced_misdetection_free(app: Apparatus, xs, n_points: int = 2001) -> bool:
    """True when, at every position in ``xs`` with the detectors re-aimed
    there, no ray reflected at ``n_points`` evenly spaced mirror points,
    both ends included, reaches the other slit's detector.  A ray crossing
    both apertures counts at detector 1, as in ``route_rays``.

    Each slit's rays at every position are traced in one array pass, slit
    2's against detector 1 alone.  The mirror point a fraction f along the
    mirror is p = low + f m, m running from ``end_low`` to ``end_high``.
    Reflection is linear and keeps m, so the ray from slit s leaves p along
    r = refl(low - s) + f m.  It crosses the aperture segment left + u g at
    p + t r, where t = (w x g) / (r x g) and u = (w x r) / (r x g) with
    w = left - p.  Since m x m = 0, all three cross products are affine in
    f: one multiply-add per ray each."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    layouts = geometry.detector_layouts(app, xs)
    along, normal = mirror_axes(app)
    half = app.mirror_width / 2
    m = 2.0 * half * along
    # ``end_low`` of ``mirror_placement`` at each position, coordinate first
    low = np.stack([xs - half * along[0], np.full(len(xs), app.screen_distance - half * along[1])])
    frac = np.linspace(0.0, 1.0, n_points)

    def crossings(source, detectors):
        """Whether each ray from ``source`` crosses the aperture of each of
        ``detectors``: axes (detector, position, mirror point)."""
        g = layouts.right[:, detectors] - layouts.left[:, detectors]
        w = layouts.left[:, detectors] - low[:, None]  # at f = 0
        incident = low - source[:, None]
        r = (incident - 2.0 * (normal @ incident) * normal[:, None])[:, None]  # at f = 0

        def along_mirror(at_low, slope):
            return at_low[..., None] + slope[..., None] * frac

        denom = along_mirror(_cross(r, g), _cross(m, g))
        t = along_mirror(_cross(w, g), -_cross(m, g)) / denom
        u = along_mirror(_cross(w, r), _cross(w, m) + _cross(r, m)) / denom
        return (t > 0) & (u >= 0.0) & (u <= 1.0)

    s1, s2 = slits(app)
    # slit 2 first: its rays are mis-detected wherever they cross detector 1
    if crossings(s2, [0]).any():
        return False
    both = crossings(s1, [0, 1])
    return not (both[1] & ~both[0]).any()


def loop_validate(app: Apparatus, x_max: float) -> DesignReport:
    """``design.validate`` with bisection limits, and mis-detection judged
    by ``traced_misdetection_free`` over the 61 positions at once."""
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
    separation = math.nan
    try:
        separation, _ = geometry.detector_separation(app, 0.0)
        misdetection_free = traced_misdetection_free(app, np.linspace(0.0, x_max, 61))
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
        candidate = _draw_candidate(space, rng)
        try:
            candidate = replace(candidate, mirror_width=bisect_required_width(candidate))
            report = loop_validate(candidate, space.x_max)
        except (DesignError, geometry.GeometryError):
            continue
        if report.feasible and report.detector_separation > best_sep:
            best = (candidate, report)
            best_sep = report.detector_separation
    return best


def _draw_candidate(space: SearchSpace, rng: np.random.Generator) -> Apparatus:
    """One sample of the search: one scalar draw per parameter, in order."""
    names = ("wavelength", "slit_separation", "screen_distance", "mirror_angle", "arm", "aperture")
    draws = {name: float(rng.uniform(*getattr(space, name))) for name in names}
    return Apparatus(
        wavelength=draws["wavelength"],
        slit_separation=draws["slit_separation"],
        screen_distance=draws["screen_distance"],
        mirror_angle=draws["mirror_angle"],
        arm1=draws["arm"],
        arm2=draws["arm"],
        aperture=draws["aperture"],
    )


def scalar_search_steps(space: SearchSpace, samples: int, seed: int):
    """Each sample of the per-sample search loop, as (candidate, limits,
    report): the candidate with its required mirror width, its grazing
    limits and its scalar ``validate`` report.  When the limits raise, the
    candidate keeps the default width; when the limits or ``validate``
    raise, the type of the error stands in place of the limits and the
    report is None."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        candidate = _draw_candidate(space, rng)
        f_s = fringe_spacing(candidate)
        try:
            limits = tuple(
                design.limiting_half_width(candidate, x, slit) for x, slit in ((3 * f_s, 1), (0.0, 2))
            )
        except (DesignError, GeometryError) as exc:
            yield candidate, type(exc), None
            continue
        width = 2.0 * min(design.default_mirror_params(candidate)[0] / 2.0, *limits)
        candidate = replace(candidate, mirror_width=width)
        try:
            report = design.validate(candidate, space.x_max)
        except GeometryError as exc:
            yield candidate, type(exc), None
            continue
        yield candidate, limits, report


def best_step(steps) -> tuple[Apparatus, DesignReport] | None:
    """The (candidate, report) of the first of ``scalar_search_steps`` with
    the largest feasible detector separation, or None."""
    best = None
    best_sep = -math.inf
    for candidate, _, report in steps:
        if report is not None and report.feasible and report.detector_separation > best_sep:
            best = (candidate, report)
            best_sep = report.detector_separation
    return best


def visibility(pattern: FringePattern) -> float:
    """Raw (I_max - I_min) / (I_max + I_min) from the sample extrema."""
    if len(pattern) == 0:
        raise FitError("cannot compute visibility of an empty pattern")
    hi = float(np.max(pattern.intensities))
    lo = float(np.min(pattern.intensities))
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def curves_csv(stamp: list[str], xs, screen, detector) -> str:
    """``curves.csv`` row by row, under the ``stamp`` lines: x, the screen
    intensity and the detector intensity twice."""
    lines = [*stamp, "x_m,I,I1,I2"]
    for x, i, i1 in zip(xs.tolist(), screen.tolist(), detector.tolist()):
        lines.append(f"{x:.9e},{i:.9e}" + f",{i1:.9e}" * 2)
    return "\n".join(lines) + "\n"


def counts_csv(stamp: list[str], records: np.recarray) -> str:
    """``counts.csv`` row by row from a scan's records, under the ``stamp``
    lines."""
    lines = [*stamp, "x_m,N,N1,N2,misdetected,I1_theory,I2_theory"]
    for x, n, n1, n2, mis, i1, _ in records.tolist():  # i2_theory is i1_theory
        lines.append(f"{x:.9e},{n},{n1},{n2},{mis}" + f",{i1:.9e}" * 2)
    return "\n".join(lines) + "\n"



def _column(value, trailing: int):
    """A batch field with ``trailing`` unit axes appended; a scalar as is."""
    if isinstance(value, np.ndarray):
        return value.reshape(value.shape + (1,) * trailing)
    return value


def _dot_last(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _frame_last(app: Apparatus, centers, points, trailing: int):
    """``geometry.mirror_frame`` with the coordinate on the last axis."""
    theta = _column(app.mirror_angle, trailing + 1)
    cos, sin = np.cos(theta), np.sin(theta)
    along, normal = cos * _X - sin * _Y, -sin * _X - cos * _Y
    rel = points - centers
    return _dot_last(rel, along), _dot_last(rel, normal)


def _centers_last(app: Apparatus, xs) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    length = _column(app.screen_distance, 1)
    shape = np.broadcast_shapes(xs.shape, length.shape) if np.ndim(length) else xs.shape
    centers = np.empty(shape + (2,))
    centers[..., 0] = xs
    centers[..., 1] = length
    return centers


def _stored(a, k: int):
    """A coordinate-last array in ``geometry``'s order: its last k axes
    moved to the front, reversed, so that the coordinate comes first."""
    return np.moveaxis(a, range(-1, -k - 1, -1), range(k))


def coordinate_last_layouts(app: Apparatus, xs) -> DetectorLayouts:
    """``geometry.aim_detectors`` computed on (..., n, 2, 2) arrays, the
    candidate axis leading and the coordinate last, and returned in
    ``geometry``'s order."""
    centers = _centers_last(app, xs)
    directions = centers[..., None, :] - _column(app.slit_separation / 2, 3) * _SLITS_LAST
    directions /= np.sqrt(_dot_last(directions, directions))[..., None]
    theta = _column(app.mirror_angle, 3)
    normal = -np.sin(theta) * _X - np.cos(theta) * _Y
    vn = _dot_last(directions, normal)
    directions -= 2.0 * vn[..., None] * normal
    dy = directions[..., 1]
    down = dy < 0
    x_hit = centers[..., None, 0] - centers[..., None, 1] * directions[..., 0] / np.where(
        down, dy, -1.0
    )
    arms = _column(app.arm1, 3) * _X[:, None] + _column(app.arm2, 3) * _Y[:, None]
    detectors = centers[..., None, :] + arms * directions
    offset = _column(app.aperture / 2, 3) * directions[..., ::-1] * np.array([-1.0, 1.0])
    return DetectorLayouts(
        centers=_stored(centers, 1),
        directions=_stored(directions, 2),
        detectors=_stored(detectors, 2),
        left=_stored(detectors + offset, 2),
        right=_stored(detectors - offset, 2),
        grazing=_stored(np.abs(vn) < 1e-9, 1),
        blocked=_stored(down & (np.abs(x_hit) < 10 * _column(app.slit_separation, 2)), 1),
        x_hit=_stored(x_hit, 1),
    )


def coordinate_last_fractions(app: Apparatus, xs, layouts: DetectorLayouts) -> np.ndarray:
    """``geometry.routing_fractions`` computed on (..., n, 2, 2) arrays, the
    slit on axis -2 and the detector on axis -1, from layouts in
    ``geometry``'s order, and returned in that order."""
    centers = _centers_last(app, xs)[..., None, :]
    sources = _column(app.slit_separation / 2, 3) * _SLITS_LAST
    t_img, h_img = _frame_last(app, centers, sources, 2)
    t_img, h_img = t_img[..., None], -h_img[..., None]
    # the edges with the coordinate last and the detector before it
    left, right = (np.moveaxis(e, (0, 1), (-1, -2)) for e in (layouts.left, layouts.right))
    ta, ha = _frame_last(app, centers, left, 2)
    tb, hb = _frame_last(app, centers, right, 2)
    ua, ub, empty = geometry._projected_segment(
        t_img, h_img, ta[..., None, :], ha[..., None, :], tb[..., None, :], hb[..., None, :]
    )
    width = _column(app.mirror_width, 3)
    half = width / 2
    lo = np.where(empty, half, np.maximum(np.minimum(ua, ub), -half))
    hi = np.minimum(np.maximum(ua, ub), half)
    f = np.maximum(hi - lo, 0.0)
    f[..., 1] -= np.maximum(hi.min(axis=-1) - lo.max(axis=-1), 0.0)
    return np.moveaxis(f / width, (-2, -1), (0, 1))
