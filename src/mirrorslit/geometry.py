"""2D geometry of the mirror-on-screen two-slit apparatus.

Coordinate frame: the diaphragm lies on y = 0 with slits at (+d/2, 0) and
(-d/2, 0); the screen line is y = L.  The scanning mirror is centered at
(x, L) and tilted at ``mirror_angle`` to the screen line, so single photons
arriving from either slit are reflected sideways onto two separated
detectors.  All functions here are pure and operate on exact coordinates;
small-angle approximations are offered only as explicitly labelled
cross-check outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Base class for geometric configuration errors."""


class GrazingIncidenceError(GeometryError):
    """Incident ray is (numerically) parallel to the mirror surface."""


class DiaphragmClearanceError(GeometryError):
    """A reflected central ray re-intersects the diaphragm plane."""


def point(x: float, y: float) -> np.ndarray:
    """Construct a 2D point/vector (transverse x, longitudinal y), in meters."""
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GeometryError(f"non-finite coordinates: {np.array([x, y])}")
    return np.array([x, y])


def _positions(x) -> np.ndarray:
    """Scan position(s) as a float array, rejecting non-finite values."""
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise GeometryError(f"non-finite coordinates: {xs}")
    return xs


@dataclass(frozen=True)
class Apparatus:
    """Physical parameters of the setup, all in SI units (meters, radians).

    ``arm1``/``arm2`` are the reflected-path lengths from the mirror center
    to detectors 1 and 2; ``aperture`` is the detector aperture width.
    """

    wavelength: float = 700e-9
    slit_separation: float = 100e-6
    slit_width: float = 1e-6
    screen_distance: float = 0.1
    mirror_width: float = 1e-4
    mirror_angle: float = math.pi / 4
    arm1: float = 5.0
    arm2: float = 5.0
    aperture: float = 1e-3

    def __post_init__(self):
        lengths = {
            "wavelength": self.wavelength,
            "slit_separation": self.slit_separation,
            "slit_width": self.slit_width,
            "screen_distance": self.screen_distance,
            "mirror_width": self.mirror_width,
            "arm1": self.arm1,
            "arm2": self.arm2,
            "aperture": self.aperture,
        }
        for name, value in lengths.items():
            if not (math.isfinite(value) and value > 0):
                raise GeometryError(f"{name} must be strictly positive, got {value}")
        if not 0 < self.mirror_angle < math.pi / 2:
            raise GeometryError("mirror_angle must lie in (0, pi/2)")

    def regime_warnings(self) -> list[str]:
        """Soft checks of the thin-slit / far-field regime assumptions."""
        out = []
        if self.slit_width >= self.slit_separation / 10:
            out.append(
                "slit_width is not small compared to slit_separation; "
                "point-source slit model is questionable"
            )
        if self.slit_separation >= self.screen_distance / 100:
            out.append(
                "slit_separation is not small compared to screen_distance; "
                "far-field fringe formulas degrade"
            )
        return out

    def slits(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of slit 1 (+d/2) and slit 2 (-d/2) on the diaphragm."""
        half = self.slit_separation / 2
        return point(half, 0.0), point(-half, 0.0)


@dataclass(frozen=True)
class DetectorLayouts:
    """Detector aperture centres and edges, re-aimed for each of an array
    of mirror positions.

    Row i belongs to the mirror centred at ``centers[i]``; the second axis
    of the other arrays is the detector, so ``right[i, 1]`` is detector 2's
    right aperture edge.  Edges are labelled left/right looking along the
    arriving central ray (left = counterclockwise perpendicular of the
    propagation direction).
    """

    centers: np.ndarray  # (n, 2)
    directions: np.ndarray  # (n, 2, 2) central reflected ray of slit 1 and 2
    detectors: np.ndarray  # (n, 2, 2) aperture centres
    left: np.ndarray  # (n, 2, 2)
    right: np.ndarray  # (n, 2, 2)
    arm1: float
    arm2: float


def path_lengths(app: Apparatus, x) -> tuple:
    """Exact distances from each slit to the mirror center at (x, L).

    Floats for a scalar x, arrays for an array of positions.
    """
    xs = _positions(x)
    half = app.slit_separation / 2
    d1 = np.hypot(xs - half, app.screen_distance)
    d2 = np.hypot(xs + half, app.screen_distance)
    if xs.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


def mirror_axes(app: Apparatus) -> tuple[np.ndarray, np.ndarray]:
    """Unit vector along the mirror toward its +x end, and the unit normal
    facing the diaphragm.

    The mirror line makes ``mirror_angle`` with the screen line; the +x end
    dips toward the diaphragm, so the surface normal sends central reflected
    rays off to the -x side, well away from the diaphragm plane.
    """
    theta = app.mirror_angle
    along = np.array([math.cos(theta), -math.sin(theta)])
    normal = np.array([-math.sin(theta), -math.cos(theta)])
    return along, normal


def mirror_frame(app: Apparatus, centers, points) -> tuple[np.ndarray, np.ndarray]:
    """(along, height) coordinates of points about mirror centres; both
    arrays of shape (..., 2), broadcast against each other.

    ``along`` runs along ``mirror_axes`` toward the mirror's +x end and
    ``height`` along its normal, so the diaphragm side has positive height.
    In this frame the mirror image of a point (the image-source method: a
    flat mirror makes reflected rays look as if they come from the source's
    image) is the point with its height negated.
    """
    along, normal = mirror_axes(app)
    rel = np.asarray(points) - centers
    return rel @ along, rel @ normal


def project_from_image(t_img, h_img, t, h):
    """Along-coordinate at which the line from the image (t_img, h_img)
    through the point (t, h), both in ``mirror_frame`` coordinates, crosses
    the mirror line.  The two points must lie at different heights."""
    return t_img + (t - t_img) * h_img / (h_img - h)


def incidence_angles(app: Apparatus, x) -> tuple:
    """Signed angles at the mirror center between the normal and each slit ray.

    Positive when the slit lies on the counterclockwise side of the normal;
    gamma1 (slit at +d/2) exceeds gamma2 for every x.  Floats for a scalar
    x, arrays for an array of positions.
    """
    xs = _positions(x)
    half = app.slit_separation / 2
    _, (n0, n1) = mirror_axes(app)
    vy = -app.screen_distance
    g1, g2 = (
        np.arctan2(n0 * vy - n1 * vx, n0 * vx + n1 * vy) for vx in (half - xs, -half - xs)
    )
    if xs.ndim == 0:
        return float(g1), float(g2)
    return g1, g2


def detector_layouts(app: Apparatus, xs) -> DetectorLayouts:
    """Build both detectors for the mirror placed at each position in ``xs``.

    Detector i sits at distance arm_i from the mirror center along the
    reflection of the central ray from slit i; its aperture is a segment of
    width ``aperture`` perpendicular to that ray.  Raises
    DiaphragmClearanceError if a central reflected ray crosses the diaphragm
    plane y = 0 within 10 slit separations of the axis, and
    GrazingIncidenceError if a slit lies on the mirror line; the error
    reported is that of the first failing position, and at one position
    grazing incidence comes before clearance and slit 1 before slit 2.
    """
    xs = np.atleast_1d(_positions(xs))
    _, normal = mirror_axes(app)
    length = app.screen_distance
    centers = np.stack([xs, np.full_like(xs, length)], axis=-1)
    half_d = app.slit_separation / 2
    # unit incident directions slit -> mirror centre; axis 1 is the slit
    incident = centers[:, None, :] - np.array([[half_d, 0.0], [-half_d, 0.0]])
    incident /= np.sqrt(np.sum(incident * incident, axis=-1, keepdims=True))
    vn = incident @ normal
    directions = incident - 2.0 * vn[..., None] * normal
    # the rays start on y = L > 0, so they reach y = 0 only when heading down
    dy = directions[..., 1]
    down = dy < 0
    x_hit = xs[:, None] - length * directions[..., 0] / np.where(down, dy, -1.0)
    grazing = np.abs(vn) < 1e-9
    blocked = down & (np.abs(x_hit) < 10 * app.slit_separation)
    if grazing.any() or blocked.any():
        i = np.flatnonzero(grazing.any(axis=1) | blocked.any(axis=1))[0]
        if grazing[i].any():
            raise GrazingIncidenceError("incident ray is parallel to the mirror surface")
        x_bad = x_hit[i, np.argmax(blocked[i])]
        raise DiaphragmClearanceError(
            f"reflected central ray re-enters the diaphragm at x={x_bad:.3g}"
        )
    detectors = centers[:, None, :] + np.array([[app.arm1], [app.arm2]]) * directions
    # half the aperture along each ray's counterclockwise perpendicular
    offset = (app.aperture / 2) * directions[..., ::-1] * np.array([-1.0, 1.0])
    return DetectorLayouts(
        centers=centers,
        directions=directions,
        detectors=detectors,
        left=detectors + offset,
        right=detectors - offset,
        arm1=app.arm1,
        arm2=app.arm2,
    )


def detector_separation(app: Apparatus, x: float) -> tuple[float, float]:
    """Exact |D1 - D2| plus the small-angle estimate arm * (gamma1 - gamma2).

    The estimate assumes equal arms; with unequal arms the mean arm length
    is used, and the exact value remains authoritative.
    """
    d1, d2 = detector_layouts(app, x).detectors[0]
    exact = float(np.linalg.norm(d1 - d2))
    g1, g2 = incidence_angles(app, x)
    approx = 0.5 * (app.arm1 + app.arm2) * (g1 - g2)
    return exact, approx


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
    centers = np.stack([xs, np.full_like(xs, app.screen_distance)], axis=-1)
    # axis 1: slits, left edges, right edges; axis 2: slit or detector
    points = np.broadcast_arrays(np.array(app.slits()), layouts.left, layouts.right)
    t, h = mirror_frame(app, centers[:, None, None, :], np.stack(points, axis=1))
    # below, axis 1 is the slit and axis 2 the detector
    t_img, h_img = t[:, 0, :, None], -h[:, 0, :, None]
    ta, ha, tb, hb = t[:, None, 1], h[:, None, 1], t[:, None, 2], h[:, None, 2]
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
    ua = project_from_image(t_img, h_img, ta, np.where(empty, 0.0, ha))
    ub = project_from_image(t_img, h_img, tb, np.where(empty, 0.0, hb))
    half = app.mirror_width / 2
    # an empty interval starts at the mirror's upper end, so has no length
    lo = np.where(empty, half, np.maximum(np.minimum(ua, ub), -half))
    hi = np.minimum(np.maximum(ua, ub), half)
    f = np.maximum(hi - lo, 0.0)
    # rays that cross both apertures count at detector 1 only
    f[..., 1] -= np.maximum(hi.min(axis=-1) - lo.max(axis=-1), 0.0)
    return f / app.mirror_width
