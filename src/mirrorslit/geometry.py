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

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_UNIT_TOL = 1e-12


class GeometryError(ValueError):
    """Base class for geometric configuration errors."""


class GrazingIncidenceError(GeometryError):
    """Incident ray is (numerically) parallel to the mirror surface."""


class DiaphragmClearanceError(GeometryError):
    """A reflected central ray re-intersects the diaphragm plane."""


class OffMirrorError(GeometryError):
    """Probe point does not lie on the mirror segment."""


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


def unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise GeometryError("cannot normalize zero vector")
    return v / n


@dataclass(frozen=True)
class Ray2:
    """A ray with unit direction; carrier for slit-to-mirror and reflected paths."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        if abs(math.hypot(*self.direction) - 1.0) > _UNIT_TOL:
            raise GeometryError("ray direction must be a unit vector")


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


@dataclass(frozen=True)
class DetectorLayout:
    """Detector aperture centers and endpoints for a reference mirror position.

    Edge points are labelled left/right looking along the arriving central
    ray (left = counterclockwise perpendicular of the propagation direction).
    """

    d1: np.ndarray
    d2: np.ndarray
    d1_left: np.ndarray
    d1_right: np.ndarray
    d2_left: np.ndarray
    d2_right: np.ndarray
    arm1: float
    arm2: float
    ray1: Ray2  # central reflected ray toward detector 1
    ray2: Ray2


@dataclass(frozen=True)
class DetectorLayouts:
    """Re-aimed detector layouts for an array of mirror positions.

    Row i belongs to the mirror centred at ``centers[i]``; the second axis
    of the other arrays is the detector, so ``right[i, 1]`` is detector 2's
    right aperture edge.  Left/right as in ``DetectorLayout``.
    """

    centers: np.ndarray  # (n, 2)
    directions: np.ndarray  # (n, 2, 2) central reflected ray of slit 1 and 2
    detectors: np.ndarray  # (n, 2, 2) aperture centres
    left: np.ndarray  # (n, 2, 2)
    right: np.ndarray  # (n, 2, 2)
    arm1: float
    arm2: float

    def row(self, i: int) -> DetectorLayout:
        """The layout for position i."""
        (d1, d2), (l1, l2), (r1, r2) = self.detectors[i], self.left[i], self.right[i]
        center, (dir1, dir2) = self.centers[i], self.directions[i]
        return DetectorLayout(
            d1=d1,
            d2=d2,
            d1_left=l1,
            d1_right=r1,
            d2_left=l2,
            d2_right=r2,
            arm1=self.arm1,
            arm2=self.arm2,
            ray1=Ray2(origin=center, direction=dir1),
            ray2=Ray2(origin=center, direction=dir2),
        )


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


def arrival_times(app: Apparatus, x: float) -> tuple[float, float]:
    """Photon flight times slit -> mirror center -> detector, in seconds."""
    d1, d2 = path_lengths(app, x)
    return (d1 + app.arm1) / SPEED_OF_LIGHT, (d2 + app.arm2) / SPEED_OF_LIGHT


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


def mirror_frame(pl: MirrorPlacement, points) -> list[tuple[float, float]]:
    """(along, height) coordinates of points about the mirror centre.

    ``along`` runs toward ``end_high`` and ``height`` along the normal, so
    the diaphragm side has positive height.  In this frame the mirror image
    of a point (the image-source method: a flat mirror makes reflected rays
    look as if they come from the source's image) is the point with its
    height negated.
    """
    rel = np.asarray(points) - pl.center
    return list(zip((rel @ pl.along).tolist(), (rel @ pl.normal).tolist()))


def project_from_image(image: tuple[float, float], p: tuple[float, float]) -> float:
    """Along-coordinate at which the line from ``image`` through ``p``, both
    in ``mirror_frame`` coordinates, crosses the mirror line.  The two points
    must lie at different heights."""
    t_img, h_img = image
    t, h = p
    return t_img + (t - t_img) * h_img / (h_img - h)


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


def incidence_angles(app: Apparatus, x) -> tuple:
    """Signed angles at the mirror center between the normal and each slit ray.

    Positive when the slit lies on the counterclockwise side of the normal;
    gamma1 (slit at +d/2) exceeds gamma2 for every x.  Floats for a scalar
    x, arrays for an array of positions.
    """
    xs = _positions(x)
    _, (n0, n1) = mirror_axes(app)
    half = app.slit_separation / 2
    vy = -app.screen_distance
    angles = []
    for vx in (half - xs, -half - xs):
        angles.append(np.arctan2(n0 * vy - n1 * vx, n0 * vx + n1 * vy))
    if xs.ndim == 0:
        return float(angles[0]), float(angles[1])
    return angles[0], angles[1]


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


def detector_layout(app: Apparatus, x_ref: float) -> DetectorLayout:
    """The layout of ``detector_layouts`` for the single position ``x_ref``."""
    return detector_layouts(app, x_ref).row(0)


def detector_separation(app: Apparatus, x: float) -> tuple[float, float]:
    """Exact |D1 - D2| plus the small-angle estimate arm * (gamma1 - gamma2).

    The estimate assumes equal arms; with unequal arms the mean arm length
    is used, and the exact value remains authoritative.
    """
    layout = detector_layout(app, x)
    exact = float(np.linalg.norm(layout.d1 - layout.d2))
    g1, g2 = incidence_angles(app, x)
    approx = 0.5 * (app.arm1 + app.arm2) * (g1 - g2)
    return exact, approx


def _on_mirror(pl: MirrorPlacement, p: np.ndarray, slack: float = 1e-9) -> bool:
    rel = p - pl.center
    along = float(np.dot(rel, pl.along))
    off = abs(float(rel[0] * pl.along[1] - rel[1] * pl.along[0]))
    return off <= slack and abs(along) <= pl.half_width + slack


def clearance_margins(
    app: Apparatus, p: np.ndarray, d2_right: np.ndarray, d1_left: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``clearance_angles`` for arrays of mirror points p (shape (..., 2)),
    with the aperture edges broadcast against them."""
    _, (n0, n1) = mirror_axes(app)
    s1, s2 = app.slits()
    v = np.stack(np.broadcast_arrays(s1 - p, d2_right - p, s2 - p, d1_left - p))
    vx, vy = v[..., 0], v[..., 1]
    a = np.abs(np.arctan2(n0 * vy - n1 * vx, n0 * vx + n1 * vy))
    return a[0] - a[1], a[2] - a[3]


def clearance_angles(
    app: Apparatus,
    x: float,
    p: np.ndarray,
    layout: DetectorLayout | None = None,
) -> tuple[float, float]:
    """Angular margins against mis-detection for a mirror point p.

    delta1 compares the incidence angle of the slit-1 ray at p with the
    angle subtended by the near edge of detector 2's aperture (both measured
    from the mirror normal): delta1 > 0 means the reflected slit-1 ray
    passes beyond that edge and clears detector 2.  delta2 is the analogous
    margin for slit 2 against detector 1, safe when negative.  The detector
    layout is the reference one for the same x unless supplied.
    """
    pl = mirror_placement(app, x)
    if not _on_mirror(pl, p):
        raise OffMirrorError(f"point {p} is not on the mirror segment at x={x}")
    if layout is None:
        layout = detector_layout(app, x)
    delta1, delta2 = clearance_margins(app, p, layout.d2_right, layout.d1_left)
    return float(delta1), float(delta2)
