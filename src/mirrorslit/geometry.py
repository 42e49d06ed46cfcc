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
    p = np.array([float(x), float(y)])
    if not np.all(np.isfinite(p)):
        raise GeometryError(f"non-finite coordinates: {p}")
    return p


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
        if abs(np.linalg.norm(self.direction) - 1.0) > _UNIT_TOL:
            raise GeometryError("ray direction must be a unit vector")

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


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


def path_lengths(app: Apparatus, x: float) -> tuple[float, float]:
    """Exact distances from each slit to the mirror center at (x, L)."""
    s1, s2 = app.slits()
    m0 = point(x, app.screen_distance)
    return float(np.linalg.norm(m0 - s1)), float(np.linalg.norm(m0 - s2))


def arrival_times(app: Apparatus, x: float) -> tuple[float, float]:
    """Photon flight times slit -> mirror center -> detector, in seconds."""
    d1, d2 = path_lengths(app, x)
    return (d1 + app.arm1) / SPEED_OF_LIGHT, (d2 + app.arm2) / SPEED_OF_LIGHT


def mirror_placement(app: Apparatus, x: float) -> MirrorPlacement:
    """Place the mirror centered at (x, L).

    The mirror line makes ``mirror_angle`` with the screen line; the +x end
    dips toward the diaphragm, so the surface normal (chosen facing the
    diaphragm) sends central reflected rays off to the -x side, well away
    from the diaphragm plane.
    """
    theta = app.mirror_angle
    along = np.array([math.cos(theta), -math.sin(theta)])
    normal = np.array([-math.sin(theta), -math.cos(theta)])
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


def reflect(incident: Ray2, at: np.ndarray, normal: np.ndarray) -> Ray2:
    """Reflect an incident ray at a surface point with the given unit normal."""
    return Ray2(origin=at, direction=reflect_direction(incident.direction, normal))


def signed_angle(reference: np.ndarray, v: np.ndarray) -> float:
    """Counterclockwise-positive angle from ``reference`` to ``v``, in (-pi, pi]."""
    cross = reference[0] * v[1] - reference[1] * v[0]
    return math.atan2(cross, float(np.dot(reference, v)))


def incidence_angles(app: Apparatus, x: float) -> tuple[float, float]:
    """Signed angles at the mirror center between the normal and each slit ray.

    Positive when the slit lies on the counterclockwise side of the normal;
    gamma1 (slit at +d/2) exceeds gamma2 for every x.
    """
    pl = mirror_placement(app, x)
    s1, s2 = app.slits()
    g1 = signed_angle(pl.normal, unit(s1 - pl.center))
    g2 = signed_angle(pl.normal, unit(s2 - pl.center))
    return g1, g2


def _left_perpendicular(direction: np.ndarray) -> np.ndarray:
    return np.array([-direction[1], direction[0]])


def detector_layout(app: Apparatus, x_ref: float) -> DetectorLayout:
    """Build both detectors for the mirror placed at ``x_ref``.

    Detector i sits at distance arm_i from the mirror center along the
    reflection of the central ray from slit i; its aperture is a segment of
    width ``aperture`` perpendicular to that ray.  Raises
    DiaphragmClearanceError if a central reflected ray crosses the diaphragm
    plane y = 0 within 10 slit separations of the axis.
    """
    pl = mirror_placement(app, x_ref)
    s1, s2 = app.slits()
    rays = []
    for s in (s1, s2):
        incident = Ray2(origin=s, direction=unit(pl.center - s))
        rays.append(reflect(incident, pl.center, pl.normal))
    for ray in rays:
        if ray.direction[1] < 0:
            t = (0.0 - ray.origin[1]) / ray.direction[1]
            x_hit = ray.origin[0] + t * ray.direction[0]
            if t > 0 and abs(x_hit) < 10 * app.slit_separation:
                raise DiaphragmClearanceError(
                    f"reflected central ray re-enters the diaphragm at x={x_hit:.3g}"
                )
    ray1, ray2 = rays
    d1 = ray1.at(app.arm1)
    d2 = ray2.at(app.arm2)
    left1 = _left_perpendicular(ray1.direction)
    left2 = _left_perpendicular(ray2.direction)
    half = app.aperture / 2
    return DetectorLayout(
        d1=d1,
        d2=d2,
        d1_left=d1 + half * left1,
        d1_right=d1 - half * left1,
        d2_left=d2 + half * left2,
        d2_right=d2 - half * left2,
        arm1=app.arm1,
        arm2=app.arm2,
        ray1=ray1,
        ray2=ray2,
    )


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
    s1, s2 = app.slits()
    n = pl.normal
    a1 = abs(signed_angle(n, unit(s1 - p)))
    a2 = abs(signed_angle(n, unit(layout.d2_right - p)))
    delta1 = a1 - a2
    b1 = abs(signed_angle(n, unit(s2 - p)))
    b2 = abs(signed_angle(n, unit(layout.d1_left - p)))
    delta2 = b1 - b2
    return delta1, delta2
