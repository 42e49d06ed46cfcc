"""2D geometry of the mirror-on-screen two-slit apparatus.

Coordinate frame: the diaphragm lies on y = 0 with slits at (+d/2, 0) and
(-d/2, 0); the screen line is y = L.  The scanning mirror is centered at
(x, L) and tilted at ``mirror_angle`` to the screen line, so single photons
arriving from either slit are reflected sideways onto two separated
detectors.  All functions here are pure and operate on exact coordinates;
small-angle approximations are offered only as explicitly labelled
cross-check outputs.

An ``Apparatus`` whose fields are equal-length 1-D arrays is a *batch* of
candidate apparatus (a scalar field is shared by every candidate).  The
layout, mirror-frame and routing kernels broadcast over a batch.

Every array here is positions-last: the coordinate, slit and detector axes
first, then a batch's candidate axis, then the positions, so numpy loops run
along the positions, not over axes of length 2.
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


# slit 1 at (+d/2, 0) and slit 2 at (-d/2, 0), in units of d/2: x, then y
_SLITS = np.array([[1.0, -1.0], [0.0, 0.0]])


def _inside(value, hi: float, shapes: set) -> bool:
    """0 < value < hi for a float, or for every entry of a batch field,
    whose shape joins ``shapes``."""
    if isinstance(value, np.ndarray):
        shapes.add(value.shape)
        return bool(np.all((0.0 < value) & (value < hi)))
    return 0.0 < value < hi


def _batched(value):
    """A field that broadcasts along the positions: a batch field as a
    (c, 1) column, a scalar as it is."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _dot(a, b):
    """Dot product over axis 0 (length 2) of arrays or (x, y) pairs."""
    return a[0] * b[0] + a[1] * b[1]


def _positions(x) -> np.ndarray:
    """Scan position(s) as a float array, rejecting non-finite values."""
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        bad = xs[~np.isfinite(xs)].tolist()
        raise GeometryError(f"non-finite coordinates: {', '.join(map(str, bad))}")
    return xs


@dataclass(frozen=True)
class Apparatus:
    """Physical parameters of the setup, all in SI units (meters, radians).

    ``arm1``/``arm2`` are the reflected-path lengths from the mirror center
    to detectors 1 and 2; ``aperture`` is the detector aperture width.  In
    a batch, each field is a float or a 1-D array of the common length.
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
        shapes = set()
        for name, value in vars(self).items():
            if name != "mirror_angle" and not _inside(value, math.inf, shapes):
                raise GeometryError(f"{name} must be strictly positive, got {value}")
        if not _inside(self.mirror_angle, math.pi / 2, shapes):
            raise GeometryError(
                f"apparatus.mirror_angle must lie in (0, pi/2), got {self.mirror_angle}"
            )
        if shapes and (len(shapes) > 1 or len(shapes.pop()) != 1):
            raise GeometryError("batch fields must be 1-D arrays of one length")

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


def _slit_points(app: Apparatus, ndim: int) -> np.ndarray:
    """Both slits positions-last: the coordinate on axis 0 and the slit on
    axis 1, then ``ndim`` axes that broadcast against those of the mirror
    centres, a batch's candidate axis next to last."""
    return _SLITS.reshape((2, 2) + (1,) * ndim) * _batched(app.slit_separation / 2)


def _centers(app: Apparatus, xs) -> np.ndarray:
    """Mirror centres (x, L) at finite positions xs, positions-last: shape
    (2,) + 1-D xs.shape for one apparatus, (2, c, len(xs)) for a batch of c,
    whichever of its fields are arrays, or (2, c, k) for k per candidate."""
    xs = np.atleast_1d(_positions(xs))
    batch = [v.shape + (1,) for v in vars(app).values() if isinstance(v, np.ndarray)]
    centers = np.empty((2,) + np.broadcast_shapes(xs.shape, *batch))
    centers[0] = xs
    centers[1] = _batched(app.screen_distance)
    return centers


@dataclass(frozen=True)
class DetectorLayouts:
    """Detector aperture centres and edges, re-aimed for each of an array
    of mirror positions.

    Position i is the last index: the mirror centred at ``centers[:, i]``,
    and ``right[:, 1, i]`` is detector 2's right aperture edge there.  Edges
    are labelled left/right looking along the arriving central ray (left =
    counterclockwise perpendicular of the propagation direction).  For a
    batch of apparatus every array gains a candidate axis just before the
    positions.

    ``grazing`` marks, per slit and position, a slit lying on the mirror
    line; ``blocked`` a central reflected ray that crosses the diaphragm
    plane y = 0 within 10 slit separations of the axis, at ``x_hit``.
    """

    centers: np.ndarray  # (2, ..., n): coordinate, position
    directions: np.ndarray  # (2, slit, ..., n) central reflected rays
    detectors: np.ndarray  # (2, detector, ..., n) aperture centres
    left: np.ndarray  # (2, detector, ..., n)
    right: np.ndarray  # (2, detector, ..., n)
    grazing: np.ndarray  # (slit, ..., n)
    blocked: np.ndarray  # (slit, ..., n)
    x_hit: np.ndarray  # (slit, ..., n), meaningful where blocked

    def at(self, positions: slice) -> DetectorLayouts:
        """The layouts at a slice of the positions, as views of these arrays."""
        return DetectorLayouts(*(a[..., positions] for a in vars(self).values()))

    def failed(self) -> np.ndarray:
        """Per position: does either slit graze the mirror or either ray
        re-enter the diaphragm?"""
        return (self.grazing | self.blocked).any(axis=0)

    def raise_first_failure(self) -> None:
        """Raise the error of the first failing position, candidates in
        order, if any: GrazingIncidenceError if a slit lies on the mirror
        line there, else DiaphragmClearanceError.  At one position grazing
        incidence comes before clearance and slit 1 before slit 2."""
        failed = self.failed().ravel()
        if not failed.any():
            return
        i = np.argmax(failed)
        if self.grazing.reshape(2, -1)[:, i].any():
            raise GrazingIncidenceError("incident ray is parallel to the mirror surface")
        x_bad = self.x_hit.reshape(2, -1)[np.argmax(self.blocked.reshape(2, -1)[:, i]), i]
        raise DiaphragmClearanceError(
            f"reflected central ray re-enters the diaphragm at x={x_bad:.3g}"
        )


def path_lengths(app: Apparatus, x) -> tuple:
    """Exact distances from each slit to the mirror center at (x, L).

    Numpy floats for a scalar x, arrays for an array of positions.
    """
    xs = _positions(x)
    half = app.slit_separation / 2
    return np.hypot(xs - half, app.screen_distance), np.hypot(xs + half, app.screen_distance)


def _axes(theta):
    """The (x, y) components of the unit vector along the mirror toward its
    +x end, cos X - sin Y, and of the unit normal facing the diaphragm,
    -sin X - cos Y, at mirror angle(s) theta; their products with 0 and 1
    and sums with 0 round nothing.

    The mirror line makes ``mirror_angle`` with the screen line; the +x end
    dips toward the diaphragm, so the surface normal sends central reflected
    rays off to the -x side, well away from the diaphragm plane.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    return (cos, -sin), (-sin, -cos)


def mirror_frame(app: Apparatus, centers, points) -> tuple[np.ndarray, np.ndarray]:
    """(along, height) coordinates of points about mirror centres, both
    arrays positions-last: ``centers`` and ``points`` have the coordinate
    on axis 0, broadcast against each other, and a batch's candidate axis
    next to last.

    ``along`` runs along the mirror (``_axes``) toward its +x end and
    ``height`` along its normal, so the diaphragm side has positive height.
    In this frame the mirror image of a point (the image-source method: a
    flat mirror makes reflected rays look as if they come from the source's
    image) is the point with its height negated.
    """
    rel = np.asarray(points) - centers
    along, normal = _axes(_batched(app.mirror_angle))
    return _dot(rel, along), _dot(rel, normal)


def project_from_image(t_img, h_img, t, h):
    """Along-coordinate at which the line from the image (t_img, h_img)
    through the point (t, h), both in ``mirror_frame`` coordinates, crosses
    the mirror line.  The two points must lie at different heights."""
    return t_img + (t - t_img) * h_img / (h_img - h)


def incidence_angles(app: Apparatus, x) -> tuple:
    """Signed angles at the mirror center between the normal and each slit ray.

    Positive when the slit lies on the counterclockwise side of the normal;
    gamma1 (slit at +d/2) exceeds gamma2 for every x.  Numpy floats for a
    scalar x, arrays for an array of positions.
    """
    xs = _positions(x)
    half = app.slit_separation / 2
    _, (n0, n1) = _axes(app.mirror_angle)
    vy = -app.screen_distance
    return tuple(
        np.arctan2(n0 * vy - n1 * vx, n0 * vx + n1 * vy) for vx in (half - xs, -half - xs)
    )


def aim_detectors(app: Apparatus, xs) -> DetectorLayouts:
    """Both detectors for the mirror placed at each position in ``xs``,
    with failures marked rather than raised.

    Detector i sits at distance arm_i from the mirror center along the
    reflection of the central ray from slit i; its aperture is a segment of
    width ``aperture`` perpendicular to that ray.  For a batch, ``xs`` is
    shared by every candidate, or has shape (c, k) for k positions each.
    """
    centers = _centers(app, xs)
    # unit incident directions slit -> mirror centre, reflected in place
    # below; axis 0 is the coordinate and axis 1 the slit
    directions = centers[:, None] - _slit_points(app, centers.ndim - 1)
    directions /= np.sqrt(_dot(directions, directions))
    _, normal = _axes(_batched(app.mirror_angle))
    vn = _dot(directions, normal)
    for k in (0, 1):
        directions[k] -= 2.0 * vn * normal[k]
    # the rays start on y = L > 0, so they reach y = 0 only when heading down
    dx, dy = directions
    down = dy < 0
    x_hit = centers[0] - centers[1] * dx / np.where(down, dy, -1.0)
    detectors = np.empty_like(directions)
    for slit, arm in enumerate((app.arm1, app.arm2)):
        detectors[:, slit] = centers + _batched(arm) * directions[:, slit]
    # half the aperture along each ray's counterclockwise perpendicular
    offset = _batched(app.aperture / 2) * directions[::-1]
    offset[0] *= -1.0
    blocked = down & (np.abs(x_hit) < 10 * _batched(app.slit_separation))
    return DetectorLayouts(
        centers, directions, detectors, detectors + offset, detectors - offset,
        np.abs(vn) < 1e-9, blocked, x_hit,
    )


def detector_layouts(app: Apparatus, xs) -> DetectorLayouts:
    """``aim_detectors``, raising the first failure: DiaphragmClearanceError
    if a central reflected ray crosses the diaphragm plane y = 0 within 10
    slit separations of the axis, and GrazingIncidenceError if a slit lies
    on the mirror line; the error reported is that of the first failing
    position, and at one position grazing incidence comes before clearance
    and slit 1 before slit 2.
    """
    layouts = aim_detectors(app, xs)
    layouts.raise_first_failure()
    return layouts


def separations(layouts: DetectorLayouts, row: int = 0) -> np.ndarray:
    """Exact |D1 - D2| at position ``row`` of ``layouts``, per candidate for
    a batch, NaN where the layout there fails.  A (1, 2) @ (2, 1) product
    on a C-contiguous (..., 2) difference takes the BLAS dot of one vector,
    so a batch and a single apparatus agree to the last bit."""
    detectors = layouts.detectors[..., row]
    d = np.subtract(detectors[:, 0].T, detectors[:, 1].T, order="C")
    exact = np.sqrt((d[..., None, :] @ d[..., None])[..., 0, 0])
    return np.where(layouts.failed()[..., row], np.nan, exact)


def detector_separation(app: Apparatus, x: float) -> tuple[float, float]:
    """Exact |D1 - D2| plus the small-angle estimate arm * (gamma1 - gamma2).

    The estimate assumes equal arms; with unequal arms the mean arm length
    is used, and the exact value remains authoritative.
    """
    exact = float(separations(detector_layouts(app, x)))
    g1, g2 = incidence_angles(app, x)
    approx = 0.5 * (app.arm1 + app.arm2) * (g1 - g2)
    return exact, approx


def mirror_footprint(app: Apparatus, xs) -> np.ndarray:
    """Footprint of the mirror on the screen line at each scan position:
    the span between the projections of the two mirror endpoints onto
    y = L, each along its illuminating ray (slit 1 for the high end, slit 2
    for the low end).  For a batch the candidate axis leads."""
    (cx, cy), ((ax, ay), _) = _centers(app, xs), _axes(_batched(app.mirror_angle))
    half, slit = _batched(app.mirror_width / 2), _batched(app.slit_separation / 2)
    feet = []
    for sign in _SLITS[0]:  # (high end, slit 1) and (low end, slit 2)
        end, source = half * sign, slit * sign
        # the ray from the slit (source, 0) through the mirror end, to y = L
        feet.append(source + cy / (cy + end * ay) * (cx + end * ax - source))
    return np.abs(feet[0] - feet[1])


def _projected_segment(t_img, h_img, ta, ha, tb, hb):
    """Ends (ua, ub) on the mirror line of the aperture segment a-b
    projected from the image, keeping only the part on the reflecting side,
    and whether no part is; all in ``mirror_frame`` coordinates."""
    # an edge is off the reflecting side when its height has the image's
    # sign; the segment then counts only up to where it crosses the mirror
    a_off, b_off = ha * h_img >= 0.0, hb * h_img >= 0.0
    empty = a_off & b_off
    cut = a_off != b_off
    t_cross = ta + ha / np.where(cut, ha - hb, 1.0) * (tb - ta)
    # stand-in heights keep the unused projections of empty intervals finite
    h_img = np.where(empty, 1.0, h_img)

    def project(t, h, off):
        clip = cut & off
        t, h = np.where(clip, t_cross, t), np.where(clip | empty, 0.0, h)
        return project_from_image(t_img, h_img, t, h)

    return project(ta, ha, a_off), project(tb, hb, b_off), empty


def routing_fractions(app: Apparatus, xs, layouts: DetectorLayouts) -> np.ndarray:
    """Share of the mirror length that routes each slit into each detector.

    ``f[s - 1, d - 1, i]`` is the fraction of mirror points, uniform along
    the mirror at scan position ``xs[i]``, whose reflection of a ray from
    slit s crosses the aperture of detector d, with the detectors of
    ``layouts`` at position i; a one-position layout serves every position.
    For a batch the candidate axis comes just before the positions.  A flat
    mirror reflects slit s as its mirror image s' = s - 2((s - c).n) n (the
    image-source method), so each (slit, detector) pair is hit from one
    interval of the mirror.  A reflected ray runs on the line from the image
    through the mirror point, beyond it, so it can only reach the part of
    the aperture segment on the side of the mirror line opposite the image;
    that part, projected from the image onto the mirror line and clipped to
    the mirror, is the interval.  A ray that crosses both apertures counts
    at detector 1.
    """
    centers = _centers(app, xs)[:, None]
    # below, axis 0 is the slit and axis 1 the detector
    t_img, h_img = mirror_frame(app, centers, _slit_points(app, centers.ndim - 2))
    ta, ha = mirror_frame(app, centers, layouts.left)
    tb, hb = mirror_frame(app, centers, layouts.right)
    ua, ub, empty = _projected_segment(
        t_img[:, None], -h_img[:, None], ta[None], ha[None], tb[None], hb[None]
    )
    width = _batched(app.mirror_width)
    half = width / 2
    # an empty interval starts at the mirror's upper end, so has no length
    lo = np.where(empty, half, np.maximum(np.minimum(ua, ub), -half))
    hi = np.minimum(np.maximum(ua, ub), half)
    f = np.maximum(hi - lo, 0.0)
    # rays that cross both apertures count at detector 1 only
    f[:, 1] -= np.maximum(hi.min(axis=1) - lo.max(axis=1), 0.0)
    return f / width


def grazing_half_widths(app: Apparatus, layouts: DetectorLayouts) -> np.ndarray:
    """Both grazing limits from layouts aimed at two probes per apparatus,
    slit 1's at the first and slit 2's at the second: shape (..., 2).  A
    limit is the mirror half-width at which the slit's ray, reflected at the
    probe end of the mirror (high for slit 1, low for slit 2), grazes the
    other detector's near aperture edge (detector 2's right, detector 1's
    left): the image-source ray lies on the line from the slit's image
    through that edge, and the probe end is where that line crosses the
    mirror line."""
    centers = layouts.centers
    # axis 1 holds the slit, then the edge its ray grazes; at probe p (the
    # last axis) the slit is slit p
    points = np.empty((2, 2) + centers.shape[1:])
    slits = _SLITS.reshape((2,) + (1,) * (centers.ndim - 2) + (2,))
    points[:, 0] = slits * _batched(app.slit_separation / 2)
    points[:, 1, ..., 0] = layouts.right[:, 1, ..., 0]
    points[:, 1, ..., 1] = layouts.left[:, 0, ..., 1]
    t, h = mirror_frame(app, centers[:, None], points)
    return project_from_image(t[0], -h[0], t[1], h[1]) * [1, -1]
