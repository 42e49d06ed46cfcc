"""Per-photon ray tracing: the reference the closed-form routing is checked
against.

``montecarlo`` routes photons through mirror intervals found from the
slits' mirror images.  This module does the same job the direct way, one
reflected ray per photon intersected with both aperture segments, so the
tests can compare the two.
"""

from __future__ import annotations

import numpy as np

from mirrorslit import geometry
from mirrorslit.geometry import Apparatus, DetectorLayout
from mirrorslit.montecarlo import _acceptance_rate
from mirrorslit.wavemodel import OutcomeHypothesis, hypothesis_visibility


def route_rays(
    origins: np.ndarray, directions: np.ndarray, layout: DetectorLayout
) -> np.ndarray:
    """Vectorized ray vs aperture-segment intersection.

    Returns the detector index (1 or 2) crossed by each ray, 0 for neither.
    A ray crossing both apertures counts at detector 1.
    """
    hit = np.zeros(len(origins), dtype=np.int64)
    for idx, (left, right) in (
        (1, (layout.d1_left, layout.d1_right)),
        (2, (layout.d2_left, layout.d2_right)),
    ):
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
    layout: DetectorLayout | None = None,
) -> tuple[int, int, bool]:
    """Simulate one photon at scan position x.

    Returns (detector, slit, misdetected) where detector is 1, 2, or 0 when
    the photon is not detected (rejected by the fringe rate, or its
    reflected ray misses both apertures).
    """
    if layout is None:
        layout = geometry.detector_layout(app, x)
    slit = 1 if rng.random() < 0.5 else 2
    v = hypothesis_visibility(hyp)
    if rng.random() >= _acceptance_rate(app, x, v):
        return 0, slit, False
    pl = geometry.mirror_placement(app, x)
    p = pl.end_low + rng.random() * (pl.end_high - pl.end_low)
    source = app.slits()[slit - 1]
    direction = geometry.reflect_direction(geometry.unit(p - source), pl.normal)
    detector = int(route_rays(p[None, :], direction[None, :], layout)[0])
    misdetected = detector != 0 and detector != slit
    return detector, slit, misdetected


def _trace(
    pl: geometry.MirrorPlacement,
    sources: np.ndarray,
    mirror_frac: np.ndarray,
    layout: DetectorLayout,
) -> np.ndarray:
    """Detector (1, 2, or 0 for neither) reached by the ray from each source
    reflected at the mirror point a fraction ``mirror_frac`` along the mirror
    from ``end_low``."""
    points = pl.end_low[None, :] + mirror_frac[:, None] * (pl.end_high - pl.end_low)
    incident = points - sources
    incident /= np.linalg.norm(incident, axis=1, keepdims=True)
    n = pl.normal
    directions = incident - 2.0 * (incident @ n)[:, None] * n[None, :]
    return route_rays(points, directions, layout)


def traced_fractions(
    app: Apparatus,
    x: float,
    layout: DetectorLayout,
    n_rays: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ray-traced estimate of ``montecarlo.routing_fractions``.

    For each slit, ``n_rays`` mirror points are drawn uniformly along the
    mirror; ``f[s - 1, d - 1]`` is the share of them whose reflected ray
    crosses detector d's aperture.
    """
    pl = geometry.mirror_placement(app, x)
    f = np.zeros((2, 2))
    for i, source in enumerate(app.slits()):
        hits = _trace(pl, source[None, :], rng.random(n_rays), layout)
        f[i] = np.mean(hits == 1), np.mean(hits == 2)
    return f


def traced_position(
    app: Apparatus,
    x: float,
    n_photons: int,
    v: float,
    rng: np.random.Generator,
    layout: DetectorLayout,
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
    hits = _trace(geometry.mirror_placement(app, x), sources, mirror_frac[accept], layout)
    n1 = int(np.sum(hits == 1))
    n2 = int(np.sum(hits == 2))
    mis = int(np.sum((hits != 0) & (hits != slits)))
    return n1, n2, mis
