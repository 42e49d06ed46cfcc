"""Feasibility checks and parameter search for the mirror-scan design.

A candidate apparatus is acceptable when the scanning mirror is small
enough to resolve fringes (sampling footprint under half a period), both
reflected beams clear the diaphragm, and no mirror point can bounce a
photon from one slit into the other slit's detector over the scan range.

``solve`` (grazing limits, required width, L12 at x = 0) and ``judge`` (scan
verdicts) serve one apparatus and a batch alike; ``validate`` reports on
their results, and ``design_search`` solves blocks of draws, judges a few and
reports on one.  ``judge`` routes the layouts it is given but aims none, so
each command aims once: ``validate`` at slit 1's probe and the judged
positions, x = 0 serving both.
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
# Solution.failure: solved, slit on the mirror line, beam into the diaphragm, out of bracket
SOLVED, GRAZING, BLOCKED, UNBRACKETED = range(4)
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
    """What ``judge`` found on the layouts it was given: numpy bools for
    one apparatus, arrays over the candidates of a batch."""

    long_scan: np.ndarray  # x_max exceeds two fringe periods
    sampling_ok: np.ndarray
    diaphragm_clear: np.ndarray
    misdetection_free: np.ndarray

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
            raise DesignError(f"search.x_max must be positive, got {self.x_max}")


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
    mirror footprint on the screen line (``geometry.mirror_footprint``)
    under F_s / 2 for 0 <= x <= x0, and the worst footprint.  Both ends of
    the footprint move affinely with x, so their distance peaks at x = 0 or
    x = x0, the two positions read."""
    f_s = fringe_spacing(app)
    worst = np.max(geometry.mirror_footprint(app, [0.0, x0]), axis=-1)
    long_scan = x0 > 2.0 * f_s
    return long_scan, long_scan & (worst < f_s / 2.0), worst


@dataclass(frozen=True)
class Solution:
    """Grazing limits w1, w2 (axis -1, after a batch's candidate axis), solved with
    the detectors aimed at ``probes``.  None of it depends on the mirror width."""

    probes: np.ndarray  # the x of each slit's limit
    half_widths: np.ndarray  # w1 and w2 as solved, failed or not
    failure: np.ndarray  # SOLVED, GRAZING, BLOCKED or UNBRACKETED
    required_width: np.ndarray  # 2 min(w'/2, w1, w2), failed limits as inf
    separation: np.ndarray  # L12 = |D1 - D2| at the slit-2 probe; NaN where it fails


def _row(batch, i):
    """Row i of a batch dataclass of arrays."""
    return type(batch)(*(a[i] for a in vars(batch).values()))


def _solution(app: Apparatus, layouts: DetectorLayouts) -> Solution:
    """Both grazing limits (``geometry.grazing_half_widths``) from layouts
    aimed at two probes per apparatus, slit 1's first.  Out of [1 um, 2 mm]
    a limit fails, and the sampling width governs."""
    half_widths = geometry.grazing_half_widths(app, layouts)
    bracketed = (_HALF_WIDTH_LO <= half_widths) & (half_widths <= _HALF_WIDTH_HI)
    failure = np.where(
        layouts.failed(),
        np.where(layouts.grazing.any(axis=0), GRAZING, BLOCKED),
        np.where(bracketed, SOLVED, UNBRACKETED),
    )
    limits = np.where(failure == SOLVED, half_widths, np.inf)
    required_width = 2.0 * np.minimum(default_mirror_params(app)[0] / 2.0, limits.min(axis=-1))
    separation = geometry.separations(layouts, 1)
    return Solution(layouts.centers[0], half_widths, failure, required_width, separation)


def _probes(app: Apparatus) -> np.ndarray:
    """``solve``'s probes, per candidate of a batch: slit 1 at x = 3 F_s,
    slit 2 at x = 0."""
    f_s = fringe_spacing(app)
    xs = np.zeros(np.shape(f_s) + (2,))
    xs[..., 0] = 3.0 * f_s
    return xs


def _judged(x_max: float) -> np.ndarray:
    """The 61 positions, x = 0 first, at which ``validate`` and
    ``design_search`` aim the detectors to judge a scan over [0, x_max]."""
    return np.linspace(0.0, x_max, 61)


def solve(app: Apparatus) -> Solution:
    """The grazing limits and L12 of one apparatus, or of every candidate
    of a batch, the detectors aimed at ``_probes`` in one call.  L12 is
    read at slit 2's probe, x = 0, the one place it is computed."""
    return _solution(app, geometry.aim_detectors(app, _probes(app)))


def limiting_half_width(app: Apparatus, x: float, slit: int) -> float:
    """The slit's grazing limit, the detectors aimed at x (``_solution``); when it
    fails, raises BracketError or the error ``geometry.detector_layouts`` raises at x."""
    if slit not in (1, 2):
        raise DesignError("slit must be 1 or 2")
    i = slit - 1
    layouts = geometry.aim_detectors(app, np.array([x, x]))
    solution = _solution(app, layouts)
    if solution.failure[i] == UNBRACKETED:
        raise BracketError(
            f"grazing limit {solution.half_widths[i]:.3g} m not within [{_HALF_WIDTH_LO}, "
            f"{_HALF_WIDTH_HI}] m; width is limited by the sampling constraint instead"
        )
    if solution.failure[i] != SOLVED:
        layouts.raise_first_failure()
    return float(solution.half_widths[i])


def required_mirror_width(app: Apparatus) -> float:
    """``solve``'s required width 2 min(w'/2, w1, w2); raises as
    ``limiting_half_width`` does at ``solve``'s probes when either limit
    fails, slit 1 first."""
    solution = solve(app)
    for slit, (x, failure) in enumerate(zip(solution.probes, solution.failure), 1):
        if failure != SOLVED:
            limiting_half_width(app, x, slit)
    return float(solution.required_width)


def judge(
    app: Apparatus, x_max: float, xs, layouts: DetectorLayouts
) -> tuple[Verdicts, np.ndarray]:
    """Sampling, clearance and mis-detection verdicts for a scan over
    [0, x_max], of one apparatus or of every candidate of a batch, on the
    layouts its caller aimed, and the routing fractions they were judged on.

    Sampling follows ``_sampling``'s rule.  The beams clear the diaphragm
    when no layout of ``layouts`` fails.  Mis-detection is judged from the
    exact routing (``geometry.routing_fractions``) of the mirror at ``xs``
    into those layouts: no position may send either slit into the other
    slit's detector, f12 = f21 = 0.
    """
    long_scan, sampling_ok, _ = _sampling(app, x_max)
    clear = ~layouts.failed().any(axis=-1)
    fractions = geometry.routing_fractions(app, xs, layouts)
    misdetection_free = clear & ~fractions[[0, 1], [1, 0]].any(axis=(0, -1))
    return Verdicts(long_scan, sampling_ok, clear, misdetection_free), fractions


def _report(app: Apparatus, x_max: float, solution, verdicts, layouts) -> DesignReport:
    """One apparatus's report, warnings included, from its ``solve`` and ``judge``
    results; the judged layouts are read only where the beams do not clear the
    diaphragm.  A limit that failed on grazing incidence raises as
    ``limiting_half_width`` does at its probe."""
    warnings_list = app.regime_warnings()
    for slit, failure in enumerate(solution.failure.tolist(), 1):
        if failure == GRAZING:
            limiting_half_width(app, solution.probes[slit - 1], slit)
        elif failure == BLOCKED:
            warnings_list.append(
                f"slit-{slit} grazing limit undefined: reflected beam hits the diaphragm"
            )
        elif failure == UNBRACKETED:
            warnings_list.append(f"slit-{slit} grazing limit unbounded below 2 mm")
    if not verdicts.long_scan:
        warnings_list.append(_short_scan(x_max, app))
    if not verdicts.diaphragm_clear:
        try:
            layouts.raise_first_failure()
        except DiaphragmClearanceError as exc:
            warnings_list.append(str(exc))

    w1, w2 = np.where(solution.failure == SOLVED, solution.half_widths, math.inf).tolist()
    return DesignReport(
        fringe_spacing=fringe_spacing(app),
        default_width=default_mirror_params(app)[0],
        w1_limit=w1,
        w2_limit=w2,
        required_width=float(solution.required_width),
        detector_separation=float(solution.separation),
        sampling_ok=bool(verdicts.sampling_ok),
        misdetection_free=bool(verdicts.misdetection_free),
        diaphragm_clear=bool(verdicts.diaphragm_clear),
        warnings=warnings_list,
    )


def validate(app: Apparatus, x_max: float) -> DesignReport:
    """The feasibility report for a scan over [0, x_max], from ``solve``'s
    limits and L12 and ``judge``'s verdicts on the ``_judged`` positions, the
    detectors aimed in one call at slit 1's probe and those positions, x = 0
    serving as slit 2's probe.  Failures are recorded in it rather than
    raised; only malformed inputs, and a slit on the mirror line, raise."""
    xs = np.concatenate([_probes(app)[:1], _judged(x_max)])
    layouts = geometry.aim_detectors(app, xs)
    judged = layouts.at(slice(1, None))
    verdicts, _ = judge(app, x_max, xs[1:], judged)
    return _report(app, x_max, _solution(app, layouts.at(slice(2))), verdicts, judged)


def _candidates(draws, **fields) -> Apparatus:
    """The apparatus of one row of ``design_search``'s draws, or the batch
    of a block of rows given column by column, with any further fields."""
    fields.update(zip(_SEARCHED, draws))
    arm = fields.pop("arm")
    return Apparatus(**fields, arm1=arm, arm2=arm)


def design_search(
    space: SearchSpace, samples: int, seed: int
) -> tuple[Apparatus, DesignReport] | None:
    """Seeded uniform random search maximizing detector separation.

    The mirror width is always the one ``solve`` requires, never sampled.
    Candidates are drawn and solved in blocks of ``_BLOCK``, so memory does
    not grow with ``samples``.  Only the solved candidates that beat the
    best separation so far are judged, in descending separation, in chunks
    growing from 2 to ``_CHUNK``; the first feasible one is the block's
    best.  Returns None when no sampled point is feasible, else the best
    candidate and its ``validate`` report, built from the rows that picked
    it, so nothing is solved or judged twice.  Ties are broken by the lowest
    sample index, so results are reproducible and independent of the block
    and chunk sizes.
    """
    if samples < 1:
        raise DesignError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = np.array([getattr(space, name) for name in _SEARCHED]).T
    xs = _judged(space.x_max)
    best, best_sep = None, -math.inf
    for start in range(0, samples, _BLOCK):
        # one stream: the same values as one draw per sample and parameter
        draws = rng.uniform(lo, hi, size=(min(_BLOCK, samples - start), len(_SEARCHED)))
        solution = solve(_candidates(draws.T))
        separation, width = solution.separation, solution.required_width
        # a stable sort keeps equal separations in sample order
        order = np.argsort(-separation, kind="stable")
        order = order[(solution.failure[order] == SOLVED).all(-1) & (separation[order] > best_sep)]
        done, chunk = 0, 2
        while done < len(order):
            rows = order[done : done + chunk]
            batch = _candidates(draws[rows].T, mirror_width=width[rows])
            verdicts, _ = judge(batch, space.x_max, xs, geometry.aim_detectors(batch, xs))
            if verdicts.feasible.any():
                j = np.argmax(verdicts.feasible)
                i = rows[j]
                best_sep = separation[i]
                candidate = _candidates(draws[i].tolist(), mirror_width=float(width[i]))
                # a feasible winner clears the diaphragm: its report reads no layout
                picked = _row(solution, i), _row(verdicts, j), None
                best = candidate, _report(candidate, space.x_max, *picked)
                break
            done, chunk = done + chunk, min(2 * chunk, _CHUNK)
    return best
