import collections
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mirrorslit import design, geometry
from mirrorslit.design import BracketError, DesignError, SearchSpace
from mirrorslit.geometry import Apparatus
from mirrorslit.wavemodel import fringe_spacing
from oracle import (
    best_step,
    bisect_half_width,
    clearance_angles,
    clearance_at_half_width,
    loop_design_search,
    loop_sampling_constraint,
    loop_validate,
    mirror_placement,
    sampling_constraint,
    scalar_search_steps,
    signed_angle,
    slits,
    traced_misdetection_free,
)


def linear_scan_root(app, x, slit, step=1e-6, hi=2e-3):
    """Independent brute-force oracle: first sign change of the clearance
    margin on a fixed-step half-width grid."""
    hs = np.arange(step, hi, step)
    prev = clearance_at_half_width(app, x, slit, hs[0])
    for h in hs[1:]:
        cur = clearance_at_half_width(app, x, slit, h)
        if prev * cur <= 0:
            return h
        prev = cur
    return None


class TestDefaultMirrorParams:
    def test_bench_width(self, app):
        w_prime, theta = design.default_mirror_params(app)
        assert w_prime == pytest.approx(0.1e-3, abs=1e-7)
        assert theta == math.pi / 4

    def test_proportional_to_fringe_spacing(self, app):
        doubled = Apparatus(wavelength=2 * app.wavelength)
        w_prime, _ = design.default_mirror_params(doubled)
        assert w_prime == pytest.approx(0.2e-3, abs=1e-7)


class TestSamplingConstraint:
    def test_bench_design_passes(self, app, f_s):
        ok, worst = sampling_constraint(app, 3 * f_s)
        assert ok
        assert worst < 0.35e-3

    def test_oversized_mirror_fails(self, app, f_s):
        wide = replace(app, mirror_width=2 * f_s)
        ok, _ = sampling_constraint(wide, 3 * f_s)
        assert not ok

    def test_steeper_mirror_projects_less(self, app, f_s):
        _, base = sampling_constraint(app, 3 * f_s)
        steep = replace(app, mirror_angle=1.4)
        _, steeper = sampling_constraint(steep, 3 * f_s)
        assert steeper < base

    def test_short_scan_rejected(self, app, f_s):
        with pytest.raises(DesignError):
            sampling_constraint(app, 1.5 * f_s)


class TestLimitingHalfWidth:
    def test_agrees_with_linear_scan_oracle(self, app, f_s):
        for x, slit in ((0.0, 2), (3 * f_s, 1)):
            root = design.limiting_half_width(app, x, slit)
            oracle = linear_scan_root(app, x, slit)
            assert oracle is not None
            assert abs(root - oracle) < 2e-6

    def test_slit1_limit_exceeds_slit2_limit(self, app, f_s):
        # the off-center probe is slightly less constraining
        w1 = design.limiting_half_width(app, 3 * f_s, 1)
        w2 = design.limiting_half_width(app, 0.0, 2)
        assert w1 != w2
        assert abs(w1 - w2) / w2 < 0.1

    def test_root_is_actually_a_zero(self, app):
        root = design.limiting_half_width(app, 0.0, 2)
        margin = clearance_at_half_width(app, 0.0, 2, root)
        scale = abs(clearance_at_half_width(app, 0.0, 2, 1e-6))
        assert abs(margin) < 0.01 * scale

    def test_bad_slit_index(self, app):
        with pytest.raises(DesignError):
            design.limiting_half_width(app, 0.0, 3)

    def test_no_bracket_reported(self, app, f_s):
        # arms so short the two apertures overlap: margin never changes sign
        overlapping = replace(app, arm1=0.05, arm2=0.05)
        with pytest.raises(BracketError):
            design.limiting_half_width(overlapping, 0.0, 2)

    @pytest.mark.parametrize(
        "app, at_three_f_s, slit",
        [
            # slit 1 on the mirror line at its probe, and a beam that
            # re-enters the diaphragm at slit 2's
            (Apparatus(slit_separation=0.01, mirror_angle=1.5210474095731559), True, 1),
            (Apparatus(mirror_angle=0.004), False, 2),
        ],
        ids=["grazing", "blocked"],
    )
    def test_failed_layout_raised_from_one_aim(self, count_calls, app, at_three_f_s, slit):
        x = 3 * fringe_spacing(app) if at_three_f_s else 0.0
        with pytest.raises(geometry.GeometryError) as expected:
            geometry.detector_layouts(app, x)
        aims = count_calls(geometry, "aim_detectors")
        with pytest.raises(geometry.GeometryError) as raised:
            design.limiting_half_width(app, x, slit)
        assert (type(raised.value), str(raised.value)) == (type(expected.value), str(expected.value))
        assert len(aims) == 1


class TestRequiredMirrorWidth:
    def test_bench_value_exact(self, app):
        assert design.required_mirror_width(app) == pytest.approx(0.1e-3, rel=1e-9)

    def test_min_rule(self, app, f_s):
        w_prime, _ = design.default_mirror_params(app)
        w1 = design.limiting_half_width(app, 3 * f_s, 1)
        w2 = design.limiting_half_width(app, 0.0, 2)
        required = design.required_mirror_width(app)
        assert required == pytest.approx(2 * min(w_prime / 2, w1, w2), rel=1e-12)
        assert required <= 2 * w1 and required <= 2 * w2

    def test_grazing_limit_can_govern(self, app, f_s):
        # enlarge the fringe period so the sampling width stops binding
        coarse = replace(app, wavelength=8 * app.wavelength)
        w_prime, _ = design.default_mirror_params(coarse)
        w1 = design.limiting_half_width(coarse, 3 * fringe_spacing(coarse), 1)
        w2 = design.limiting_half_width(coarse, 0.0, 2)
        assert design.required_mirror_width(coarse) == pytest.approx(
            2 * min(w_prime / 2, w1, w2), rel=1e-12
        )
        assert min(w1, w2) < w_prime / 2

    def test_raises_as_the_limits_do(self):
        # seed 403, shallow tilts: the width is the min rule over
        # limiting_half_width's limits, or the error of the first limit that
        # fails, slit 1 first; a beam can hit the diaphragm at one probe only
        rng = np.random.default_rng(403)
        kinds = collections.Counter()
        for _ in range(1000):
            app = random_apparatus(rng, angle=(0.001, 0.1))
            probes = ((3 * fringe_spacing(app), 1), (0.0, 2))
            errors = [(slit, outcome_error(app, x, slit)) for x, slit in probes]
            failed = [(slit, error) for slit, error in errors if error is not None]
            if failed:
                slit, error = failed[0]
                with pytest.raises(type(error)) as raised:
                    design.required_mirror_width(app)
                assert str(raised.value) == str(error)
                kinds[f"slit {slit} {type(error).__name__}"] += 1
                continue
            limits = [design.limiting_half_width(app, x, slit) for x, slit in probes]
            w_prime, _ = design.default_mirror_params(app)
            assert design.required_mirror_width(app) == 2 * min(w_prime / 2, *limits)
            kinds["width"] += 1
        assert all(
            kinds[name] > 0
            for name in (
                "width",
                "slit 1 BracketError",
                "slit 2 BracketError",
                "slit 1 DiaphragmClearanceError",
                "slit 2 DiaphragmClearanceError",
            )
        ), kinds


def outcome_error(app, x, slit):
    """The error ``limiting_half_width`` raises at (x, slit), or None."""
    try:
        design.limiting_half_width(app, x, slit)
    except (BracketError, geometry.GeometryError) as exc:
        return exc
    return None


class TestValidate:
    def test_solves_once_and_judges_once(self, app, f_s, count_calls):
        # one aim at slit 1's probe and the 61 judged positions, whose
        # first, x = 0, is slit 2's probe; L12 is computed there once
        aims = count_calls(geometry, "aim_detectors")
        probes = count_calls(design, "limiting_half_width")
        separations = count_calls(geometry, "separations")
        design.validate(app, 3 * f_s)
        assert len(aims) == 1 and not probes and len(separations) == 1
        (_, xs), = aims
        assert len(xs) == 62 and np.count_nonzero(xs == 0.0) == 1

    def test_bench_design_feasible(self, app, f_s):
        report = design.validate(app, 3 * f_s)
        assert report.feasible
        assert report.sampling_ok
        assert report.misdetection_free
        assert report.diaphragm_clear
        assert report.required_width == pytest.approx(0.1e-3, rel=1e-9)
        assert report.detector_separation == pytest.approx(5e-3, rel=0.05)
        assert report.warnings == []

    def test_wide_mirror_fails(self, app, f_s):
        report = design.validate(replace(app, mirror_width=0.6e-3), 3 * f_s)
        assert not report.misdetection_free

    def test_huge_aperture_fails(self, app, f_s):
        report = design.validate(replace(app, aperture=50e-3), 3 * f_s)
        assert not report.misdetection_free

    def test_short_arms_fail(self, app, f_s):
        report = design.validate(replace(app, arm1=0.1, arm2=0.1), 3 * f_s)
        assert not report.feasible

    def test_failures_are_fields_not_errors(self, app, f_s):
        report = design.validate(replace(app, mirror_angle=0.004), 3 * f_s)
        assert not report.diaphragm_clear
        assert not report.feasible
        assert report.warnings

    def test_slit_on_mirror_line_at_a_probe_raises(self):
        # at this tilt slit 1 lies on the mirror line at its probe x = 3 F_s,
        # beyond the judged grid [0, 2.5 F_s], so only its grazing limit raises
        grazing = geometry.GrazingIncidenceError
        app = Apparatus(slit_separation=0.01, mirror_angle=1.5210474095731559)
        judged = design._judged(2.5 * fringe_spacing(app))
        assert not geometry.aim_detectors(app, judged).failed().any()
        with pytest.raises(grazing, match="parallel to the mirror surface"):
            design.validate(app, 2.5 * fringe_spacing(app))
        # here slit 1 lies on the mirror line at x = 0, slit 2's probe; slit 1's
        # limit at 3 F_s is out of bracket, and its error comes first
        app = Apparatus(mirror_angle=math.atan(2 * 0.1 / 1e-4))
        with pytest.raises(BracketError):
            design.required_mirror_width(app)
        with pytest.raises(grazing, match="parallel to the mirror surface"):
            design.limiting_half_width(app, 0.0, 2)


class TestDesignSearch:
    def bench_space(self, f_s, **overrides):
        base = dict(
            wavelength=(700e-9, 700e-9),
            slit_separation=(100e-6, 100e-6),
            screen_distance=(0.1, 0.1),
            mirror_angle=(math.pi / 4, math.pi / 4),
            arm=(5.0, 5.0),
            aperture=(1e-3, 1e-3),
            x_max=3 * f_s,
        )
        base.update(overrides)
        return SearchSpace(**base)

    def test_singleton_space_returns_bench_point(self, app, f_s):
        best, report = design.design_search(self.bench_space(f_s), 3, seed=0)
        assert best.wavelength == app.wavelength
        assert best.arm1 == app.arm1
        assert best.mirror_width == pytest.approx(0.1e-3, rel=1e-9)
        assert report.detector_separation == pytest.approx(5e-3, rel=0.05)

    def test_prefers_long_arms(self, f_s):
        space = self.bench_space(f_s, arm=(1.0, 10.0))
        best, report = design.design_search(space, 30, seed=11)
        # separation grows with arm length, so the winner is the longest
        # feasible arm drawn
        rng = np.random.default_rng(11)
        drawn = []
        for _ in range(30):
            vals = {
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
            drawn.append(vals["arm"])
        assert best.arm1 == pytest.approx(max(drawn), rel=1e-12)

    def test_deterministic(self, f_s):
        space = self.bench_space(f_s, arm=(2.0, 8.0), mirror_angle=(0.6, 1.0))
        a = design.design_search(space, 25, seed=42)
        b = design.design_search(space, 25, seed=42)
        assert a is not None and b is not None
        assert a[0] == b[0]

    def test_infeasible_space_returns_none(self, f_s):
        space = self.bench_space(f_s, aperture=(1.0, 1.0))
        assert design.design_search(space, 10, seed=0) is None

    def test_never_returns_infeasible(self, f_s):
        space = self.bench_space(f_s, arm=(0.05, 6.0), mirror_angle=(0.3, 1.2))
        result = design.design_search(space, 40, seed=9)
        if result is not None:
            _, report = result
            assert report.feasible

    def test_sample_count_validated(self, f_s):
        with pytest.raises(DesignError):
            design.design_search(self.bench_space(f_s), 0, seed=0)

    @pytest.mark.parametrize("angle", [(1.0, 2.0), (1.0, math.pi / 2)])
    def test_angle_interval_must_lie_inside_quadrant(self, f_s, angle):
        with pytest.raises(DesignError, match="mirror_angle"):
            self.bench_space(f_s, mirror_angle=angle)


def random_apparatus(rng, angle=(0.3, 1.2), width=None):
    """An apparatus drawn around the bench: arms log-uniform in 0.05-10 m,
    apertures 0.3-5 mm, the mirror angle and width from the given ranges
    (the width is left at the bench value when ``width`` is None)."""
    kwargs = dict(
        wavelength=rng.uniform(400e-9, 1000e-9),
        slit_separation=rng.uniform(50e-6, 300e-6),
        screen_distance=rng.uniform(0.05, 0.5),
        mirror_angle=rng.uniform(*angle),
        arm1=math.exp(rng.uniform(math.log(0.05), math.log(10.0))),
        arm2=math.exp(rng.uniform(math.log(0.05), math.log(10.0))),
        aperture=rng.uniform(0.3e-3, 5e-3),
    )
    if width is not None:
        kwargs["mirror_width"] = rng.uniform(*width)
    return Apparatus(**kwargs)


def outcome(solve, *args):
    """The solver's result, or the type of the error it raised."""
    try:
        return solve(*args)
    except (BracketError, geometry.DiaphragmClearanceError) as exc:
        return type(exc)


class TestClosedFormAgainstBisection:
    def test_random_apparatus(self):
        # seed 401: 400 apparatus x 3 probe positions x 2 slits
        rng = np.random.default_rng(401)
        kinds = collections.Counter()
        for _ in range(400):
            app = random_apparatus(rng)
            f_s = fringe_spacing(app)
            for x in (0.0, f_s, 3 * f_s):
                for slit in (1, 2):
                    closed = outcome(design.limiting_half_width, app, x, slit)
                    bisected = outcome(bisect_half_width, app, x, slit)
                    if isinstance(bisected, float):
                        assert isinstance(closed, float), (app, x, slit, closed)
                        assert abs(closed - bisected) < 1e-7, (app, x, slit)
                        kinds["root"] += 1
                    else:
                        assert closed is bisected, (app, x, slit, closed)
                        kinds[bisected.__name__] += 1
        # both outcomes occur, so the comparison covers both branches
        assert kinds["root"] > 100 and kinds["BracketError"] > 10, kinds

    def test_shallow_angles(self):
        # seed 402: below about 0.1 rad the reflected beams run nearly back
        # toward the slits.  The bisection's margin compares unsigned angles
        # from the normal, so it also changes sign where an aperture edge
        # lines up with the slit itself (equal signed angles) rather than
        # with its reflection (opposite signed angles).  The closed form
        # keeps only the reflection; every disagreement must be of that kind.
        rng = np.random.default_rng(402)
        blocked = disagreements = 0
        for _ in range(60):
            app = random_apparatus(rng, angle=(0.001, 0.1))
            f_s = fringe_spacing(app)
            for x, slit in ((0.0, 1), (0.0, 2), (3 * f_s, 1), (3 * f_s, 2)):
                closed = outcome(design.limiting_half_width, app, x, slit)
                bisected = outcome(bisect_half_width, app, x, slit)
                if geometry.DiaphragmClearanceError in (closed, bisected):
                    assert closed is bisected
                    blocked += 1
                    continue
                if isinstance(closed, float) and isinstance(bisected, float):
                    if abs(closed - bisected) < 1e-7:
                        continue
                elif closed is bisected:
                    continue
                disagreements += 1
                if isinstance(closed, float):
                    alpha, beta = probe_angles(app, x, slit, closed)
                    assert beta == pytest.approx(-alpha, abs=1e-9)
                if isinstance(bisected, float):
                    alpha, beta = probe_angles(app, x, slit, bisected)
                    assert beta == pytest.approx(alpha, abs=1e-5)
        assert blocked > 10 and disagreements > 0


def probe_angles(app, x, slit, h):
    """Signed angles from the mirror normal, at the probe end of a mirror of
    half-width h, to the slit and to the other detector's near edge."""
    pl = mirror_placement(replace(app, mirror_width=2 * h), x)
    layout = geometry.detector_layouts(app, x)
    if slit == 1:
        p, edge = pl.end_high, layout.right[:, 1, 0]
    else:
        p, edge = pl.end_low, layout.left[:, 0, 0]
    source = slits(app)[slit - 1]
    return signed_angle(pl.normal, source - p), signed_angle(pl.normal, edge - p)


class TestValidateAgainstLoop:
    VERDICTS = ("sampling_ok", "misdetection_free", "diaphragm_clear", "feasible")

    def test_random_apparatus(self):
        # seed 403: bench-like, wide-mirror and shallow-angle draws, scan
        # extents from 1.5 (too short) to 6 fringe periods; loop_validate
        # judges mis-detection by tracing 2001 evenly spaced mirror points
        # per slit at each of the 61 positions
        rng = np.random.default_rng(403)
        seen = collections.defaultdict(set)
        same_limits = 0
        for i in range(300):
            kind = i % 3
            if kind == 0:
                app = random_apparatus(rng, width=(20e-6, 150e-6))
            elif kind == 1:
                app = random_apparatus(rng, width=(0.2e-3, 1.5e-3))
            else:
                app = random_apparatus(rng, angle=(0.001, 0.3), width=(20e-6, 0.5e-3))
            x_max = rng.uniform(1.5, 6.0) * fringe_spacing(app)
            if x_max > 2 * fringe_spacing(app):
                assert sampling_constraint(app, x_max) == loop_sampling_constraint(
                    app, x_max
                )
            fast = design.validate(app, x_max)
            slow = loop_validate(app, x_max)
            for name in self.VERDICTS:
                assert getattr(fast, name) == getattr(slow, name), (app, x_max, name)
                seen[name].add(getattr(fast, name))
            assert fast.detector_separation == slow.detector_separation or (
                math.isnan(fast.detector_separation) and math.isnan(slow.detector_separation)
            )
            limits = ((fast.w1_limit, slow.w1_limit), (fast.w2_limit, slow.w2_limit))
            if all(a == b or abs(a - b) < 1e-7 for a, b in limits):
                assert fast.warnings == slow.warnings, (app, x_max)
                assert fast.required_width == pytest.approx(slow.required_width, abs=2e-7)
                same_limits += 1
            else:
                # a line-of-sight root of the bisection (see
                # TestClosedFormAgainstBisection.test_shallow_angles): only
                # the limits and their warnings differ
                assert app.mirror_angle < 0.1

                def others(report):
                    return [w for w in report.warnings if "grazing limit" not in w]

                assert others(fast) == others(slow), (app, x_max)
        # every check both passes and fails somewhere
        assert all(seen[name] == {True, False} for name in self.VERDICTS), seen
        assert same_limits >= 290

    def test_batch_footprint(self):
        # seed 29: a block of 128 draws from the design_sweep search space
        # with mirror widths 1 um - 2 mm; for each of four extents x0 in
        # 0.1 - 5 mm, one _sampling call judges the whole block, and per
        # candidate its verdict and worst footprint equal the 101-point
        # loop's exactly, or the loop refuses the scan as too short
        rng = np.random.default_rng(29)
        space = [(4e-7, 9e-7), (5e-5, 2e-4), (0.05, 0.2), (0.5, 1.1), (1.0, 10.0), (3e-4, 2e-3)]
        lo, hi = np.array(space).T
        draws = rng.uniform(lo, hi, size=(128, len(space)))
        widths = rng.uniform(1e-6, 2e-3, size=128)
        batch = design._candidates(draws.T, mirror_width=widths)
        seen = set()
        for x0 in rng.uniform(0.1e-3, 5e-3, size=4):
            long_scan, ok, worst = design._sampling(batch, x0)
            for i, (row, width) in enumerate(zip(draws.tolist(), widths.tolist())):
                app = design._candidates(row, mirror_width=width)
                if long_scan[i]:
                    assert loop_sampling_constraint(app, x0) == (ok[i], worst[i]), (app, x0)
                else:
                    with pytest.raises(DesignError):
                        loop_sampling_constraint(app, x0)
                seen.add((bool(long_scan[i]), bool(ok[i])))
        assert seen == {(False, False), (True, False), (True, True)}


class TestShallowTiltMisdetection:
    # draw 125 of TestValidateAgainstLoop's seed-403 set: at a 0.0166 rad
    # tilt the unsigned-angle margin at the three probe points reads safe
    # everywhere, yet the whole mirror sends slit 2 into detector 1
    APP = Apparatus(
        wavelength=9.195580773282826e-07,
        slit_separation=0.0002787504505711096,
        screen_distance=0.21261868846088844,
        mirror_width=5.648723302923788e-05,
        mirror_angle=0.016597026713608517,
        arm1=0.05243106835015981,
        arm2=5.057436905421007,
        aperture=0.004275455817898247,
    )
    X_MAX = 0.0012653840702019584

    def test_margin_said_free(self):
        for x in np.linspace(0.0, self.X_MAX, 61):
            pl = mirror_placement(self.APP, x)
            for p in (pl.end_low, pl.center, pl.end_high):
                d1, d2 = clearance_angles(self.APP, x, p)
                assert d1 > 0 and d2 < 0

    def test_validate_finds_the_cross_routing(self):
        report = design.validate(self.APP, self.X_MAX)
        assert report.diaphragm_clear and not report.misdetection_free
        assert not report.feasible
        xs = np.linspace(0.0, self.X_MAX, 61)
        f = geometry.routing_fractions(self.APP, xs, geometry.detector_layouts(self.APP, xs))
        assert f[1, 0].max() == pytest.approx(1.0)
        assert not any(traced_misdetection_free(self.APP, x) for x in xs)


class TestSearchAgainstOracle:
    SPACE = SearchSpace(
        wavelength=(4e-7, 9e-7),
        slit_separation=(5e-5, 2e-4),
        screen_distance=(0.05, 0.2),
        mirror_angle=(0.3, 1.2),
        arm=(0.05, 10.0),
        aperture=(3e-4, 5e-3),
        x_max=2.1e-3,
    )

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_same_best_apparatus(self, seed):
        fast = design.design_search(self.SPACE, 24, seed)
        slow = loop_design_search(self.SPACE, 24, seed)
        assert fast is not None and slow is not None
        (best, report), (expected, expected_report) = fast, slow
        assert replace(best, mirror_width=expected.mirror_width) == expected
        assert abs(best.mirror_width - expected.mirror_width) <= 2e-7
        assert report.feasible and expected_report.feasible
        assert report.detector_separation == expected_report.detector_separation


class TestBatchAgainstScalarLoop:
    # seeds 0-7, 256 samples each.  F_s = lambda L / d spans 0.1-3.6 mm, so
    # the candidates with F_s > x_max / 2 = 1.05 mm fail sampling on a scan
    # too short; tilts down to 0.01 rad send beams into the diaphragm
    SPACE = SearchSpace(
        wavelength=(4e-7, 9e-7),
        slit_separation=(5e-5, 2e-4),
        screen_distance=(0.05, 0.2),
        mirror_angle=(0.01, 1.5),
        arm=(0.05, 10.0),
        aperture=(1e-4, 5e-3),
        x_max=2.1e-3,
    )
    VERDICTS = ("sampling_ok", "diaphragm_clear", "misdetection_free")

    def test_same_best_and_verdicts_as_scalar_validate(self):
        branches = collections.Counter()
        for seed in range(8):
            steps = list(scalar_search_steps(self.SPACE, 256, seed))
            fast = design.design_search(self.SPACE, 256, seed)
            slow = best_step(steps)
            assert fast is not None and slow is not None
            assert fast[0] == slow[0], seed
            assert json.dumps(fast[1].to_dict()) == json.dumps(slow[1].to_dict())

            # the block draws are the per-sample draws, bit for bit
            bounds = np.array([getattr(self.SPACE, name) for name in design._SEARCHED])
            draws = np.random.default_rng(seed).uniform(*bounds.T, size=(256, 6))
            drawn = [
                [a.wavelength, a.slit_separation, a.screen_distance, a.mirror_angle, a.arm1, a.aperture]
                for a, _, _ in steps
            ]
            assert draws.tolist() == drawn
            solution = design.solve(design._candidates(draws.T))
            solved, separations = (solution.failure == design.SOLVED).all(axis=-1), solution.separation
            w1, w2 = solution.half_widths[solved, 0], solution.half_widths[solved, 1]
            width = solution.required_width[solved]
            batch = design._candidates(draws[solved].T, mirror_width=width)
            xs = design._judged(self.SPACE.x_max)
            layouts = geometry.aim_detectors(batch, xs)
            fractions = geometry.routing_fractions(batch, xs, layouts)
            verdicts = design.judge(batch, self.SPACE.x_max, layouts, fractions)
            k = 0
            for i, (candidate, limits, report) in enumerate(steps):
                if not solved[i]:
                    assert limits in (BracketError, geometry.DiaphragmClearanceError), limits
                    branches["bracket skip" if limits is BracketError else "blocked skip"] += 1
                    continue
                assert limits == (w1[k], w2[k]), (seed, i)
                assert candidate.mirror_width == width[k], (seed, i)
                assert report is not None, (seed, i)
                for name in self.VERDICTS:
                    assert getattr(report, name) == getattr(verdicts, name)[k], (seed, i)
                    if not getattr(report, name):
                        branches[name + " fail"] += 1
                # the search's ordering key is validate's L12, bit for bit
                assert report.detector_separation == separations[i], (seed, i)
                branches["feasible"] += report.feasible
                k += 1
            assert k == len(verdicts.sampling_ok)
        assert all(
            branches[name] > 0
            for name in (
                "bracket skip",
                "blocked skip",
                "sampling_ok fail",
                "diaphragm_clear fail",
                "misdetection_free fail",
                "feasible",
            )
        ), branches


class TestSearchMemory:
    # extreme tilts, arms and apertures: every branch and no numpy warning
    SPACE = SearchSpace(
        wavelength=(4e-7, 9e-7),
        slit_separation=(5e-5, 2e-4),
        screen_distance=(0.05, 0.2),
        mirror_angle=(1e-6, 1.5707963),
        arm=(1e-3, 100.0),
        aperture=(1e-6, 0.1),
        x_max=2.1e-3,
    )

    def test_peak_memory_bounded_and_no_runtime_warning(self):
        # judged all at once, 5000 candidates would need about 190 MB
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tracemalloc.start()
            try:
                result = design.design_search(self.SPACE, 5_000, 7)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result is not None and result[1].feasible
        assert peak < 16e6, peak


class TestLazySearch:
    # the design_sweep search space of perfbench/workloads.py
    SPACE = SearchSpace(
        wavelength=(4e-7, 9e-7),
        slit_separation=(5e-5, 2e-4),
        screen_distance=(0.05, 0.2),
        mirror_angle=(0.5, 1.1),
        arm=(1.0, 10.0),
        aperture=(3e-4, 2e-3),
        x_max=2.1e-3,
    )

    def test_few_candidates_judged(self, count_calls):
        # judging all 64 candidates is 64
        calls = count_calls(design, "judge")
        for seed in range(100):
            calls.clear()
            assert design.design_search(self.SPACE, 64, seed) is not None, seed
            judged = sum(np.size(app.wavelength) for app, *_ in calls)
            assert judged <= 16, (seed, judged)

    def test_solved_once_per_block_and_never_validated(self, count_calls):
        # the winner is reported from the rows that picked it: no second
        # solve, no validate, and no judge after the winner's chunk
        solves = count_calls(design, "solve")
        validates = count_calls(design, "validate")
        judges = count_calls(design, "judge")
        for seed in range(10):
            solves.clear()
            judges.clear()
            best, _ = design.design_search(self.SPACE, 64, seed)
            assert len(solves) == 1 and not validates, seed
            last, *_ = judges[-1]
            assert best.wavelength in last.wavelength.tolist(), seed
        solves.clear()
        assert design.design_search(self.SPACE, design._BLOCK + 1, 0) is not None
        assert len(solves) == 2 and not validates

    def test_peak_memory(self):
        # a 64-sample search that judged blocks of 16 peaked at 551 KB
        for seed in range(5):
            tracemalloc.start()
            try:
                design.design_search(self.SPACE, 64, seed)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 300e3, (seed, peak)


class TestSearchReport:
    """The search's report, built from the rows that picked its winner, is
    the winner's ``validate`` report byte for byte."""

    def same_report(self, space, samples, seed):
        best, report = design.design_search(space, samples, seed)
        expected = design.validate(best, space.x_max)
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
        return best, report

    @pytest.mark.parametrize("seed", range(100))
    def test_design_sweep_space(self, seed):
        self.same_report(TestLazySearch.SPACE, 64, seed)

    @pytest.mark.parametrize("seed", range(20))
    def test_winner_with_regime_warnings(self, seed):
        # slits at least 1/200 of the throw apart: every winner is warned
        # that the far-field formulas degrade
        space = replace(
            TestLazySearch.SPACE, screen_distance=(0.01, 0.02), slit_separation=(1e-4, 2e-4)
        )
        _, report = self.same_report(space, 64, seed)
        assert report.warnings, seed

    @pytest.mark.parametrize("seed", [47, 105, 138])
    def test_winner_after_an_infeasible_row_of_its_chunk(self, count_calls, seed):
        # seeds of the wide space whose winner is row 1 of its chunk
        space = TestBatchAgainstScalarLoop.SPACE
        judges = count_calls(design, "judge")
        best, _ = design.design_search(space, 64, seed)
        chunk, *_ = judges[-1]
        assert chunk.wavelength.tolist().index(best.wavelength) == 1
        self.same_report(space, 64, seed)

    @pytest.mark.parametrize("seed", [137, 1703])
    def test_later_block_replaces_the_winner(self, seed):
        # seeds where sample 1,025, alone in the second block, beats the
        # first block's winner
        first, _ = design.design_search(TestLazySearch.SPACE, design._BLOCK, seed)
        best, _ = self.same_report(TestLazySearch.SPACE, design._BLOCK + 1, seed)
        assert best != first
