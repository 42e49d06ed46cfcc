import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirrorslit import geometry
from mirrorslit.geometry import (
    Apparatus,
    DiaphragmClearanceError,
    GrazingIncidenceError,
    point,
)
from oracle import (
    OffMirrorError,
    clearance_angles,
    mirror_placement,
    reflect_direction,
    signed_angle,
    unit,
)


class TestPathLengths:
    def test_symmetric_at_center(self, app):
        d1, d2 = geometry.path_lengths(app, 0.0)
        assert d1 == pytest.approx(d2, rel=1e-15)
        assert d1 == pytest.approx(
            math.hypot(app.slit_separation / 2, app.screen_distance), rel=1e-15
        )

    def test_far_field_difference_one_wavelength(self, app):
        # x d / L = 7e-7 m at x = 0.7 mm; exact difference within 0.1%
        x = 0.7e-3
        d1, d2 = geometry.path_lengths(app, x)
        small_angle = x * app.slit_separation / app.screen_distance
        assert d2 - d1 == pytest.approx(small_angle, rel=1e-3)

    @pytest.mark.parametrize("x", [-2.1e-3, -3e-4, 0.0, 1e-4, 5e-3])
    def test_mirror_symmetry_swaps(self, app, x):
        d1, d2 = geometry.path_lengths(app, x)
        d1m, d2m = geometry.path_lengths(app, -x)
        assert d1m == pytest.approx(d2, rel=1e-15)
        assert d2m == pytest.approx(d1, rel=1e-15)


class TestMirrorPlacement:
    def test_endpoint_coordinates(self, app):
        pl = mirror_placement(app, 0.0)
        half = app.mirror_width / 2
        assert pl.end_high[0] == pytest.approx(half * math.cos(math.pi / 4), rel=1e-12)
        assert pl.end_high[0] == pytest.approx(3.5355e-5, rel=1e-4)
        assert pl.end_high[1] == pytest.approx(
            app.screen_distance - half * math.sin(math.pi / 4), rel=1e-12
        )

    def test_against_rotation_matrix(self, app):
        # independent construction: rotate the screen-parallel direction by -theta
        theta = app.mirror_angle
        rot = np.array(
            [[math.cos(-theta), -math.sin(-theta)], [math.sin(-theta), math.cos(-theta)]]
        )
        expected = rot @ np.array([1.0, 0.0])
        pl = mirror_placement(app, 1e-3)
        np.testing.assert_allclose(pl.along, expected, atol=1e-14)

    def test_shallow_angle_parallel_to_screen(self):
        app = Apparatus(mirror_angle=1e-9)
        pl = mirror_placement(app, 0.0)
        chord = pl.end_high - pl.end_low
        assert abs(chord[1]) < 1e-8 * abs(chord[0])

    def test_half_widths(self, app):
        pl = mirror_placement(app, 2e-3)
        w = app.mirror_width
        assert np.linalg.norm(pl.end_high - pl.center) == pytest.approx(w / 2, rel=1e-12)
        assert np.linalg.norm(pl.end_low - pl.center) == pytest.approx(w / 2, rel=1e-12)
        assert np.linalg.norm(pl.end_high - pl.end_low) == pytest.approx(w, rel=1e-12)
        np.testing.assert_allclose(pl.center, (pl.end_high + pl.end_low) / 2, atol=1e-18)
        assert abs(np.dot(pl.normal, pl.end_high - pl.end_low)) < 1e-15
        assert pl.normal[1] < 0  # faces the diaphragm


class TestReflect:
    def test_normal_incidence_reverses(self):
        r = reflect_direction(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
        np.testing.assert_allclose(r, [0.0, -1.0], atol=1e-15)

    def test_right_angle_fold(self):
        n = unit(np.array([-1.0, -1.0]))
        r = reflect_direction(np.array([0.0, 1.0]), n)
        assert abs(r[1]) < 1e-15
        assert abs(abs(r[0]) - 1.0) < 1e-15

    def test_grazing_raises(self):
        with pytest.raises(GrazingIncidenceError):
            reflect_direction(np.array([1.0, 0.0]), np.array([0.0, -1.0]))

    @given(
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 2 * math.pi),
    )
    def test_unit_norm_and_angle_preserved(self, phi_v, phi_n):
        v = np.array([math.cos(phi_v), math.sin(phi_v)])
        n = np.array([math.cos(phi_n), math.sin(phi_n)])
        if abs(np.dot(v, n)) < 1e-6:
            return
        r = reflect_direction(v, n)
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
        # incidence angle equals reflection angle, measured from the normal
        assert abs(np.dot(v, n)) == pytest.approx(abs(np.dot(r, n)), abs=1e-12)

    @given(st.floats(0.0, 2 * math.pi), st.floats(0.3, 2 * math.pi))
    def test_involution(self, phi_v, phi_n):
        v = np.array([math.cos(phi_v), math.sin(phi_v)])
        n = np.array([math.cos(phi_n), math.sin(phi_n)])
        if abs(np.dot(v, n)) < 1e-6:
            return
        back = reflect_direction(reflect_direction(v, n), n)
        np.testing.assert_allclose(back, v, atol=1e-12)

    def test_angular_separation_preserved(self, app):
        rng = np.random.default_rng(5)
        pl = mirror_placement(app, 1e-3)
        for _ in range(100):
            a1, a2 = rng.uniform(0.2, 1.3, size=2)
            v1 = np.array([math.sin(a1), math.cos(a1)])
            v2 = np.array([math.sin(a2), math.cos(a2)])
            r1 = reflect_direction(v1, pl.normal)
            r2 = reflect_direction(v2, pl.normal)
            before = signed_angle(v1, v2)
            after = signed_angle(r1, r2)
            assert abs(abs(before) - abs(after)) < 1e-12


class TestMirrorFrame:
    def test_ends_on_the_line_and_slits_in_front(self, app, f_s):
        for x in (0.0, 3 * f_s):
            pl = mirror_placement(app, x)
            t, h = geometry.mirror_frame(
                app, pl.center, np.array([pl.end_low, pl.end_high, *app.slits()])
            )
            half = app.mirror_width / 2
            np.testing.assert_allclose(t[:2], [-half, half], rtol=1e-12)
            np.testing.assert_allclose(h[:2], 0.0, atol=1e-16)
            assert np.all(h[2:] > 0)

    def test_image_is_the_reflected_point(self, app):
        # the image of a slit, rebuilt from the frame, sends the reflected
        # ray through any mirror point along the specular direction
        pl = mirror_placement(app, 1e-3)
        along, normal = geometry.mirror_axes(app)
        for slit in app.slits():
            t, h = geometry.mirror_frame(app, pl.center, slit)
            image = pl.center + t * along - h * normal
            for p in (pl.end_low, pl.center, pl.end_high):
                expected = reflect_direction(unit(p - slit), pl.normal)
                np.testing.assert_allclose(unit(p - image), expected, atol=1e-9)


class TestIncidenceAngles:
    def test_slit_pair_subtense(self, app):
        g1, g2 = geometry.incidence_angles(app, 0.0)
        expected = 2 * math.atan(app.slit_separation / (2 * app.screen_distance))
        assert g1 - g2 == pytest.approx(expected, rel=1e-9)
        assert g1 - g2 == pytest.approx(1.0e-3, rel=1e-3)
        assert g1 > g2

    def test_difference_independent_of_tilt(self, app):
        g1, g2 = geometry.incidence_angles(app, 4e-4)
        tilted = Apparatus(mirror_angle=math.pi / 3)
        h1, h2 = geometry.incidence_angles(tilted, 4e-4)
        assert g1 - g2 == pytest.approx(h1 - h2, rel=1e-12)

    def test_difference_decreasing_in_x(self, app):
        xs = np.linspace(0.0, 5e-3, 50)
        diffs = [np.subtract(*geometry.incidence_angles(app, x)) for x in xs]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_signed_angles_from_the_normal(self, app, f_s):
        # one mirror point at a time: the angle from the normal to the ray
        # toward each slit
        tilted = Apparatus(mirror_angle=1.1)
        for a in (app, tilted):
            xs = np.linspace(-3 * f_s, 3 * f_s, 13)
            g1, g2 = geometry.incidence_angles(a, xs)
            for x, a1, a2 in zip(xs, g1, g2):
                pl = mirror_placement(a, x)
                s1, s2 = a.slits()
                n, c = pl.normal, pl.center
                assert a1 == pytest.approx(signed_angle(n, s1 - c), abs=1e-15)
                assert a2 == pytest.approx(signed_angle(n, s2 - c), abs=1e-15)

    def test_vanishes_far_away(self, app):
        g1, g2 = geometry.incidence_angles(app, 100.0)
        assert g1 - g2 < 1e-8


class TestDetectorLayout:
    def test_arm_lengths_exact(self, app):
        d1, d2 = geometry.detector_layouts(app, 0.0).detectors[0]
        m0 = point(0.0, app.screen_distance)
        assert np.linalg.norm(d1 - m0) == pytest.approx(app.arm1, rel=1e-12)
        assert np.linalg.norm(d2 - m0) == pytest.approx(app.arm2, rel=1e-12)

    def test_five_millimeter_separation(self, app):
        d1, d2 = geometry.detector_layouts(app, 0.0).detectors[0]
        assert np.linalg.norm(d1 - d2) == pytest.approx(5e-3, rel=0.05)

    def test_aperture_widths(self, app):
        lay = geometry.detector_layouts(app, 0.0)
        (d1_left, d2_left), (d1_right, d2_right) = lay.left[0], lay.right[0]
        assert np.linalg.norm(d1_left - d1_right) == pytest.approx(1e-3, rel=1e-12)
        assert np.linalg.norm(d2_left - d2_right) == pytest.approx(1e-3, rel=1e-12)
        # aperture is perpendicular to the arriving central ray
        assert abs(np.dot(d1_left - d1_right, lay.directions[0, 0])) < 1e-15

    def test_shallow_mirror_fails_clearance(self):
        app = Apparatus(mirror_angle=0.004)
        with pytest.raises(DiaphragmClearanceError):
            geometry.detector_layouts(app, 0.0)


class TestDetectorSeparation:
    def test_exact_is_distance_between_detector_centres(self, app, f_s):
        unequal = Apparatus(arm1=0.3, arm2=7.0)
        for a in (app, unequal):
            for x in (0.0, 3 * f_s):
                (c, d1), (_, d2) = central_ray(a, x, 1), central_ray(a, x, 2)
                exact, _ = geometry.detector_separation(a, x)
                expected = np.linalg.norm(c + a.arm1 * d1 - (c + a.arm2 * d2))
                assert exact == pytest.approx(expected, rel=1e-12)

    def test_approx_matches_five_millimeters(self, app):
        exact, approx = geometry.detector_separation(app, 0.0)
        assert approx == pytest.approx(5e-3, rel=0.05)

    def test_exact_vs_approx_under_one_percent(self, app, f_s):
        for x in np.linspace(0.0, 3 * f_s, 100):
            exact, approx = geometry.detector_separation(app, x)
            assert abs(exact - approx) / exact < 0.01

    def test_linear_in_arm(self, app):
        _, approx = geometry.detector_separation(app, 0.0)
        doubled = Apparatus(arm1=2 * app.arm1, arm2=2 * app.arm2)
        _, approx2 = geometry.detector_separation(doubled, 0.0)
        assert approx2 == pytest.approx(2 * approx, rel=1e-12)


class TestClearanceAngles:
    def test_bench_design_is_safe(self, app, f_s):
        pl = mirror_placement(app, 0.0)
        d1, d2 = clearance_angles(app, 0.0, pl.end_low)
        assert d2 < 0
        pl = mirror_placement(app, 3 * f_s)
        d1, d2 = clearance_angles(app, 3 * f_s, pl.end_high)
        assert d1 > 0

    def test_off_mirror_point_rejected(self, app):
        with pytest.raises(OffMirrorError):
            clearance_angles(app, 0.0, point(1e-3, app.screen_distance))

    def test_continuous_along_mirror(self, app):
        # 1 um steps along a wide mirror: at most one sign change per margin
        wide = Apparatus(mirror_width=0.6e-3)
        pl = mirror_placement(wide, 0.0)
        lay = geometry.detector_layouts(wide, 0.0)
        ts = np.arange(0.0, 1.0 + 1e-12, 1e-6 / wide.mirror_width)
        d2s = []
        for t in ts:
            p = pl.end_low + t * (pl.end_high - pl.end_low)
            d2s.append(clearance_angles(wide, 0.0, p, lay)[1])
        signs = np.sign(d2s)
        flips = np.sum(signs[:-1] != signs[1:])
        assert flips <= 1
        steps = np.abs(np.diff(d2s))
        assert np.max(steps) < 50 * np.median(steps)


def central_ray(app, x, slit):
    """Mirror centre and reflected central-ray direction of one slit, built
    one vector at a time."""
    pl = mirror_placement(app, x)
    source = app.slits()[slit - 1]
    return pl.center, reflect_direction(unit(pl.center - source), pl.normal)


class TestDetectorLayouts:
    def test_matches_reflected_central_rays(self, app, f_s):
        unequal = Apparatus(arm1=0.3, arm2=7.0, aperture=2e-3, mirror_angle=0.9)
        xs = np.linspace(-3 * f_s, 3 * f_s, 13)
        for a in (app, unequal):
            lay = geometry.detector_layouts(a, xs)
            for i, x in enumerate(xs):
                for k, arm in ((0, a.arm1), (1, a.arm2)):
                    center, d = central_ray(a, x, k + 1)
                    det = center + arm * d
                    edge = a.aperture / 2 * np.array([-d[1], d[0]])
                    np.testing.assert_allclose(lay.directions[i, k], d, rtol=0, atol=1e-15)
                    np.testing.assert_allclose(lay.detectors[i, k], det, rtol=0, atol=1e-14)
                    np.testing.assert_allclose(lay.left[i, k], det + edge, rtol=0, atol=1e-14)
                    np.testing.assert_allclose(lay.right[i, k], det - edge, rtol=0, atol=1e-14)

    def test_reports_first_blocked_ray(self):
        # shallow tilts: the layouts raise exactly when a central ray crosses
        # y = 0 within 10 slit separations, naming the first such crossing
        # in scan order, slit 1 before slit 2 at one position
        xs = np.linspace(-2e-3, 2e-3, 9)
        outcomes = set()
        for theta in np.linspace(0.001, 0.05, 80):
            app = Apparatus(mirror_angle=theta)
            hits = []
            for x in xs:
                for slit in (1, 2):
                    center, d = central_ray(app, x, slit)
                    if d[1] < 0:
                        x_hit = center[0] - center[1] * d[0] / d[1]
                        if abs(x_hit) < 10 * app.slit_separation:
                            hits.append(x_hit)
            if not hits:
                geometry.detector_layouts(app, xs)
                outcomes.add("clear")
                continue
            message = f"x={hits[0]:.3g}$"
            with pytest.raises(DiaphragmClearanceError, match=message.replace(".", r"\.")):
                geometry.detector_layouts(app, xs)
            outcomes.add("blocked")
        assert outcomes == {"clear", "blocked"}
