import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirrorslit import geometry
from mirrorslit.geometry import (
    Apparatus,
    DiaphragmClearanceError,
    GrazingIncidenceError,
)
from mirrorslit.wavemodel import fringe_spacing
from oracle import (
    OffMirrorError,
    clearance_angles,
    coordinate_last_fractions,
    coordinate_last_layouts,
    mirror_axes,
    mirror_placement,
    point,
    reflect_direction,
    signed_angle,
    slits,
    unit,
)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_kernels_reject_non_finite_positions(app, bad):
    xs = np.array([0.0, bad])
    layouts = geometry.aim_detectors(app, 0.0)
    for kernel in (
        lambda: geometry.aim_detectors(app, xs),
        lambda: geometry.mirror_footprint(app, xs),
        lambda: geometry.routing_fractions(app, xs, layouts),
    ):
        with pytest.raises(geometry.GeometryError, match=f"^non-finite coordinates: {bad}$"):
            kernel()


class TestApparatus:
    def test_mirror_angle_inside_quadrant(self):
        with pytest.raises(geometry.GeometryError,
                           match=r"^apparatus\.mirror_angle must lie in \(0, pi/2\), got 2\.0$"):
            Apparatus(mirror_angle=2.0)

    def test_lengths_strictly_positive(self):
        with pytest.raises(geometry.GeometryError, match=r"^wavelength must be strictly positive, got -1e-09$"):
            Apparatus(wavelength=-1e-9)

    def test_batch_fields_of_one_length(self):
        with pytest.raises(geometry.GeometryError, match="of one length"):
            Apparatus(wavelength=np.array([7e-7, 8e-7]), arm1=np.array([5.0, 6.0, 7.0]))


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
            # positions-last: the coordinate on axis 0, the four points last
            t, h = geometry.mirror_frame(
                app, pl.center[:, None], np.array([pl.end_low, pl.end_high, *slits(app)]).T
            )
            half = app.mirror_width / 2
            np.testing.assert_allclose(t[:2], [-half, half], rtol=1e-12)
            np.testing.assert_allclose(h[:2], 0.0, atol=1e-16)
            assert np.all(h[2:] > 0)

    def test_image_is_the_reflected_point(self, app):
        # the image of a slit, rebuilt from the frame, sends the reflected
        # ray through any mirror point along the specular direction
        pl = mirror_placement(app, 1e-3)
        along, normal = mirror_axes(app)
        for slit in slits(app):
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
                s1, s2 = slits(a)
                n, c = pl.normal, pl.center
                assert a1 == pytest.approx(signed_angle(n, s1 - c), abs=1e-15)
                assert a2 == pytest.approx(signed_angle(n, s2 - c), abs=1e-15)

    def test_vanishes_far_away(self, app):
        g1, g2 = geometry.incidence_angles(app, 100.0)
        assert g1 - g2 < 1e-8


class TestDetectorLayout:
    def test_arm_lengths_exact(self, app):
        detectors = geometry.detector_layouts(app, 0.0).detectors
        d1, d2 = detectors[:, 0, 0], detectors[:, 1, 0]
        m0 = point(0.0, app.screen_distance)
        assert np.linalg.norm(d1 - m0) == pytest.approx(app.arm1, rel=1e-12)
        assert np.linalg.norm(d2 - m0) == pytest.approx(app.arm2, rel=1e-12)

    def test_five_millimeter_separation(self, app):
        detectors = geometry.detector_layouts(app, 0.0).detectors
        d1, d2 = detectors[:, 0, 0], detectors[:, 1, 0]
        assert np.linalg.norm(d1 - d2) == pytest.approx(5e-3, rel=0.05)

    def test_aperture_widths(self, app):
        lay = geometry.detector_layouts(app, 0.0)
        d1_left, d2_left = lay.left[:, 0, 0], lay.left[:, 1, 0]
        d1_right, d2_right = lay.right[:, 0, 0], lay.right[:, 1, 0]
        assert np.linalg.norm(d1_left - d1_right) == pytest.approx(1e-3, rel=1e-12)
        assert np.linalg.norm(d2_left - d2_right) == pytest.approx(1e-3, rel=1e-12)
        # aperture is perpendicular to the arriving central ray
        assert abs(np.dot(d1_left - d1_right, lay.directions[:, 0, 0])) < 1e-15

    def test_shallow_mirror_fails_clearance(self):
        app = Apparatus(mirror_angle=0.004)
        with pytest.raises(DiaphragmClearanceError):
            geometry.detector_layouts(app, 0.0)

    def test_grazing_tolerance(self, app):
        # tilts just past atan(2L/d), where slit 1 lies on the mirror line:
        # |v.n| for slit 1's central ray is 1e-8, 3e-10, 1e-11 and 4e-18, so
        # only the first tilt clears the 1e-9 tolerance, and the layout marks
        # slit 1 grazing exactly where the per-point reflection refuses it
        on_mirror_line = math.atan(2 * app.screen_distance / app.slit_separation)
        marked, refused = [], []
        for delta in (1e-8, 3e-10, 1e-11, 0.0):
            tilted = Apparatus(mirror_angle=on_mirror_line + delta)
            marked.append(bool(geometry.aim_detectors(tilted, 0.0).grazing[0, 0]))
            try:
                central_ray(tilted, 0.0, 1)
                refused.append(False)
            except GrazingIncidenceError:
                refused.append(True)
        assert marked == refused == [False, True, True, True]


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


# the x = 0 layout of this apparatus sends a reflected beam into the
# diaphragm, while its layouts on [4.9e-4, 3.0e-3] m clear
BLOCKED_AT_ZERO = dict(
    mirror_angle=0.002508672859226761,
    slit_separation=1.9366792042939736e-05,
    screen_distance=0.02734422723576615,
)


class TestSeparations:
    """L12 is NaN exactly where the layout it is read at fails, and
    elsewhere ``detector_separation``'s exact value, bit for bit."""

    @staticmethod
    def assert_rule(separations, failed, exact):
        assert np.array_equal(np.isnan(separations), failed) and failed.any() and not failed.all()
        assert separations[~failed].tolist() == [exact(i) for i in np.flatnonzero(~failed)]

    def test_grid_blocked_at_zero(self):
        app = Apparatus(**BLOCKED_AT_ZERO)
        xs = np.concatenate([[0.0], np.linspace(4.941695822053874e-4, 2.9650174932323247e-3, 5)])
        layouts = geometry.aim_detectors(app, xs)
        separations = np.array([geometry.separations(layouts, row) for row in range(len(xs))])
        self.assert_rule(separations, layouts.failed(),
                         lambda i: geometry.detector_separation(app, xs[i])[0])

    def test_batch_with_a_failing_candidate(self):
        # the bench, the apparatus blocked at x = 0, and the bench with a short arm
        bench = vars(Apparatus())
        fields = {k: np.array([bench[k], v, bench[k]]) for k, v in BLOCKED_AT_ZERO.items()}
        batch = Apparatus(**fields, arm1=np.array([5.0, 5.0, 0.3]))
        layouts = geometry.aim_detectors(batch, 0.0)
        self.assert_rule(geometry.separations(layouts), layouts.failed()[:, 0],
                         lambda i: geometry.detector_separation(candidate(batch, i), 0.0)[0])


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
    source = slits(app)[slit - 1]
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
                    np.testing.assert_allclose(lay.directions[:, k, i], d, rtol=0, atol=1e-15)
                    np.testing.assert_allclose(lay.detectors[:, k, i], det, rtol=0, atol=1e-14)
                    np.testing.assert_allclose(lay.left[:, k, i], det + edge, rtol=0, atol=1e-14)
                    np.testing.assert_allclose(lay.right[:, k, i], det - edge, rtol=0, atol=1e-14)

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


def test_negative_half_never_worse():
    # validate and search judge [0, x_max] only, while simulate judges the
    # [-x_max, x_max] grid it scans: over random apparatus (seed 11), the
    # mirrored grid -xs fails clearance, or routes a slit into the other
    # slit's detector, only where xs does too
    rng = np.random.default_rng(11)
    n = 2_000

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    app = Apparatus(
        wavelength=rng.uniform(0.4e-6, 0.9e-6, n),
        slit_separation=log_uniform(10e-6, 1e-3),
        screen_distance=log_uniform(0.01, 1.0),
        mirror_width=log_uniform(10e-6, 3e-3),
        mirror_angle=rng.uniform(0.05, 1.5, n),
        arm1=log_uniform(0.1, 10.0),
        arm2=log_uniform(0.1, 10.0),
        aperture=log_uniform(0.1e-3, 30e-3),
    )
    xs = (rng.uniform(2.1, 6.0, n) * fringe_spacing(app))[:, None] * np.linspace(0.0, 1.0, 61)

    def failures(grid):
        layouts = geometry.aim_detectors(app, grid)
        fractions = geometry.routing_fractions(app, grid, layouts)
        return layouts.failed().any(axis=-1), fractions[[0, 1], [1, 0]].any(axis=(0, -1))

    positive, negative = failures(xs), failures(-xs)
    for pos, neg in zip(positive, negative):
        assert not (neg & ~pos).any()
        assert (pos & ~neg).any()  # the positive half is the stricter one


def random_batch(rng, n: int) -> Apparatus:
    """n random apparatus, shallow and steep tilts included, so that some
    layouts graze or re-enter the diaphragm."""

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    return Apparatus(
        wavelength=rng.uniform(0.4e-6, 0.9e-6, n),
        slit_separation=log_uniform(10e-6, 1e-3),
        screen_distance=log_uniform(0.01, 1.0),
        mirror_width=log_uniform(10e-6, 3e-3),
        mirror_angle=rng.uniform(0.01, 1.56, n),
        arm1=log_uniform(1e-3, 10.0),
        arm2=log_uniform(1e-3, 10.0),
        aperture=log_uniform(0.1e-3, 30e-3),
    )


def candidate(batch: Apparatus, i: int) -> Apparatus:
    fields = vars(batch).items()
    return Apparatus(**{k: float(v[i]) if np.ndim(v) else v for k, v in fields})


class TestPositionsLastKernels:
    """The positions-last kernels against the coordinate-last formulas kept
    in tests/oracle.py, which return their arrays in the same order: equal
    arrays, signs of zeros included."""

    FIELDS = ("centers", "directions", "detectors", "left", "right", "grazing", "blocked", "x_hit")

    @staticmethod
    def assert_same(a, b):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def check(self, app, xs, aim_at=None):
        aim_at = xs if aim_at is None else aim_at
        layouts, expected = geometry.aim_detectors(app, aim_at), coordinate_last_layouts(app, aim_at)
        for name in self.FIELDS:
            self.assert_same(getattr(layouts, name), getattr(expected, name))
        self.assert_same(
            geometry.routing_fractions(app, xs, layouts), coordinate_last_fractions(app, xs, expected)
        )
        return layouts

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_and_batched(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, 12)
        f_s = fringe_spacing(batch)
        grid = np.linspace(-3.0, 3.0, 41) * np.median(f_s)
        own = rng.uniform(-6.0, 6.0, (12, 5)) * f_s[:, None]
        self.check(batch, grid)
        layouts = self.check(batch, own)
        for i in range(12):
            single = candidate(batch, i)
            self.check(single, grid)
            # the (1, 2) @ (2, 1) BLAS dot: a batch row and the single
            # apparatus agree to the last bit
            for row in range(5):
                expected = geometry.separations(geometry.aim_detectors(single, own[i]), row)
                self.assert_same(geometry.separations(layouts, row)[i], expected)

    def test_frozen_one_row_layout(self, app, f_s):
        grid = np.linspace(-3.0 * f_s, 3.0 * f_s, 41)
        for a in (app, Apparatus(mirror_width=0.6e-3, mirror_angle=0.9)):
            self.check(a, grid, aim_at=0.0)
        self.check(random_batch(np.random.default_rng(3), 8), grid, aim_at=0.0)


class TestLayoutContract:
    """Every ``DetectorLayouts`` field and the routing fractions come in the
    documented positions-last shape, vector axes first and the positions
    last, each a C-contiguous array of its own rather than a view."""

    @staticmethod
    def assert_stored(a, shape):
        assert a.shape == shape and a.flags.c_contiguous and a.base is None

    def check(self, app, aim_at, xs, batch: tuple):
        layouts = geometry.aim_detectors(app, aim_at)
        n = np.size(aim_at)
        self.assert_stored(layouts.centers, (2, *batch, n))
        for name in ("directions", "detectors", "left", "right"):
            self.assert_stored(getattr(layouts, name), (2, 2, *batch, n))
        for name in ("grazing", "blocked", "x_hit"):
            self.assert_stored(getattr(layouts, name), (2, *batch, n))
        fractions = geometry.routing_fractions(app, xs, layouts)
        self.assert_stored(fractions, (2, 2, *batch, len(xs)))

    @pytest.mark.parametrize("frozen", [False, True], ids=["reaimed", "frozen"])
    def test_one_apparatus_and_a_batch(self, app, f_s, frozen):
        xs = np.linspace(0.0, 3 * f_s, 5)
        aim_at = 0.0 if frozen else xs
        self.check(app, aim_at, xs, ())
        batch = Apparatus(arm1=np.array([1.0, 2.0, 5.0]), aperture=np.array([1e-3, 2e-3, 3e-3]))
        self.check(batch, aim_at, xs, (3,))

    def test_frozen_layout_through_detector_layouts(self, app, f_s):
        layouts = geometry.detector_layouts(app, 0.0)
        self.assert_stored(layouts.centers, (2, 1))
        self.assert_stored(layouts.right, (2, 2, 1))
        self.assert_stored(layouts.x_hit, (2, 1))
        xs = np.linspace(-3 * f_s, 3 * f_s, 5)
        self.assert_stored(geometry.routing_fractions(app, xs, layouts), (2, 2, 5))
