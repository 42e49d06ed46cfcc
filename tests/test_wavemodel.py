import math

import numpy as np
import pytest

from mirrorslit import wavemodel
from mirrorslit.geometry import Apparatus
from mirrorslit.wavemodel import (
    FitError,
    FringePattern,
    HypothesisKind,
    OutcomeHypothesis,
    detector_intensity,
    duality_check,
    fit_visibilities,
    fringe_spacing,
    screen_intensity,
)
from oracle import visibility


class TestFringeSpacing:
    def test_bench_values(self, app):
        assert fringe_spacing(app) == pytest.approx(0.7e-3, abs=1e-6)

    def test_inverse_in_slit_separation(self, app):
        halved = Apparatus(slit_separation=2 * app.slit_separation)
        assert fringe_spacing(halved) == pytest.approx(fringe_spacing(app) / 2, rel=1e-12)

    def test_proportional_to_wavelength(self, app):
        blue = Apparatus(wavelength=350e-9)
        assert fringe_spacing(blue) == pytest.approx(0.35e-3, abs=1e-6)


class TestScreenIntensity:
    def test_central_maximum(self, app):
        assert screen_intensity(app, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_near_zero_at_half_period(self, app, f_s):
        assert screen_intensity(app, f_s / 2) < 0.05

    def test_first_side_maximum(self, app, f_s):
        assert screen_intensity(app, f_s) > 3.95

    def test_bounded(self, app, f_s):
        xs = np.linspace(-3 * f_s, 3 * f_s, 400)
        vals = screen_intensity(app, xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 4.0)
        assert np.max(vals) > 4.0 - 1e-6

    def test_even_in_x(self, app, f_s):
        for x in np.linspace(0.0, 3 * f_s, 37):
            assert abs(screen_intensity(app, x) - screen_intensity(app, -x)) < 1e-9

    def test_maxima_spaced_by_fringe_period(self, app, f_s):
        xs = np.linspace(-3 * f_s, 3 * f_s, 60001)
        vals = screen_intensity(app, xs)
        interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        peaks = xs[1:-1][interior]
        gaps = np.diff(peaks)
        assert np.all(np.abs(gaps - f_s) < 0.005 * f_s)


class TestDetectorIntensity:
    def test_detectors_identical(self, app, f_s):
        for x in np.linspace(-3 * f_s, 3 * f_s, 25):
            assert detector_intensity(app, x, 1) == detector_intensity(app, x, 2)

    def test_close_to_screen_pattern(self, app, f_s):
        i_det = detector_intensity(app, f_s, 1)
        i_screen = screen_intensity(app, f_s)
        assert abs(i_det - i_screen) / i_screen < 0.01

    def test_residual_phase_at_center(self, app):
        i0 = detector_intensity(app, 0.0, 1)
        assert i0 < 4.0
        assert i0 == pytest.approx(4.0, abs=1e-5)

    def test_bad_index(self, app):
        with pytest.raises(ValueError):
            detector_intensity(app, 0.0, 3)

    def test_array_matches_pointwise(self, app, f_s):
        xs = np.linspace(-3 * f_s, 3 * f_s, 1001)
        for which in (1, 2):
            pointwise = [detector_intensity(app, x, which) for x in xs.tolist()]
            assert all(isinstance(v, float) for v in pointwise)
            np.testing.assert_array_equal(detector_intensity(app, xs, which), pointwise)

    def test_phase_shift_much_smaller_than_path_phase(self, app, f_s):
        from mirrorslit.geometry import incidence_angles, path_lengths

        k = wavemodel.wave_number(app)
        for x in np.linspace(f_s / 10, 3 * f_s, 80):
            d1, d2 = path_lengths(app, x)
            g1, g2 = incidence_angles(app, x)
            assert abs(2 * (g1 - g2)) < 0.1 * abs(k * (d1 - d2))


class TestPhase:
    def test_matches_hand_formula(self, app, f_s):
        # k (|M - S1| - |M - S2|) + 2 (gamma1 - gamma2), gamma_i the signed
        # angle from the mirror normal (-sin t, -cos t) to the ray toward slit i
        half, length, tilt = app.slit_separation / 2, app.screen_distance, app.mirror_angle
        n0, n1 = -math.sin(tilt), -math.cos(tilt)
        xs = np.linspace(-3 * f_s, 3 * f_s, 31)
        expected = []
        for x in xs:
            gamma = [
                math.atan2(n0 * -length - n1 * (s - x), n0 * (s - x) + n1 * -length)
                for s in (half, -half)
            ]
            path = math.hypot(x - half, length) - math.hypot(x + half, length)
            expected.append(wavemodel.wave_number(app) * path + 2 * (gamma[0] - gamma[1]))
        np.testing.assert_allclose(wavemodel.phases(app, xs)[1], expected, rtol=0, atol=1e-9)
        for x, phi in zip(xs, expected):
            assert detector_intensity(app, x, 1) == pytest.approx(
                2 * (1 + math.cos(phi)), abs=1e-9
            )


class TestVisibility:
    def test_full_contrast_cosine(self):
        x = np.linspace(0.0, 2.0, 65)  # grid hits both extrema exactly
        pattern = FringePattern(x, 1 + np.cos(2 * np.pi * x))
        assert visibility(pattern) == pytest.approx(1.0, abs=1e-9)

    def test_constant_pattern(self):
        x = np.linspace(0.0, 2.0, 64)
        assert visibility(FringePattern(x, np.full_like(x, 3.0))) == 0.0

    def test_half_contrast(self):
        x = np.linspace(0.0, 2.0, 256)
        pattern = FringePattern(x, 1 + 0.5 * np.cos(2 * np.pi * x))
        assert visibility(pattern) == pytest.approx(0.5, abs=1e-3)

    def test_empty_pattern_rejected(self):
        with pytest.raises(FitError):
            visibility(FringePattern(np.array([]), np.array([])))


class TestFitVisibility:
    def test_recovers_full_contrast(self):
        x = np.linspace(-2.0, 2.0, 128)
        fit = fit_visibilities(x, [1 + np.cos(2 * np.pi * x)], 1.0)[0]
        assert fit.visibility == pytest.approx(1.0, abs=1e-6)
        assert fit.baseline == pytest.approx(1.0, abs=1e-6)
        assert fit.rms_residual < 1e-9

    def test_recovers_flat(self):
        x = np.linspace(-2.0, 2.0, 128)
        fit = fit_visibilities(x, [np.full_like(x, 5.0)], 1.0)[0]
        assert fit.visibility == pytest.approx(0.0, abs=1e-6)

    def test_poisson_counts_recover_contrast(self):
        rng = np.random.default_rng(1234)
        x = np.linspace(-2.0, 2.0, 81)
        mean = 1000 * (1 + 0.8 * np.cos(2 * np.pi * x + 0.3))
        counts = rng.poisson(mean).astype(float)
        fit = fit_visibilities(x, [counts], 1.0)[0]
        assert fit.visibility == pytest.approx(0.8, abs=0.05)

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_period_must_be_positive(self, period):
        x = np.linspace(-2.0, 2.0, 128)
        with pytest.raises(FitError, match="period must be positive"):
            fit_visibilities(x, [np.ones_like(x)], period)

    def test_too_few_samples(self):
        x = np.linspace(-2.0, 2.0, 6)
        with pytest.raises(FitError):
            fit_visibilities(x, [np.ones_like(x)], 1.0)

    def test_too_short_span(self):
        x = np.linspace(0.0, 1.5, 64)
        with pytest.raises(FitError):
            fit_visibilities(x, [np.ones_like(x)], 1.0)

    def test_exact_screen_pattern_high_contrast(self, app, f_s):
        xs = np.linspace(-3 * f_s, 3 * f_s, 121)
        fit = fit_visibilities(xs, [screen_intensity(app, xs)], f_s)[0]
        assert fit.visibility >= 0.99


class TestDuality:
    def test_pure_particle(self):
        ok, slack = duality_check(1.0, 0.0)
        assert ok and slack == pytest.approx(0.0, abs=1e-12)

    def test_pure_wave(self):
        ok, slack = duality_check(0.0, 1.0)
        assert ok and slack == pytest.approx(0.0, abs=1e-12)

    def test_violation(self):
        ok, slack = duality_check(0.8, 0.8)
        assert not ok
        assert slack == pytest.approx(1 - 0.64 - 0.64, abs=1e-12)


class TestHypothesisVisibility:
    def test_full_duality(self):
        assert OutcomeHypothesis(HypothesisKind.FULL_DUALITY).visibility == 1.0

    def test_exclusive(self):
        assert OutcomeHypothesis(HypothesisKind.EXCLUSIVE).visibility == 0.0

    def test_partial_on_duality_boundary(self):
        hyp = OutcomeHypothesis(HypothesisKind.PARTIAL, 0.6)
        assert hyp.visibility == pytest.approx(0.8, abs=1e-12)

    def test_distinguishability_validated(self):
        with pytest.raises(ValueError):
            OutcomeHypothesis(HypothesisKind.PARTIAL, 1.5)


class TestFringePattern:
    def test_requires_increasing_positions(self):
        with pytest.raises(ValueError):
            FringePattern(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching 1D arrays"):
            FringePattern(np.array([0.0, 1.0]), np.ones(3))

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            FringePattern(np.array([0.0, 1.0]), np.array([1.0, -0.1]))
