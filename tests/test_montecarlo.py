import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirrorslit import Apparatus, design, geometry, montecarlo
from mirrorslit.montecarlo import (
    ScanConfig,
    ScanError,
    compare_distributions,
    conventional_scan,
    simulate_scan,
)
from mirrorslit.wavemodel import (
    FringePattern,
    HypothesisKind,
    OutcomeHypothesis,
    detector_intensity,
    duality_check,
    fit_visibilities,
    fringe_spacing,
    screen_intensity,
)
from oracle import (
    acceptance_rate,
    photon_event,
    row_edges,
    traced_fractions,
    traced_outcomes,
)

FULL = OutcomeHypothesis(HypothesisKind.FULL_DUALITY)
EXCLUSIVE = OutcomeHypothesis(HypothesisKind.EXCLUSIVE)


def closed_position(app, x, n_photons, v, rng, layout):
    """Counts at one position, (n1, n2, misdetected), from one multinomial
    draw over the closed-form outcome probabilities, as ``simulate_scan``
    makes it: outcome (slit s, detector d) has probability r/2 f_sd."""
    p = 0.5 * acceptance_rate(app, x, v) * geometry.routing_fractions(app, x, layout)[..., 0].ravel()
    c11, c12, c21, c22, _ = rng.multinomial(n_photons, [*p, max(1.0 - p.sum(), 0.0)])
    return c11 + c21, c12 + c22, c12 + c21


@pytest.fixture
def config(scan_grid):
    return ScanConfig(scan_grid, photons_per_position=3000, seed=77)


class TestScanConfig:
    def test_positions_must_increase(self):
        with pytest.raises(ScanError):
            ScanConfig(np.array([0.0, 0.0, 1.0]), 10, 0)

    def test_one_position_rejected(self):
        with pytest.raises(ScanError, match="at least two scan positions"):
            ScanConfig(np.array([0.0]), 10, 0)

    def test_photon_count_positive(self, scan_grid):
        with pytest.raises(ScanError):
            ScanConfig(scan_grid, 0, 0)

    def test_negative_seed_rejected(self, scan_grid):
        with pytest.raises(ScanError):
            ScanConfig(scan_grid, 10, -1)

    @pytest.mark.parametrize("photons", [10**19, 10**30])
    def test_photon_count_fits_int64(self, scan_grid, photons):
        # numpy draws counts as int64: 1e19 and 1e30 would overflow
        with pytest.raises(ScanError, match="photons_per_position"):
            ScanConfig(scan_grid, photons, 0)

    def test_default_grid_accepted_without_warning(self, app, scan_grid):
        # 41 positions over +-3 F_s, 0.15 F_s apart
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ScanConfig(scan_grid, 10, 0).check_sampling(app)

    def test_coarse_grid_rejected(self, app, f_s):
        cfg = ScanConfig(np.linspace(-3 * f_s, 3 * f_s, 7), 10, 0)
        with pytest.raises(ScanError):
            cfg.check_sampling(app)


class TestPhotonEvent:
    def test_no_misdetection_on_bench_design(self, app):
        rng = np.random.default_rng(3)
        edges = row_edges(geometry.detector_layouts(app, 0.0))
        for _ in range(2000):
            detector, slit, mis = photon_event(app, 0.0, FULL, rng, edges)
            assert not mis
            if detector:
                assert detector == slit

    def test_exclusive_acceptance_is_one_half(self, app, f_s):
        rng = np.random.default_rng(4)
        edges = row_edges(geometry.detector_layouts(app, f_s / 2))
        detected = sum(
            1
            for _ in range(4000)
            if photon_event(app, f_s / 2, EXCLUSIVE, rng, edges)[0] == 0
        )
        # "none" includes both rate rejection (1/2) and aperture misses
        assert detected / 4000 > 0.5

    def test_full_duality_accepts_nearly_all_at_center(self, app):
        assert acceptance_rate(app, 0.0, 1.0) == pytest.approx(1.0, abs=1e-5)
        assert acceptance_rate(app, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def assert_matches_ray_trace(app, x, layout):
    # 2e5 rays per slit, seed 12, tolerance 5 sigma of the binomial
    # estimate around the closed form (exact agreement where it is 0)
    n_rays = 200_000
    exact = geometry.routing_fractions(app, x, layout)[..., 0]
    traced = traced_fractions(app, x, row_edges(layout), n_rays, np.random.default_rng(12))
    sigma = np.sqrt(exact * (1.0 - exact) / n_rays)
    assert np.all(np.abs(traced - exact) <= 5.0 * sigma), (exact, traced)


class TestClosedFormRouting:
    @pytest.mark.parametrize("width", [0.10e-3, 0.26e-3, 0.60e-3])
    @pytest.mark.parametrize("x_over_fs", [0.0, 0.05, 0.2, 3.0])
    @pytest.mark.parametrize("frozen", [False, True], ids=["reaimed", "frozen"])
    def test_matches_ray_trace(self, app, f_s, width, x_over_fs, frozen):
        # The frozen layout off-centre (F_s/20, F_s/5) is where the mirror
        # ends clip the intervals and slit 1 is routed into detector 2.
        app = replace(app, mirror_width=width)
        x = x_over_fs * f_s
        layout = geometry.detector_layouts(app, 0.0 if frozen else x)
        assert_matches_ray_trace(app, x, layout)

    @pytest.mark.parametrize(
        "changes",
        [
            # detector 2 behind detector 1: some rays cross both apertures
            {"arm2": 10.0, "aperture": 8e-3, "mirror_width": 0.26e-3},
            # apertures so close that they cross the mirror line
            {"arm1": 1e-3, "arm2": 1e-3, "aperture": 2.5e-3, "mirror_width": 6e-3},
        ],
        ids=["shadowed", "straddling"],
    )
    def test_matches_ray_trace_unusual_layouts(self, app, changes):
        app = replace(app, **changes)
        assert_matches_ray_trace(app, 0.0, geometry.detector_layouts(app, 0.0))

    @pytest.mark.parametrize(
        "width,x_over_fs,frozen",
        [(0.10e-3, 0.1, True), (0.60e-3, 3.0, False)],
        ids=["frozen-one-way", "wide-reaimed"],
    )
    def test_counts_match_per_photon_oracle(self, app, f_s, width, x_over_fs, frozen):
        # The frozen layout at F_s/10 routes slit 1 into detector 2 only, so
        # detector tallies differ from slit tallies; the 0.6 mm mirror routes
        # both ways.  Seed 13, 10^6 photons per side, partial:0.6, tolerance
        # 5 sigma of the difference of two binomial counts.
        app = replace(app, mirror_width=width)
        x = x_over_fs * f_s
        layout = geometry.detector_layouts(app, 0.0 if frozen else x)
        v = OutcomeHypothesis(HypothesisKind.PARTIAL, 0.6).visibility
        n = 1_000_000
        rng = np.random.default_rng(13)
        c11, c12, c21, c22, _ = traced_outcomes(app, x, n, v, rng, row_edges(layout))
        traced = np.array([c11 + c21, c12 + c22, c12 + c21])
        closed = np.array(closed_position(app, x, n, v, rng, layout))
        assert traced[1] > 0 and traced[2] > 0
        p = (traced + closed) / (2 * n)
        sigma = np.sqrt(2 * n * p * (1.0 - p))
        assert np.all(np.abs(traced - closed) <= 5.0 * sigma), (traced, closed)

    def test_whole_grid_in_one_call(self, app, f_s):
        # One call over a grid whose rows carry different layouts, so every
        # branch of the interval clipping runs together: re-aimed rows (the
        # intervals clipped at both mirror ends), frozen rows off-centre
        # (intervals wholly off the mirror), a shadowed detector 2 (rays
        # crossing both apertures), and frozen straddling apertures: at
        # x = 0 and -2 mm the right edge lies behind the mirror line, and
        # with the edges listed in the other order the left edge; at
        # -2.35 mm both edges lie behind, in front of the mirror's upper
        # half (empty).  Each row against 2e5 traced rays per slit, seed
        # 12, tolerance 5 sigma of the binomial estimate.
        app = replace(app, mirror_width=0.26e-3)
        shadowed = replace(app, arm2=10.0, aperture=8e-3)
        straddling = geometry.detector_layouts(
            replace(app, arm1=1e-3, arm2=1e-3, aperture=2.5e-3), np.zeros(3)
        )
        # the same apertures with their edges listed in the other order
        swapped = replace(straddling, left=straddling.right[..., 1:], right=straddling.left[..., 1:])
        rows = [
            ([0.0, 3 * f_s], geometry.detector_layouts(app, [0.0, 3 * f_s])),
            ([0.05 * f_s, 0.2 * f_s, 3 * f_s], geometry.detector_layouts(app, np.zeros(3))),
            ([0.0, 0.5 * f_s], geometry.detector_layouts(shadowed, [0.0, 0.5 * f_s])),
            ([-2.35e-3, -2e-3, 0.0], straddling),
            ([-2e-3, 0.0], swapped),
        ]
        xs = np.concatenate([x for x, _ in rows])
        layouts = replace(
            straddling,
            left=np.concatenate([layout.left for _, layout in rows], axis=-1),
            right=np.concatenate([layout.right for _, layout in rows], axis=-1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = geometry.routing_fractions(app, xs, layouts)
        assert grid.shape == (2, 2, len(xs))
        n_rays = 200_000
        rng = np.random.default_rng(12)
        for i, x in enumerate(xs):
            traced = traced_fractions(app, x, row_edges(layouts, i), n_rays, rng)
            sigma = np.sqrt(grid[..., i] * (1.0 - grid[..., i]) / n_rays)
            assert np.all(np.abs(traced - grid[..., i]) <= 5.0 * sigma), (x, grid[..., i], traced)
        # the shadowed rows route slit 1 into both detectors, the empty row
        # nowhere, the straddling rows at x = 0 everything into detector 1
        assert np.all(grid[0, :, 5:7] > 0.0)
        assert np.all(grid[..., 7] == 0.0)
        assert np.all(grid[:, 0, [9, 11]] == 1.0)

    def test_cross_routing_exactly_zero_on_bench_grid(self, app, scan_grid):
        # criterion 05 without sampling noise: on the re-aimed 41-point
        # +-3 F_s grid no mirror point sends a slit into the other detector
        for x in scan_grid:
            f = geometry.routing_fractions(app, x, geometry.detector_layouts(app, x))[..., 0]
            assert f[0, 1] == 0.0 and f[1, 0] == 0.0
            assert f[0, 0] > 0.0 and f[1, 1] > 0.0
        wide = replace(app, mirror_width=0.6e-3)
        for x in scan_grid:
            f = geometry.routing_fractions(wide, x, geometry.detector_layouts(wide, x))[..., 0]
            assert f[0, 1] > 0.0 and f[1, 0] > 0.0


class TestSimulateScan:
    def test_count_conservation(self, app, config):
        summary = simulate_scan(app, config, FULL)
        for record in summary.records:
            assert record.n == record.n1 + record.n2
            assert record.misdetected <= record.n
            assert record.n1 >= 0 and record.n2 >= 0

    def test_full_duality_recovers_fringes(self, app, config):
        summary = simulate_scan(app, config, FULL)
        assert summary.v_total >= 0.95
        assert summary.v_1 >= 0.9 and summary.v_2 >= 0.9
        assert summary.misdetection_rate == 0.0

    def test_exclusive_is_flat(self, app, config):
        summary = simulate_scan(app, config, EXCLUSIVE)
        assert summary.v_total <= 0.05

    @pytest.mark.parametrize("d", [0.0, 0.3, 0.6, 0.8, 1.0])
    def test_partial_visibility_recovery(self, app, config, d):
        summary = simulate_scan(app, config, OutcomeHypothesis(HypothesisKind.PARTIAL, d))
        expected = math.sqrt(1 - d * d)
        assert summary.v_total == pytest.approx(expected, abs=0.05)
        ok, _ = duality_check(d, min(summary.v_total, 1.0), tol=0.05)
        assert ok

    def test_deterministic(self, app, config):
        a = simulate_scan(app, config, FULL)
        b = simulate_scan(app, config, FULL)
        assert np.array_equal(a.records, b.records)
        assert a.v_total == b.v_total

    def test_judged_once_from_the_simulated_routing(self, app, config, count_calls):
        # one routing pass serves the draws and the mis-detection verdict;
        # no grazing solve, and the separation comes from the judged layouts
        routed = count_calls(geometry, "routing_fractions")
        unused = [
            count_calls(design, "validate"),
            count_calls(design, "limiting_half_width"),
            count_calls(geometry, "detector_separation"),
        ]
        summary = simulate_scan(app, config, FULL)
        assert len(routed) == 1
        assert unused == [[], [], []]
        assert summary.outcomes.verdicts.feasible
        exact, _ = geometry.detector_separation(app, 0.0)
        assert summary.outcomes.separation == exact

    @pytest.mark.parametrize("frozen", [False, True], ids=["reaimed", "frozen"])
    def test_aimed_once(self, app, config, count_calls, frozen):
        # the bench grid holds x = 0, where L12 is read, and so does the
        # frozen aim: x = 0 is aimed once
        aims = count_calls(geometry, "aim_detectors")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the frozen layout fails validation
            simulate_scan(app, replace(config, freeze_detectors=frozen), FULL)
        (_, xs), = aims
        assert np.count_nonzero(xs == 0.0) == 1
        assert len(xs) == (1 if frozen else 41)

    def test_separation_at_x0_off_the_grid(self, app, count_calls):
        # a re-aimed grid without x = 0: L12 still comes from the x = 0
        # layout, aimed once after the grid, bit for bit, and nothing fails
        grid = np.linspace(1e-4, 2.1e-3, 41)
        aims = count_calls(geometry, "aim_detectors")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = simulate_scan(app, ScanConfig(grid, 100, 0), FULL)
        (_, xs), = aims
        np.testing.assert_array_equal(xs, np.append(grid, 0.0))
        exact, _ = geometry.detector_separation(app, 0.0)
        assert summary.outcomes.separation == exact

    def test_detectors_balanced(self, app, config):
        # equal expected rates at both detectors: |N1 - N2| within 4 sigma
        summary = simulate_scan(app, config, FULL)
        for record in summary.records:
            n = record.n
            if n == 0:
                continue
            sigma = math.sqrt(n) / 2
            assert abs(record.n1 - record.n2) / 2 <= 4 * sigma + 1

    def test_wide_mirror_misdetects(self, app, config):
        wide = replace(app, mirror_width=0.6e-3)
        with pytest.warns(UserWarning):
            summary = simulate_scan(wide, config, FULL)
        assert summary.misdetection_rate > 0.0

    def test_frozen_detectors_still_conserve_counts(self, app, config):
        frozen = ScanConfig(
            config.x_positions, config.photons_per_position, config.seed, True
        )
        with pytest.warns(UserWarning, match="fails design validation"):
            summary = simulate_scan(app, frozen, FULL)
        assert sum(r.n for r in summary.records) > 0
        for record in summary.records:
            assert record.n == record.n1 + record.n2

    def test_frozen_detectors_use_the_centre_layout(self, app, config):
        # every position draws, in grid order from the scan's one stream,
        # over the x = 0 layout; off-centre that layout routes slits into
        # the wrong detector, so detector and slit tallies differ
        frozen = ScanConfig(
            config.x_positions, config.photons_per_position, config.seed, True
        )
        with pytest.warns(UserWarning, match="fails design validation"):
            summary = simulate_scan(app, frozen, FULL)
        layout = geometry.detector_layouts(app, 0.0)
        rng = np.random.default_rng(config.seed)
        for x, record in zip(config.x_positions, summary.records):
            n = config.photons_per_position
            expected = closed_position(app, x, n, 1.0, rng, layout)
            assert (record.n1, record.n2, record.misdetected) == expected
            assert record.i1_theory == record.i2_theory == detector_intensity(app, x, 1)
        assert summary.misdetection_rate > 0.0


class TestComputedOnce:
    """``simulate_scan`` evaluates the phase once, fits its three count
    columns on one design matrix and fills its records in place; every
    result equals that of the public function, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "hyp",
        [FULL, EXCLUSIVE, OutcomeHypothesis(HypothesisKind.PARTIAL, 0.6)],
        ids=["full", "exclusive", "partial-0.6"],
    )
    @pytest.mark.parametrize(
        "positions, frozen", [(41, False), (1001, False), (41, True)], ids=["41", "1001", "frozen"]
    )
    def test_equals_the_public_functions(self, app, f_s, seed, hyp, positions, frozen):
        xs = np.linspace(-3 * f_s, 3 * f_s, positions)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the frozen layout fails validation
            summary = simulate_scan(app, ScanConfig(xs, 1000, seed, frozen), hyp)
        records = summary.records
        for fitted, name in ((summary.v_total, "n"), (summary.v_1, "n1"), (summary.v_2, "n2")):
            assert fitted == fit_visibilities(xs, [records[name]], f_s)[0].visibility
        intensity = detector_intensity(app, xs, 1)
        assert np.array_equal(records.i1_theory, intensity)
        assert np.array_equal(records.i2_theory, intensity)
        rate = acceptance_rate(app, xs, hyp.visibility)
        layouts = geometry.detector_layouts(app, 0.0 if frozen else xs)
        fractions = geometry.routing_fractions(app, xs, layouts)
        table = summary.outcomes.table
        assert np.array_equal(summary.outcomes.rate, rate)
        assert np.array_equal(table[:, :4].T, 0.5 * rate * fractions.reshape(4, -1))
        # the counts are the one draw from the returned table
        c11, c12, c21, c22, _ = np.random.default_rng(seed).multinomial(1000, table).T
        assert np.array_equal(records.n1, c11 + c21) and np.array_equal(records.n2, c12 + c22)
        assert np.array_equal(records.misdetected, c12 + c21)
        assert records.dtype.names == ("x", "n", "n1", "n2", "misdetected", "i1_theory", "i2_theory")
        assert np.array_equal(records.x, xs)


class TestOutcomeTable:
    """``outcomes``' table of outcome probabilities, a row per position."""

    PARTIAL = OutcomeHypothesis(HypothesisKind.PARTIAL, 0.6)

    @pytest.mark.parametrize(
        "hyp", [FULL, EXCLUSIVE, PARTIAL], ids=["full", "exclusive", "partial-0.6"]
    )
    @pytest.mark.parametrize("frozen", [False, True], ids=["reaimed", "frozen"])
    def test_rows_sum_to_one(self, f_s, hyp, frozen):
        # the bench, the 0.6 mm mirror, and apertures that straddle the
        # mirror line, so that near x = 0 detector 1 takes the whole mirror
        # from both slits; five terms summed exactly (math.fsum): within 2
        # ulps of 1
        xs = np.linspace(-3 * f_s, 3 * f_s, 1001)
        benches = [
            Apparatus(),
            Apparatus(mirror_width=0.6e-3),
            Apparatus(arm1=1e-3, arm2=1e-3, aperture=2.5e-3, mirror_width=0.26e-3),
        ]
        for app in benches:
            table = montecarlo.outcomes(app, ScanConfig(xs, 1000, 0, frozen), hyp).table
            assert table.shape == (len(xs), 5)
            assert np.all((table >= 0.0) & (table <= 1.0))
            sums = np.array([math.fsum(row) for row in table])
            assert np.all(np.abs(sums - 1.0) <= 2 * np.spacing(1.0)), np.abs(sums - 1.0).max()

    @pytest.mark.parametrize("frozen", [False, True], ids=["reaimed", "frozen"])
    def test_photons_times_table_match_the_tracer(self, app, f_s, frozen):
        # the 0.6 mm mirror routes each slit into both detectors; at 11
        # positions over [-F_s, F_s], partial:0.6, 2e5 traced photons per
        # position, seed 15: each outcome's count within 5 sigma of the
        # binomial mean n p, and exactly n p where p is 0
        app = replace(app, mirror_width=0.6e-3)
        xs = np.linspace(-f_s, f_s, 11)
        n = 200_000
        scan = montecarlo.outcomes(app, ScanConfig(xs, n, 0, frozen), self.PARTIAL)
        layouts = geometry.detector_layouts(app, 0.0 if frozen else xs)
        v = self.PARTIAL.visibility
        rng = np.random.default_rng(15)
        for i, (x, p) in enumerate(zip(xs, scan.table)):
            traced = traced_outcomes(app, x, n, v, rng, row_edges(layouts, 0 if frozen else i))
            sigma = np.sqrt(n * p * (1.0 - p))
            assert np.all(np.abs(traced - n * p) <= 5.0 * sigma), (x, traced, n * p)
        assert scan.fractions[[0, 1], [1, 0]].any(axis=-1).all()  # f12 and f21 somewhere


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 1, 10**41]


def assert_simulate_draws_in_grid_order(app, config):
    """``simulate_scan``'s counts are one ``closed_position`` per position,
    drawn in grid order from one ``default_rng(config.seed)``."""
    summary = simulate_scan(app, config, FULL)
    rng = np.random.default_rng(config.seed)
    n = config.photons_per_position
    for x, record in zip(config.x_positions, summary.records):
        expected = closed_position(app, x, n, 1.0, rng, geometry.detector_layouts(app, x))
        assert (record.n1, record.n2, record.misdetected) == expected


def assert_conventional_draws_in_grid_order(app, config):
    """``conventional_scan``'s counts are one scalar binomial per position,
    drawn in grid order from one ``default_rng(config.seed)``."""
    pattern = conventional_scan(app, config)
    rng = np.random.default_rng(config.seed)
    rates = screen_intensity(app, config.x_positions) / 4.0
    expected = [rng.binomial(config.photons_per_position, r) for r in rates]
    assert pattern.intensities.tolist() == expected


class TestPositionStreams:
    """A scan draws every position's counts in one call on one generator,
    ``np.random.default_rng(seed)``; the references draw the same rows one
    at a time.  Seeds of one to five 32-bit words: 2**96 + 1 and 10**41
    overrun SeedSequence's four-word pool."""

    @pytest.mark.parametrize("n", [1, 2, 41, 1001])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_match_numpy_seeding(self, seed, n):
        # one 2-D multinomial and one vector binomial over n rows equal n
        # row draws in sequence, up to the largest photon count
        table = np.random.default_rng(n).dirichlet(np.ones(5), size=n)
        for photons in (3000, 2**63 - 1):
            rng = np.random.default_rng(seed)
            rows = [rng.multinomial(photons, row).tolist() for row in table]
            rates = [rng.binomial(photons, rate) for rate in table[:, 0]]
            rng = np.random.default_rng(seed)
            assert rng.multinomial(photons, table).tolist() == rows
            assert rng.binomial(photons, table[:, 0]).tolist() == rates

    @given(st.integers(0, 2**160), st.integers(2, 50))
    def test_any_seed(self, seed, n):
        app = geometry.Apparatus()
        grid = np.arange(n) * fringe_spacing(app) / 4
        assert_conventional_draws_in_grid_order(app, ScanConfig(grid, 3000, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_simulate_scan_every_seed(self, app, scan_grid, seed):
        assert_simulate_draws_in_grid_order(app, ScanConfig(scan_grid, 3000, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conventional_scan_every_seed(self, app, scan_grid, seed):
        assert_conventional_draws_in_grid_order(app, ScanConfig(scan_grid, 3000, seed))

    def test_simulate_scan_above_2_64(self, app, scan_grid):
        assert_simulate_draws_in_grid_order(app, ScanConfig(scan_grid, 3000, 2**64 + 77))

    def test_conventional_scan_above_2_64(self, app, scan_grid):
        assert_conventional_draws_in_grid_order(app, ScanConfig(scan_grid, 3000, 2**64 + 77))


class TestConventionalScan:
    def test_recovers_high_visibility(self, app, scan_grid, f_s):
        pattern = conventional_scan(app, ScanConfig(scan_grid, 10_000, 5))
        fit = fit_visibilities(pattern.positions, [pattern.intensities], f_s)[0]
        assert fit.visibility >= 0.95

    def test_peak_spacing_matches_fringe_period(self, app, f_s):
        grid = np.linspace(-3 * f_s, 3 * f_s, 241)
        pattern = conventional_scan(app, ScanConfig(grid, 20_000, 6))
        counts = pattern.intensities
        peaks = []
        for k in range(-3, 4):
            window = np.abs(grid - k * f_s) < 0.3 * f_s
            peaks.append(grid[window][np.argmax(counts[window])])
        gaps = np.diff(peaks)
        assert np.all(np.abs(gaps - f_s) < 0.02 * f_s)

    def test_even_within_poisson_bands(self, app, f_s):
        grid = np.linspace(-3 * f_s, 3 * f_s, 43)
        pattern = conventional_scan(app, ScanConfig(grid, 10_000, 8))
        counts = pattern.intensities
        for left, right in zip(counts, counts[::-1]):
            sigma = math.sqrt(max(left + right, 1.0))
            assert abs(left - right) <= 3 * sigma


    def test_counts_follow_the_screen_rate(self, app, scan_grid):
        # seed 14, 10^5 photons per position: each count within 5 sigma of
        # the binomial mean n I/4, and the total within 5 sigma of its sum
        from mirrorslit.wavemodel import screen_intensity

        n = 100_000
        pattern = conventional_scan(app, ScanConfig(scan_grid, n, 14))
        rate = screen_intensity(app, scan_grid) / 4.0
        variance = n * rate * (1.0 - rate)
        deviation = pattern.intensities - n * rate
        assert np.all(np.abs(deviation) <= 5.0 * np.sqrt(variance))
        assert abs(deviation.sum()) <= 5.0 * math.sqrt(variance.sum())


class TestCompareDistributions:
    def test_identity_is_zero(self, app, scan_grid):
        cfg = ScanConfig(scan_grid, 2000, 9)
        summary = simulate_scan(app, cfg, FULL)
        pattern = FringePattern(scan_grid, summary.counts())
        chi2, compatible = compare_distributions(pattern, summary)
        assert chi2 == 0.0
        assert compatible

    def test_full_duality_compatible_with_reference(self, app, scan_grid):
        cfg = ScanConfig(scan_grid, 10_000, 10)
        reference = conventional_scan(app, cfg)
        summary = simulate_scan(app, cfg, FULL)
        chi2, compatible = compare_distributions(reference, summary)
        assert compatible, f"chi2/dof = {chi2}"

    def test_exclusive_incompatible_with_reference(self, app, scan_grid):
        cfg = ScanConfig(scan_grid, 10_000, 10)
        reference = conventional_scan(app, cfg)
        summary = simulate_scan(app, cfg, EXCLUSIVE)
        chi2, compatible = compare_distributions(reference, summary)
        assert not compatible
        assert chi2 > 10

    def test_empty_reference_rejected(self, app, scan_grid, config):
        summary = simulate_scan(app, config, FULL)
        empty = FringePattern(scan_grid, np.zeros(len(scan_grid)))
        with pytest.raises(ScanError, match="no counts"):
            compare_distributions(empty, summary)

    def test_one_populated_bin_rejected(self, app, scan_grid, config):
        summary = simulate_scan(app, config, FULL)
        counts = np.zeros(len(scan_grid))
        counts[20] = 100.0
        with pytest.raises(ScanError, match="not enough populated bins"):
            compare_distributions(FringePattern(scan_grid, counts), summary)

    def test_grid_mismatch_rejected(self, app, scan_grid):
        cfg = ScanConfig(scan_grid, 500, 11)
        summary = simulate_scan(app, cfg, FULL)
        other = FringePattern(scan_grid[:-1], np.ones(len(scan_grid) - 1))
        with pytest.raises(ScanError):
            compare_distributions(other, summary)
