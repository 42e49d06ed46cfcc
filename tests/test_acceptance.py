"""End-to-end acceptance checks for the standard bench design.

Each test is one acceptance criterion; the conftest hook prints a single
PASS/FAIL line per criterion when the suite runs.
"""

import json
import math

import numpy as np
import pytest

from mirrorslit import cli, design, geometry, montecarlo
from mirrorslit.design import limiting_half_width, required_mirror_width
from mirrorslit.geometry import Apparatus, detector_separation
from mirrorslit.montecarlo import (
    ScanConfig,
    compare_distributions,
    conventional_scan,
    simulate_scan,
)
from mirrorslit.wavemodel import (
    HypothesisKind,
    OutcomeHypothesis,
    detector_intensity,
    fringe_spacing,
    screen_intensity,
    wave_number,
)
from oracle import clearance_at_half_width
FULL = OutcomeHypothesis(HypothesisKind.FULL_DUALITY)
EXCLUSIVE = OutcomeHypothesis(HypothesisKind.EXCLUSIVE)


def linear_scan_root(app, x, slit, step=1e-6, hi=2e-3):
    """Brute-force half-width oracle: first sign change of the clearance
    margin on a fixed 1 um grid, independent of the bisection code path."""
    hs = np.arange(step, hi, step)
    prev = clearance_at_half_width(app, x, slit, hs[0])
    for h in hs[1:]:
        cur = clearance_at_half_width(app, x, slit, h)
        if prev * cur <= 0:
            return h
        prev = cur
    return None


def test_criterion_01_fringe_spacing(app):
    assert fringe_spacing(app) == pytest.approx(0.7e-3, abs=1e-6)


def test_criterion_02_limiting_half_widths(app, f_s):
    w2 = limiting_half_width(app, 0.0, 2)
    w1 = limiting_half_width(app, 3 * f_s, 1)
    # bisection agrees with an independent 1 um linear scan
    for root, (x, slit) in ((w2, (0.0, 2)), (w1, (3 * f_s, 1))):
        oracle = linear_scan_root(app, x, slit)
        assert oracle is not None and abs(root - oracle) < 2e-6
    assert w2 == pytest.approx(0.268e-3, abs=5e-6)
    assert w1 == pytest.approx(0.273e-3, abs=5e-6)


def test_criterion_03_required_width(app):
    assert required_mirror_width(app) == pytest.approx(0.1e-3, rel=1e-9)


def test_criterion_04_detector_separation(app, f_s):
    _, approx = detector_separation(app, 0.0)
    assert approx == pytest.approx(5e-3, rel=0.05)
    for x in np.linspace(0.0, 3 * f_s, 60):
        exact, approx = detector_separation(app, x)
        assert abs(exact - approx) / exact < 0.01


def test_criterion_05_misdetection(app, scan_grid):
    config = ScanConfig(scan_grid, photons_per_position=2500, seed=21)
    assert len(scan_grid) * config.photons_per_position >= 100_000
    summary = simulate_scan(app, config, FULL)
    assert summary.misdetection_rate == 0.0

    from dataclasses import replace

    wide = replace(app, mirror_width=0.6e-3)
    assert not design.validate(wide, 3 * fringe_spacing(app)).feasible
    with pytest.warns(UserWarning):
        wide_summary = simulate_scan(
            wide, ScanConfig(scan_grid, photons_per_position=500, seed=21), FULL
        )
    assert wide_summary.misdetection_rate > 0.0


@pytest.mark.parametrize(
    "hypothesis,expected",
    [
        (FULL, 1.0),
        (EXCLUSIVE, 0.0),
        (OutcomeHypothesis(HypothesisKind.PARTIAL, 0.3), math.sqrt(1 - 0.09)),
        (OutcomeHypothesis(HypothesisKind.PARTIAL, 0.6), math.sqrt(1 - 0.36)),
        (OutcomeHypothesis(HypothesisKind.PARTIAL, 0.8), math.sqrt(1 - 0.64)),
    ],
    ids=["full", "exclusive", "partial-0.3", "partial-0.6", "partial-0.8"],
)
def test_criterion_06_visibility_recovery(app, scan_grid, hypothesis, expected):
    config = ScanConfig(scan_grid, photons_per_position=10_000, seed=33)
    summary = simulate_scan(app, config, hypothesis)
    if hypothesis.kind is HypothesisKind.FULL_DUALITY:
        assert summary.v_total >= 0.95
    elif hypothesis.kind is HypothesisKind.EXCLUSIVE:
        assert summary.v_total <= 0.05
    else:
        assert summary.v_total == pytest.approx(expected, abs=0.05)
    d = hypothesis.distinguishability
    assert d * d + summary.v_total**2 <= 1 + 0.05


def test_criterion_07_sum_rule(app, scan_grid):
    config = ScanConfig(scan_grid, photons_per_position=10_000, seed=44)
    reference = conventional_scan(app, config)
    chi2_full, compatible = compare_distributions(
        reference, simulate_scan(app, config, FULL)
    )
    assert compatible, f"chi2/dof = {chi2_full}"
    chi2_excl, compatible = compare_distributions(
        reference, simulate_scan(app, config, EXCLUSIVE)
    )
    assert not compatible and chi2_excl > 2


def test_criterion_08_phase_shift_smallness(app, f_s):
    k = wave_number(app)
    for x in np.linspace(f_s / 10, 3 * f_s, 200):
        d1, d2 = geometry.path_lengths(app, x)
        g1, g2 = geometry.incidence_angles(app, x)
        assert abs(2 * (g1 - g2)) < 0.1 * abs(k * (d1 - d2))


def test_criterion_09_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scan": {"photons_per_position": 1000, "seed": 7}}))

    def run(out):
        code = cli.main(
            ["simulate", "--config", str(config), "--out", str(out), "--no-timestamp"]
        )
        assert code == 0
        return (
            (out / "counts.csv").read_bytes(),
            (out / "summary.json").read_bytes(),
        )

    assert run(tmp_path / "a") == run(tmp_path / "b")


def test_criterion_10_invariant_suite(app, scan_grid, f_s):
    # intensity pattern is even in x and identical at the two detectors
    for x in np.linspace(0.0, 3 * f_s, 50):
        assert screen_intensity(app, x) == pytest.approx(
            screen_intensity(app, -x), abs=1e-9
        )
        assert detector_intensity(app, x, 1) == detector_intensity(app, x, 2)

    # reflection is an involution and preserves angles off the mirror normal
    rng = np.random.default_rng(2)
    pl = geometry.mirror_placement(app, 1e-3)
    for _ in range(200):
        a = rng.uniform(0.1, 1.4)
        v = np.array([math.sin(a), math.cos(a)])
        r = geometry.reflect_direction(v, pl.normal)
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(v, pl.normal)) == pytest.approx(
            abs(np.dot(r, pl.normal)), abs=1e-12
        )
        np.testing.assert_allclose(
            geometry.reflect_direction(r, pl.normal), v, atol=1e-12
        )

    # every simulated photon lands in exactly one of the two counters
    summary = simulate_scan(app, ScanConfig(scan_grid, 1000, 55), FULL)
    for record in summary.records:
        assert record.n == record.n1 + record.n2
