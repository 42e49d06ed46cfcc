import json

import numpy as np
import pytest

from mirrorslit import cli
from mirrorslit.cli import (
    EXIT_INFEASIBLE,
    EXIT_NO_RESULT,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    load_apparatus,
    load_hypothesis,
    main,
)
from mirrorslit.wavemodel import HypothesisKind


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(tmp_path, command, payload=None, *extra):
    argv = [command, "--out", str(tmp_path / "out")]
    if payload is not None:
        argv += ["--config", str(write_config(tmp_path, payload))]
    argv += list(extra)
    return main(argv), tmp_path / "out"


class TestLoadApparatus:
    def test_defaults_when_omitted(self):
        app = load_apparatus({})
        assert app.wavelength == 700e-9
        assert app.mirror_width == 0.1e-3

    def test_partial_override(self):
        app = load_apparatus({"wavelength": 350e-9})
        assert app.wavelength == 350e-9
        assert app.slit_separation == 100e-6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_apparatus({"wavelenght": 700e-9})

    def test_null_value_rejected(self):
        with pytest.raises(ConfigError):
            load_apparatus({"wavelength": None})

    def test_string_value_rejected(self):
        with pytest.raises(ConfigError):
            load_apparatus({"wavelength": "700nm"})

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigError):
            load_apparatus({"wavelength": -1e-9})


class TestLoadHypothesis:
    def parse(self, text):
        args = cli.build_parser().parse_args(["simulate", "--hypothesis", text])
        return load_hypothesis({}, args)

    def test_full(self):
        assert self.parse("full").kind is HypothesisKind.FULL_DUALITY

    def test_partial_with_value(self):
        hyp = self.parse("partial:0.6")
        assert hyp.kind is HypothesisKind.PARTIAL
        assert hyp.distinguishability == 0.6

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            self.parse("sideways")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            self.parse("partial:lots")

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            self.parse("partial:1.5")


class TestValidateCommand:
    def test_bench_design_exits_zero(self, tmp_path):
        code, out = run(tmp_path, "validate", {})
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["feasible"]
        assert report["F_s_m"] == pytest.approx(0.7e-3, abs=1e-6)
        assert report["required_w_m"] == pytest.approx(0.1e-3, rel=1e-6)
        assert report["L12_m"] == pytest.approx(5e-3, rel=0.05)

    def test_infeasible_design_exits_two(self, tmp_path):
        code, out = run(
            tmp_path, "validate", {"apparatus": {"mirror_width": 0.6e-3}}
        )
        assert code == EXIT_INFEASIBLE
        report = json.loads((out / "report.json").read_text())
        assert not report["feasible"]

    def test_bad_config_exits_one(self, tmp_path):
        code, _ = run(tmp_path, "validate", {"apparatus": {"wavelength": None}})
        assert code == EXIT_USAGE

    def test_missing_config_file_exits_one(self, tmp_path):
        code = main(
            ["validate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_USAGE

    def test_malformed_json_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_USAGE


class TestScanCommand:
    def test_writes_curves_with_header(self, tmp_path):
        code, out = run(tmp_path, "scan", {}, "--no-timestamp")
        assert code == EXIT_OK
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "x_m,I,I1,I2"
        assert len(lines) == 1 + 41

    def test_detector_columns_identical(self, tmp_path):
        _, out = run(tmp_path, "scan", {}, "--no-timestamp")
        rows = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 2], rows[:, 3])

    def test_central_maximum_is_four(self, tmp_path):
        _, out = run(tmp_path, "scan", {}, "--no-timestamp")
        rows = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        center = rows[np.argmin(np.abs(rows[:, 0]))]
        assert center[1] == pytest.approx(4.0, abs=1e-9)

    def test_columns_match_the_model(self, tmp_path):
        # an off-centre grid, so a reversed or shifted column shows
        from mirrorslit.geometry import Apparatus
        from mirrorslit.wavemodel import detector_intensity, screen_intensity

        _, out = run(
            tmp_path, "scan", {"scan": {"x_min": -1e-3, "x_max": 2e-3}}, "--no-timestamp"
        )
        rows = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 0], np.linspace(-1e-3, 2e-3, 41), rtol=1e-9)
        app = Apparatus()
        xs = rows[:, 0]
        np.testing.assert_allclose(rows[:, 1], screen_intensity(app, xs), atol=1e-8)
        np.testing.assert_allclose(rows[:, 2], detector_intensity(app, xs, 1), atol=1e-8)

    def test_coarse_grid_exits_two(self, tmp_path, capsys):
        code, _ = run(tmp_path, "scan", {"scan": {"positions": 7}})
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "fringe period" in err[0]


class TestSimulateCommand:
    def simulate(self, tmp_path, payload, *extra):
        return run(tmp_path, "simulate", payload, "--no-timestamp", *extra)

    def test_outputs_and_schema(self, tmp_path):
        payload = {"scan": {"photons_per_position": 500, "seed": 3}}
        code, out = self.simulate(tmp_path, payload)
        assert code == EXIT_OK
        lines = (out / "counts.csv").read_text().splitlines()
        assert lines[0] == "x_m,N,N1,N2,misdetected,I1_theory,I2_theory"
        assert len(lines) == 1 + 41
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "V_total",
            "V_1",
            "V_2",
            "misdetection_rate",
            "duality_satisfied",
            "F_s_m",
            "L12_m",
            "seed",
        }
        assert summary["seed"] == 3
        assert summary["misdetection_rate"] == 0.0

    def test_full_hypothesis_high_visibility(self, tmp_path):
        payload = {"scan": {"photons_per_position": 2000, "seed": 1}}
        _, out = self.simulate(tmp_path, payload, "--hypothesis", "full")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["V_total"] >= 0.9
        assert summary["duality_satisfied"]

    def test_exclusive_hypothesis_flat(self, tmp_path):
        payload = {"scan": {"photons_per_position": 2000, "seed": 1}}
        _, out = self.simulate(tmp_path, payload, "--hypothesis", "exclusive")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["V_total"] <= 0.1

    def test_reruns_byte_identical(self, tmp_path):
        payload = {"scan": {"photons_per_position": 300, "seed": 5}}
        _, out = self.simulate(tmp_path, payload)
        first = ((out / "counts.csv").read_bytes(), (out / "summary.json").read_bytes())
        _, out = self.simulate(tmp_path, payload)
        second = ((out / "counts.csv").read_bytes(), (out / "summary.json").read_bytes())
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path):
        payload = {"scan": {"photons_per_position": 300, "seed": 5}}
        _, out = self.simulate(tmp_path, payload, "--seed", "9")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 9

    def test_sparse_grid_exits_two_with_error_line(self, tmp_path, capsys):
        # 17 positions over +-3 F_s lie under F_s / 2 apart, which the
        # sampling check accepts, but the visibility fit needs F_s / 4
        code, _ = self.simulate(tmp_path, {"scan": {"positions": 17}})
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_short_scan_exits_two_with_error_line(self, tmp_path, capsys):
        # +-0.3 mm spans less than two fringe periods: validation fails, a
        # warning, and the visibility fit rejects the pattern
        with pytest.warns(UserWarning, match="fails design validation"):
            code, _ = self.simulate(tmp_path, {"scan": {"x_min": -3e-4, "x_max": 3e-4}})
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_coarse_grid_exits_two_with_error_line(self, tmp_path, capsys):
        code, _ = self.simulate(tmp_path, {"scan": {"positions": 7}})
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "fringe period" in err[0]

    def test_blocked_beam_exits_two_with_error_line(self, tmp_path, capsys):
        # at a 0.01 rad tilt the reflected central rays re-enter the diaphragm
        code, _ = self.simulate(tmp_path, {"apparatus": {"mirror_angle": 0.01}})
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "diaphragm" in err[0]

    def test_frozen_detectors_warn(self, tmp_path):
        # off-centre the x = 0 layout routes slits into the wrong detector
        payload = {"scan": {"photons_per_position": 500, "seed": 3}}
        with pytest.warns(UserWarning, match="fails design validation"):
            code, out = self.simulate(tmp_path, payload, "--freeze-detectors")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["misdetection_rate"] > 0.0

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_freeze_detectors_must_be_boolean(self, tmp_path, capsys, value):
        payload = {"scan": {"photons_per_position": 10, "freeze_detectors": value}}
        code, _ = self.simulate(tmp_path, payload)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "freeze_detectors" in err[0]


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "command,section,extra",
        [
            ("simulate", {"scan": {"photons_per_position": 10}}, ("--seed", "-1")),
            ("simulate", {"scan": {"photons_per_position": 10, "seed": -2}}, ()),
            ("search", {"search": {"samples": 2}}, ("--seed", "-1")),
            ("search", {"search": {"samples": 2, "seed": -2}}, ()),
        ],
        ids=["simulate-flag", "simulate-config", "search-flag", "search-config"],
    )
    def test_exits_one_with_error_line(self, tmp_path, capsys, command, section, extra):
        code, _ = run(tmp_path, command, section, *extra)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "seed" in err[0]


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "command,section,fragment",
        [
            ("search", {"search": {"samples": 0}}, "samples"),
            ("simulate", {"scan": {"positions": "abc"}}, "positions"),
            ("simulate", {"scan": {"photons_per_position": 10, "seed": "abc"}}, "seed"),
        ],
        ids=["search-zero-samples", "scan-non-numeric-positions", "scan-non-numeric-seed"],
    )
    def test_exits_one_with_error_line(self, tmp_path, capsys, command, section, fragment):
        code, _ = run(tmp_path, command, section)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert fragment in err[0]


class TestSearchCommand:
    def test_singleton_space(self, tmp_path):
        payload = {"search": {"samples": 2}}
        code, out = run(tmp_path, "search", payload, "--no-timestamp")
        assert code == EXIT_OK
        best = json.loads((out / "best_apparatus.json").read_text())
        assert best["wavelength"] == 700e-9
        assert best["mirror_width"] == pytest.approx(0.1e-3, rel=1e-6)
        report = json.loads((out / "report.json").read_text())
        assert report["feasible"]

    def test_infeasible_space_exits_three(self, tmp_path):
        payload = {"search": {"aperture": 1.0, "samples": 4}}
        code, _ = run(tmp_path, "search", payload)
        assert code == EXIT_NO_RESULT


class TestTimestamps:
    def test_timestamp_present_by_default(self, tmp_path):
        code, out = run(tmp_path, "scan", {})
        assert code == EXIT_OK
        first = (out / "curves.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")
