import contextlib
import dataclasses
import io
import itertools
import json
import math
import pickle
import re
import tempfile
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirrorslit import cli, design, montecarlo
from mirrorslit.cli import (
    EXIT_INFEASIBLE,
    EXIT_NO_RESULT,
    EXIT_OK,
    EXIT_USAGE,
    load,
    main,
    read_config,
)
from mirrorslit.design import _SEARCHED, DesignError
from mirrorslit.geometry import Apparatus, GeometryError
from mirrorslit.montecarlo import ScanConfig, ScanError, simulate_scan
from mirrorslit.wavemodel import (
    FitError,
    HypothesisKind,
    OutcomeHypothesis,
    detector_intensity,
    fringe_spacing,
    screen_intensity,
)
from oracle import counts_csv, curves_csv


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


COMMANDS = ("validate", "scan", "simulate", "search")


def assert_one_error_at_most(err: str):
    """stderr holds warning lines, then at most one error line."""
    lines = err.splitlines()
    if lines and lines[-1].startswith("error: "):
        lines = lines[:-1]
    assert all(line.startswith("warning: ") for line in lines)


def single_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def loaded(config: dict) -> cli.Run:
    return load(read_config(config))


def assert_refused(tmp_path, capsys, command, config, error, *extra):
    """command refuses config: exit 1, the error line alone on stderr and no --out."""
    code, out = run(tmp_path, command, config, *extra)
    assert (code, capsys.readouterr().err, out.exists()) == (EXIT_USAGE, f"error: {error}\n", False)


def refused_test(cases, per_command=False):
    """A test that assert_refused holds for each case, (config, error line,
    *extra argv), on every command.  cases maps test ids to cases, or is
    one case for a test without ids; per_command makes each command an id
    of its own, ahead of the case's."""
    if not isinstance(cases, dict):
        def test(self, tmp_path, capsys):
            for command in COMMANDS:
                assert_refused(tmp_path, capsys, command, *cases)
    elif per_command:
        @pytest.mark.parametrize("case", cases.values(), ids=cases)
        @pytest.mark.parametrize("command", COMMANDS)
        def test(self, tmp_path, capsys, command, case):
            assert_refused(tmp_path, capsys, command, *case)
    else:
        @pytest.mark.parametrize("case", cases.values(), ids=cases)
        def test(self, tmp_path, capsys, case):
            for command in COMMANDS:
                assert_refused(tmp_path, capsys, command, *case)
    return test


KIND = "hypothesis kind must be full, exclusive or partial, got "
TYPE_TEXT = dict(number="a finite number", integer="an integer", boolean="true or false",
                 string="a string", interval="a number or [lo, hi]")


def wrong_type(section, key, value):
    """The case of value in the field section.key (section None: the root)
    whose type refuses it; a string in hypothesis.kind is an unknown kind."""
    config = {key: value} if section is None else {section: {key: value}}
    field = cli.FIELDS[section][key]
    if field.type == "string" and isinstance(value, str):
        return config, KIND + repr(value)
    name = key if section is None else f"{section}.{key}"
    return config, f"{name} must be {TYPE_TEXT[field.type]}, got {value!r}"


# main reads and loads the config before any command, so every command
# refuses these alike; the tests below name their cases by id

# unknown fields and sections; the root is read first
UNKNOWN = {
    label: (config, f"unknown config field {name!r}") for label, config, name in [
        ("motivation", {"scan": {"photon_per_position": 10, "positons": 7}, "hypotesis": {}}, "hypotesis"),
        ("scan", {"scan": {"positons": 7}}, "scan.positons"),
        ("hypothesis-section", {"hypotesis": {}}, "hypotesis"),
        ("search-section", {"serach": {"samples": 4}}, "serach"),
        ("apparatus", {"apparatus": {"wavelenght": 7e-7}}, "apparatus.wavelenght"),
        ("hypothesis", {"hypothesis": {"distinguishabilty": 0.5}}, "hypothesis.distinguishabilty"),
        ("search", {"search": {"sample": 4}}, "search.sample"),
        ("root", {"xmax": 2e-3}, "xmax"),
    ]
}
# values of a field's type that its bounds or a loader refuse
ONE_VERDICT = {
    "hypothesis-kind": ({"hypothesis": {"kind": "sideways"}}, KIND + "'sideways'"),
    **{f"scan-positions{label}": ({"scan": {"positions": n}}, f"scan.positions must be >= 2, got {n}")
       for label, n in [("", 1), ("-zero", 0), ("-negative", -127)]},
    "search-samples": ({"search": {"samples": 0}}, "search.samples must be >= 1, got 0"),
    # an integral float past a bound is echoed as written, not as int() prints it
    "scan-positions-huge": ({"scan": {"positions": 1e300}},
                            "scan.positions must be <= 1000000, got 1e+300"),
    "search-samples-huge": ({"search": {"samples": 1e30}},
                            "search.samples must be <= 1000000, got 1e+30"),
    "scan-photons-zero": ({"scan": {"photons_per_position": 0}},
                          "scan.photons_per_position must be >= 1, got 0"),
    "search-interval": ({"search": {"arm": [2, 1]}}, "invalid interval for arm: [2.0, 1.0]"),
    "hypothesis-distinguishability": ({"hypothesis": {"kind": "partial", "distinguishability": 1.5}},
                                      "hypothesis.distinguishability must be <= 1.0, got 1.5"),
    # lambda L / d would be 1e-596, below the least float; wavelength is read first
    "fringe-period-underflow": ({"apparatus": {"wavelength": 1e-300, "screen_distance": 1e-300}},
                                "apparatus.wavelength must be >= 1e-12, got 1e-300"),
    "judged-extent-overflow": ({"x_max": 1e308}, "x_max must be <= 1000000.0, got 1e+308"),
    "search-extent-overflow": ({"search": {"x_max": -1e200}},
                               "search.x_max must be >= -1000000.0, got -1e+200"),
    # within the extent bounds, but SearchSpace refuses a search x_max <= 0
    "search-x-max-negative": ({"search": {"x_max": -1e-3}},
                              "search.x_max must be positive, got -0.001"),
    "search-x-max-zero": ({"search": {"x_max": 0}}, "search.x_max must be positive, got 0.0"),
    # FIELDS bounds no angle: Apparatus refuses one outside (0, pi/2), pi/2 as a float included
    **{f"mirror-angle-{label}": ({"apparatus": {"mirror_angle": angle}},
                                 f"apparatus.mirror_angle must lie in (0, pi/2), got {float(angle)}")
       for label, angle in [("zero", 0), ("negative", -0.1), ("half-pi", math.pi / 2), ("two", 2.0)]},
}


class TestLoadApparatus:
    def test_partial_override(self):
        app = loaded({"apparatus": {"wavelength": 350e-9}}).app
        assert app.wavelength == 350e-9
        assert app.slit_separation == 100e-6

    test_unknown_key_rejected = refused_test(UNKNOWN["apparatus"])
    test_null_value_rejected = refused_test(wrong_type("apparatus", "wavelength", None))
    test_string_value_rejected = refused_test(wrong_type("apparatus", "wavelength", "700nm"))
    test_negative_value_rejected = refused_test(
        ({"apparatus": {"wavelength": -1e-9}}, "apparatus.wavelength must be >= 1e-12, got -1e-09"))


class TestLoadHypothesis:
    def parse(self, section):
        return loaded({"hypothesis": section}).hypothesis

    def test_full(self):
        assert self.parse({"kind": "full"}).kind is HypothesisKind.FULL_DUALITY

    def test_partial_with_value(self):
        hyp = self.parse({"kind": "partial", "distinguishability": 0.6})
        assert hyp.kind is HypothesisKind.PARTIAL
        assert hyp.distinguishability == 0.6

    test_bad_kind = refused_test(ONE_VERDICT["hypothesis-kind"])
    test_bad_value = refused_test(wrong_type("hypothesis", "distinguishability", "lots"))
    test_out_of_range = refused_test(ONE_VERDICT["hypothesis-distinguishability"])


class TestOneVerdictPerConfig:
    test_every_command_exits_one = refused_test(ONE_VERDICT, per_command=True)


class TestNegativeSeed:
    FLAG = "--seed must be >= 0, got -1", "--seed", "-1"
    test_exits_one_with_error_line = refused_test({
        "simulate-flag": ({"scan": {"photons_per_position": 10}}, *FLAG),
        "simulate-config": ({"scan": {"photons_per_position": 10, "seed": -2}},
                            "scan.seed must be >= 0, got -2"),
        "search-flag": ({"search": {"samples": 2}}, *FLAG),
        "search-config": ({"search": {"samples": 2, "seed": -2}}, "search.seed must be >= 0, got -2"),
    })


class TestMalformedConfig:
    test_exits_one_with_error_line = refused_test({
        "search-zero-samples": ONE_VERDICT["search-samples"],
        "scan-non-numeric-positions": wrong_type("scan", "positions", "abc"),
        "scan-non-numeric-seed": wrong_type("scan", "seed", "abc"),
        **{f"hypothesis-{label}-distinguishability": wrong_type("hypothesis", "distinguishability", value)
           for label, value in [("null", None), ("list", []), ("object", {})]},
        **{f"hypothesis-{label}-kind": wrong_type("hypothesis", "kind", value)
           for label, value in [("list", []), ("object", {})]},
        "scan-boolean-photons": wrong_type("scan", "photons_per_position", True),
        "scan-fractional-positions": wrong_type("scan", "positions", 41.9),
        "scan-fractional-photons": wrong_type("scan", "photons_per_position", 10.5),
        "scan-fractional-seed": wrong_type("scan", "seed", 2.7),
        "search-fractional-samples": wrong_type("search", "samples", 64.5),
        "search-fractional-seed": wrong_type("search", "seed", 0.5),
        "scan-huge-extent": ({"scan": {"x_min": -1e308, "x_max": 1e308}},
                             "scan.x_min must be >= -1000000.0, got -1e+308"),
        "validate-huge-x-max": ONE_VERDICT["judged-extent-overflow"],
    })


class TestWrongTypeSweep:
    """Each JSON type in each field of cli.FIELDS, on every command."""

    @pytest.mark.parametrize(
        "value", [None, "text", [], {}, True], ids=["null", "text", "list", "object", "true"]
    )
    @pytest.mark.parametrize(
        "section, key",
        [(section, key) for section, fields in cli.FIELDS.items() for key in fields],
        ids=[f"{section or 'root'}.{key}" for section, fields in cli.FIELDS.items() for key in fields],
    )
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exit_code_and_stderr(self, tmp_path, capsys, command, section, key, value):
        if not (value is True and cli.FIELDS[section][key].type == "boolean"):
            assert_refused(tmp_path, capsys, command, *wrong_type(section, key, value))
            return
        # true is a value of a boolean field: the command runs
        config = {"scan": {"photons_per_position": 100}, "search": {"samples": 4}}
        config.setdefault(section, {})[key] = True
        code, _ = run(tmp_path, command, config)
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_NO_RESULT)
        assert_one_error_at_most(capsys.readouterr().err)

    def test_covers_every_field(self):
        # a text for each field type, and none for a type no field has
        types = {field.type for fields in cli.FIELDS.values() for field in fields.values()}
        assert set(TYPE_TEXT) == types


def assert_unreadable(tmp_path, capsys, content, error):
    """Every command refuses a config file of content (None: no file,
    "directory": a directory), as assert_refused checks."""
    path = tmp_path / "config.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    for command in COMMANDS:
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        expected = (EXIT_USAGE, f"error: {error.format(path=path)}\n", False)
        assert (code, capsys.readouterr().err, (tmp_path / "out").exists()) == expected


# every number field with declared bounds, by the name its error line
# gives: the lengths, length intervals and extents
BOUNDED = {key if section is None else f"{section}.{key}": (section, key, field)
           for section, fields in cli.FIELDS.items() for key, field in fields.items()
           if field.type in ("number", "interval") and math.isfinite(field.high)}

# the decades they are swept at: every decade within 20 of 1e-12 and 1e6,
# where the bounds lie, and every tenth out to 1e-300 and 1e300
DECADES = sorted({*range(-300, 301, 10), *range(-32, 27)})


@pytest.mark.parametrize("name", BOUNDED)
def test_huge_lengths_one_verdict_per_decade(tmp_path, capsys, name):
    # each bounded field at each decade, scan.x_min at minus each, below its
    # x_max: every command refuses a value outside the field's bounds with
    # the bound's one line, and none refuses a value inside them
    section, key, field = BOUNDED[name]
    sign = -1 if key == "x_min" else 1
    for value in [sign * float(f"1e{k}") for k in DECADES]:
        config = {"scan": {"photons_per_position": 10}, "search": {"samples": 2}}
        (config if section is None else config.setdefault(section, {}))[key] = value
        argv = ["--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "out")]
        codes, errors = [], set()
        for command in COMMANDS:
            codes.append(main([command, *argv]))
            if codes[-1] == EXIT_USAGE:
                errors.add(single_error(capsys))
        capsys.readouterr()
        if field.low <= value <= field.high:
            assert EXIT_USAGE not in codes, (value, codes, errors)
        else:
            bound = f">= {field.low}" if value < field.low else f"<= {field.high}"
            assert codes == [EXIT_USAGE] * 4, (value, codes)
            assert errors == {f"error: {name} must be {bound}, got {value}"}


LENGTHS = [name for name, field in cli.FIELDS["apparatus"].items() if math.isfinite(field.high)]


# the exit codes of validate, scan, simulate and search on each config
@pytest.mark.parametrize("config, codes", [
    ({"apparatus": {"wavelength": 1e6, "screen_distance": 1e6, "slit_separation": 1e-12}},  # F_s 1e24
     (2, 0, 2, 3)),
    ({"apparatus": {"wavelength": 1e-12, "screen_distance": 1e-12, "slit_separation": 1e6}},  # 1e-30
     (2, 0, 2, 3)),
    ({"apparatus": dict.fromkeys(LENGTHS, 1e-12)}, (2, 0, 2, 3)),
    ({"apparatus": dict.fromkeys(LENGTHS, 1e6)}, (2, 0, 2, 3)),
    ({"x_max": 1e6, "scan": {"x_min": -1e6, "x_max": 1e6}, "search": {"x_max": 1e6}}, (2, 2, 2, 3)),
    ({"x_max": -1e6, "scan": {"x_min": -1e6, "x_max": 1 - 1e6}}, (2, 2, 2, 0)),
    ({"search": dict.fromkeys(["wavelength", "slit_separation", "screen_distance", "arm",
                               "aperture"], [1e-12, 1e6])}, (0, 0, 0, 3)),
], ids=["largest-fringe-period", "least-fringe-period", "least-lengths", "largest-lengths",
        "largest-extents", "least-extents", "widest-search"])
def test_extreme_configs_in_bounds_run(tmp_path, capsys, config, codes):
    # at the bounds, singly or together, every command runs to its own
    # verdict: no overflow ends one in exit 1
    config = {**config, "scan": {"photons_per_position": 10, **config.get("scan", {})},
              "search": {"samples": 2, **config.get("search", {})}}
    for command, code in zip(COMMANDS, codes):
        assert run(tmp_path, command, config)[0] == code, command
        assert_one_error_at_most(capsys.readouterr().err)


FAILS_VALIDATION = "warning: apparatus fails design validation; simulating anyway"

# what a command ends in on a config it accepts, by name: (command, config,
# exit code, stderr lines, files written); the tests below name their rows
OUTCOMES = {
    "validate-wide-mirror": ("validate", {"apparatus": {"mirror_width": 0.6e-3}}, EXIT_INFEASIBLE,
                             ["error: design infeasible: sampling_ok, misdetection_free false"],
                             ["report.json"]),
    "validate-short-arm2": ("validate", {"apparatus": {"arm2": 0.05}}, EXIT_INFEASIBLE,
                            ["warning: slit-1 grazing limit unbounded below 2 mm",
                             "error: design infeasible: misdetection_free false"], ["report.json"]),
    # at this tilt slit 1 lies on the mirror line at x = 3 F_s, where its
    # grazing limit is solved
    "validate-slit-on-mirror-line": (
        "validate", {"apparatus": {"slit_separation": 0.01, "mirror_angle": 1.5210474095731559}},
        EXIT_INFEASIBLE, ["error: incident ray is parallel to the mirror surface"], []),
    # 7 positions over +-3 F_s are 0.7 mm apart, above F_s / 2 = 0.35 mm
    **{f"{command}-coarse-grid": (
        command, {"scan": {"positions": 7}}, EXIT_INFEASIBLE,
        ["error: grid spacing 0.0007 m exceeds half the fringe period, 0.00035 m"], [])
       for command in ("scan", "simulate")},
    # 17 positions lie under F_s / 2 apart, which the sampling check
    # accepts, but the visibility fit needs F_s / 4
    "simulate-sparse-grid": ("simulate", {"scan": {"positions": 17}}, EXIT_INFEASIBLE,
                             ["error: mean sample spacing exceeds a quarter period"], []),
    # +-0.3 mm spans less than two fringe periods: validation fails, a
    # warning, and the visibility fit rejects the pattern
    "simulate-short-scan": (
        "simulate", {"scan": {"x_min": -3e-4, "x_max": 3e-4}}, EXIT_INFEASIBLE,
        [FAILS_VALIDATION, "error: pattern must span at least two fringe periods"], []),
    # at a 0.01 rad tilt the reflected central rays re-enter the diaphragm
    "simulate-blocked-beam": ("simulate", {"apparatus": {"mirror_angle": 0.01}}, EXIT_INFEASIBLE,
                              ["error: reflected central ray re-enters the diaphragm at x=-0.0009"], []),
    # off-centre the frozen x = 0 layout routes slits into the wrong
    # detector, and a 1 mm wavelength fails validation; both runs go on
    "simulate-frozen": (
        "simulate", {"scan": {"photons_per_position": 500, "seed": 3, "freeze_detectors": True}},
        EXIT_OK, [FAILS_VALIDATION], ["counts.csv", "summary.json"]),
    "simulate-infeasible": ("simulate", {"apparatus": {"wavelength": 1e-3}}, EXIT_OK, [FAILS_VALIDATION],
                            ["counts.csv", "summary.json"]),
    "search-no-feasible-point": ("search", {"search": {"aperture": 1.0, "samples": 4}}, EXIT_NO_RESULT,
                                 ["error: no feasible apparatus found"], []),
}


def assert_outcome(tmp_path, capsys, name):
    """The OUTCOMES row name holds; without files no --out is made.  Returns --out."""
    command, config, code, lines, files = OUTCOMES[name]
    assert run(tmp_path, command, config)[0] == code
    assert capsys.readouterr().err.splitlines() == lines
    out = tmp_path / "out"
    assert (sorted(path.name for path in out.iterdir()) if out.exists() else None) == (files or None)
    return out


def outcome_test(name):
    """A test that the OUTCOMES row name holds."""
    def test(self, tmp_path, capsys):
        assert_outcome(tmp_path, capsys, name)
    return test


class TestValidateCommand:
    def test_bench_design_exits_zero(self, tmp_path):
        code, out = run(tmp_path, "validate", {})
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["feasible"]
        assert report["F_s_m"] == pytest.approx(0.7e-3, abs=1e-6)
        assert report["required_w_m"] == pytest.approx(0.1e-3, rel=1e-6)
        assert report["L12_m"] == pytest.approx(5e-3, rel=0.05)

    def test_infeasible_design_exits_two(self, tmp_path, capsys):
        out = assert_outcome(tmp_path, capsys, "validate-wide-mirror")
        assert not json.loads((out / "report.json").read_text())["feasible"]

    def test_unbounded_limit_written_as_null(self, tmp_path, capsys):
        # a 5 cm arm2 leaves slit 1's grazing limit unbounded: strict JSON
        # has no Infinity, so the report writes null
        out = assert_outcome(tmp_path, capsys, "validate-short-arm2")

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report["w1_limit_m"] is None
        assert 0.0 < report["w2_limit_m"] < 2e-3

    test_slit_on_mirror_line_exits_two_with_error_line = outcome_test("validate-slit-on-mirror-line")
    test_bad_config_exits_one = refused_test(wrong_type("apparatus", "wavelength", None))
    test_non_object_root_exits_one = refused_test(([], "config root must be a JSON object"))
    # JSON reads 1 followed by 400 zeros as an int, which float() overflows
    test_integer_past_float_range_exits_one = refused_test(wrong_type("apparatus", "wavelength", 10**400))

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert_unreadable(tmp_path, capsys, None, "config file not found: {path}")

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        error = "malformed JSON at line 1: Expecting property name enclosed in double quotes"
        assert_unreadable(tmp_path, capsys, b"{not json", error)

    @pytest.mark.parametrize(
        "content, error",
        [
            ("directory", "[Errno 21] Is a directory: '{path}'"),
            ("{}".encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b"[" * 100_000,
             "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        ],
        ids=["directory", "utf-16-with-byte-order-mark", "nested-100000-deep"],
    )
    def test_unreadable_config_exits_one(self, tmp_path, capsys, content, error):
        assert_unreadable(tmp_path, capsys, content, "cannot read config file {path}: " + error)


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

    test_coarse_grid_exits_two = outcome_test("scan-coarse-grid")


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
        payload = {"scan": {"photons_per_position": 2000, "seed": 1}, "hypothesis": {"kind": "full"}}
        _, out = self.simulate(tmp_path, payload)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["V_total"] >= 0.9
        assert summary["duality_satisfied"]

    def test_exclusive_hypothesis_flat(self, tmp_path):
        payload = {"scan": {"photons_per_position": 2000, "seed": 1}, "hypothesis": {"kind": "exclusive"}}
        _, out = self.simulate(tmp_path, payload)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["V_total"] <= 0.1

    def test_duality_violation_reported(self, tmp_path):
        # at 10 photons per position shot noise fits V_total = 0.716 to the
        # flat exclusive counts of seed 8, so D^2 + V^2 exceeds 1 + 0.05
        payload = {"hypothesis": {"kind": "exclusive"}, "scan": {"photons_per_position": 10}}
        _, out = self.simulate(tmp_path, payload, "--seed", "8")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["V_total"] == pytest.approx(0.716, abs=5e-4)
        assert summary["duality_satisfied"] is False

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

    test_sparse_grid_exits_two_with_error_line = outcome_test("simulate-sparse-grid")
    test_short_scan_exits_two_with_error_line = outcome_test("simulate-short-scan")
    test_coarse_grid_exits_two_with_error_line = outcome_test("simulate-coarse-grid")
    test_blocked_beam_exits_two_with_error_line = outcome_test("simulate-blocked-beam")
    test_infeasible_design_warns_in_one_line = outcome_test("simulate-infeasible")

    def test_frozen_detectors_warn(self, tmp_path, capsys):
        out = assert_outcome(tmp_path, capsys, "simulate-frozen")
        assert json.loads((out / "summary.json").read_text())["misdetection_rate"] > 0.0

    test_freeze_detectors_must_be_boolean = refused_test(
        {str(value): wrong_type("scan", "freeze_detectors", value) for value in ["no", 0, None]})

    @pytest.mark.parametrize("photons", [1e19, 1e30])
    def test_huge_photon_count_exits_one_without_drawing(
        self, tmp_path, capsys, monkeypatch, photons
    ):
        def no_draws(*args):
            raise AssertionError("simulate_scan called")

        monkeypatch.setattr(cli.montecarlo, "simulate_scan", no_draws)
        error = f"scan.photons_per_position must be <= {2**63 - 1}, got {photons}"
        assert_refused(tmp_path, capsys, "simulate", {"scan": {"photons_per_position": photons}}, error)

    def test_seed_beyond_float_range(self, tmp_path, capsys):
        # JSON integers are unbounded and so are numpy seeds
        seed = 10**400
        payload = {"scan": {"photons_per_position": 10, "seed": seed}}
        code, out = self.simulate(tmp_path, payload)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert json.loads((out / "summary.json").read_text())["seed"] == seed

    def test_separation_from_the_judged_layouts(self, tmp_path, count_calls):
        separations = count_calls(cli.geometry, "detector_separation")
        code, out = self.simulate(tmp_path, {"scan": {"photons_per_position": 100}})
        assert code == EXIT_OK and separations == []
        summary = json.loads((out / "summary.json").read_text())
        exact, _ = cli.geometry.detector_separation(cli.Apparatus(), 0.0)
        assert summary["L12_m"] == exact

    def test_failed_centre_layout_writes_null_separation(self, tmp_path, capsys):
        # the x = 0 layout sends a reflected beam back into the diaphragm,
        # outside the simulated grid: the run warns and goes on
        payload = {
            "apparatus": {
                "mirror_angle": 0.002508672859226761,
                "slit_separation": 1.9366792042939736e-05,
                "screen_distance": 0.02734422723576615,
            },
            "scan": {
                "x_min": 0.0004941695822053874,
                "x_max": 0.0029650174932323247,
                "photons_per_position": 100,
            },
        }
        code, out = self.simulate(tmp_path, payload)
        assert code == EXIT_OK
        assert capsys.readouterr().err == FAILS_VALIDATION + "\n"
        assert json.loads((out / "summary.json").read_text())["L12_m"] is None


class TestIntegralFloats:
    def test_integral_floats_accepted(self, tmp_path):
        config = {"scan": {"positions": 41.0, "photons_per_position": 10.0, "seed": 3.0}}
        code, out = run(tmp_path, "simulate", config, "--no-timestamp")
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["seed"] == 3
        assert len((out / "counts.csv").read_text().splitlines()) == 42


@pytest.mark.parametrize(
    "argv, error",
    [
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
        (["simulate", "--hypothesis", "full"], "unrecognized arguments: --hypothesis full"),
        (["simulate", "--hypothesis", "partial:0.6"],
         "unrecognized arguments: --hypothesis partial:0.6"),
        (["simulate", "--freeze-detectors"], "unrecognized arguments: --freeze-detectors"),
        (["sideways"], "argument command: invalid choice: 'sideways' "
                       "(choose from 'validate', 'scan', 'simulate', 'search')"),
        ([], "the following arguments are required: command"),
        (["search", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ],
    ids=["unknown-flag", "hypothesis-flag", "partial-flag", "freeze-flag", "unknown-command",
         "no-command", "non-integer-seed"],
)
def test_usage_error_exits_one_with_error_line(tmp_path, capsys, argv, error):
    # argparse words all seven alike on Python 3.10 and 3.11
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert (capsys.readouterr().err, out.exists()) == (f"error: {error}\n", False)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mirrorslit")


def test_parser_built_once(tmp_path, count_calls):
    built = count_calls(cli, "build_parser")
    for _ in range(2):
        assert run(tmp_path, "validate")[0] == EXIT_OK
    assert not built


class TestPositionCount:
    @pytest.mark.parametrize("positions", [cli.FIELDS["scan"]["positions"].high + 1, 10**9])
    @pytest.mark.parametrize("command", ["scan", "simulate"])
    def test_exits_one_without_allocating(
        self, tmp_path, capsys, monkeypatch, command, positions
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(cli.np, "linspace", no_grid)
        error = f"scan.positions must be <= 1000000, got {positions}"
        assert_refused(tmp_path, capsys, command, {"scan": {"positions": positions}}, error)


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

    def test_report_warnings_printed(self, tmp_path, capsys):
        # a winner only 5-9 mm from the slits breaks the far-field regime
        payload = {"search": {"screen_distance": [0.005, 0.009], "samples": 64, "seed": 0}}
        code, out = run(tmp_path, "search", payload, "--no-timestamp")
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"]
        assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in report["warnings"]]

    test_infeasible_space_exits_three = outcome_test("search-no-feasible-point")
    # candidates drawn above pi/2 once ended in a GeometryError traceback
    test_angle_interval_outside_quadrant_exits_one = refused_test(
        ({"search": {"mirror_angle": [1.0, 2.0]}},
         "mirror_angle interval [1.0, 2.0] must lie inside (0, pi/2)"))


# the library call each command's handler makes
LIBRARY_CALLS = {
    "validate": (design, "validate"),
    "scan": (ScanConfig, "check_sampling"),
    "simulate": (montecarlo, "simulate_scan"),
    "search": (design, "design_search"),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "error, expected",
    [
        (GeometryError, EXIT_INFEASIBLE),
        (ScanError, EXIT_INFEASIBLE),
        (FitError, EXIT_INFEASIBLE),
        (DesignError, EXIT_USAGE),
        (FloatingPointError, EXIT_USAGE),
    ],
)
def test_main_maps_every_outcome(tmp_path, capsys, monkeypatch, command, error, expected):
    # main alone turns a warning and an error into stderr lines and the error
    # into its family's exit code, whichever command's call raised it
    def fail(*args):
        warnings.warn("probe")
        raise error("failed probe")

    monkeypatch.setattr(*LIBRARY_CALLS[command], fail)
    code, _ = run(tmp_path, command)
    assert code == expected
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == "warning: probe"
    assert err[1].startswith("error: ") and err[1].endswith("failed probe")


class TestCsvBytes:
    """Both CSV files, byte for byte, against the row-by-row writers; the
    float columns are encoded in one call, a column given twice once."""

    def written(self, tmp_path, command, payload, stamped, name):
        code, out = run(tmp_path, command, payload, *([] if stamped else ["--no-timestamp"]))
        assert code == EXIT_OK
        text = (out / name).read_text()
        return text, text.splitlines()[:1] if stamped else []

    def grid(self, positions):
        f_s = fringe_spacing(Apparatus())
        return np.linspace(-3.0 * f_s, 3.0 * f_s, positions)

    @pytest.mark.parametrize("stamped", [False, True])
    @pytest.mark.parametrize("positions", [41, 1001])
    def test_curves(self, tmp_path, positions, stamped, count_calls):
        bodies, floats = count_calls(cli, "_csv_body"), count_calls(cli, "_float_pieces")
        payload = {"scan": {"positions": positions}}
        text, stamp = self.written(tmp_path, "scan", payload, stamped, "curves.csv")
        app, xs = Apparatus(), self.grid(positions)
        reference = curves_csv(
            stamp, xs, screen_intensity(app, xs), detector_intensity(app, xs, 1)
        )
        assert text == reference
        assert len(bodies) == 1 and [len(args[0]) for args in floats] == [3 * positions]

    @pytest.mark.parametrize("stamped", [False, True])
    @pytest.mark.parametrize(
        "positions, photons",
        [(41, 3000), (1001, 1000), (41, 2**33), (41, 2**35)],
    )
    def test_counts(self, tmp_path, positions, photons, stamped, count_calls):
        bodies, floats = count_calls(cli, "_csv_body"), count_calls(cli, "_float_pieces")
        scan = {"positions": positions, "photons_per_position": photons, "seed": 9}
        text, stamp = self.written(tmp_path, "simulate", {"scan": scan}, stamped, "counts.csv")
        config = ScanConfig(self.grid(positions), photons, 9)
        full = OutcomeHypothesis(HypothesisKind.FULL_DUALITY)
        records = simulate_scan(Apparatus(), config, full).records
        if photons > 2**31:  # past 2^31 from 2^33 photons, past 2^33 from 2^35
            assert records.n.max() > photons // 4
        assert text == counts_csv(stamp, records)
        assert len(bodies) == 1 and [len(args[0]) for args in floats] == [2 * positions]

    @pytest.mark.parametrize(
        "scan, printed",
        [
            ({"x_min": -0.0}, "\n0.000000000e+00,"),
            ({"x_min": -2.1e-3, "x_max": -0.0}, "\n-0.000000000e+00,"),
            ({"x_min": 1e-120, "x_max": 2e-120}, "\n2.000000000e-120,"),
        ],
        ids=["x_min", "x_max", "3-digit-exponents"],
    )
    def test_curves_edges(self, tmp_path, scan, printed):
        """A signed zero, and exponents of three digits, through the CLI."""
        payload = {"scan": {**scan, "positions": 300}}
        text, _ = self.written(tmp_path, "scan", payload, False, "curves.csv")
        app = Apparatus()
        xs = np.linspace(scan["x_min"], scan.get("x_max", 3.0 * fringe_spacing(app)), 300)
        assert text == curves_csv([], xs, screen_intensity(app, xs), detector_intensity(app, xs, 1))
        assert printed in text


class TestArrayEncoder:
    """The array encoder of CSV bodies against Python's ``%``, under numpy's
    strictest error state."""

    @staticmethod
    def assert_as_percent(fmt: str, values: list):
        column = np.array(values, dtype=float if fmt == "%.9e" else np.int64)
        with np.errstate(all="raise"):
            body = cli._csv_body({"value": column})
        assert body == "".join(f"{fmt}\n" % value for value in values)

    @given(st.lists(st.floats(), min_size=1))
    def test_floats(self, values):
        self.assert_as_percent("%.9e", values)

    @given(st.lists(st.tuples(st.integers(10**9, 10**10 - 1), st.integers(-318, 297)), min_size=1))
    def test_half_ties(self, ties):
        """The decimals (k + 0.5) 10^(p+1) for ten-digit k lie halfway
        between two printed values; the double nearest each lies on either
        side of it or on it."""
        self.assert_as_percent("%.9e", [float(f"{k}5e{p}") for k, p in ties])

    def test_powers_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]
        self.assert_as_percent("%.9e", np.concatenate(values).tolist())

    @given(st.lists(st.floats(-2.3e-308, 2.3e-308), min_size=1))
    def test_subnormals_and_zeros(self, values):
        self.assert_as_percent("%.9e", [0.0, -0.0, 5e-324, -5e-324, *values])

    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1))
    def test_counts(self, counts):
        self.assert_as_percent("%d", [0, 9, 10, 9999, 10**4, 2**63 - 1, *counts])

    @given(st.lists(st.tuples(st.floats(), st.integers(0, 2**40)), min_size=1))
    def test_rows(self, rows):
        """Several columns, each given twice, as rows formatted one by one."""
        xs, ns = (np.array(column) for column in zip(*rows))
        with np.errstate(all="raise"):
            body = cli._csv_body({"x": xs, "n": ns, "x_again": xs, "n_again": ns})
        assert body == "".join("%.9e,%d,%.9e,%d\n" % (x, n, x, n) for x, n in rows)


class TestTimestamps:
    def test_timestamp_present_by_default(self, tmp_path):
        code, out = run(tmp_path, "scan", {})
        assert code == EXIT_OK
        first = (out / "curves.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")


class TestOutputFiles:
    """main alone writes the files a command hands over, under one stamp."""

    @pytest.fixture
    def taken(self, tmp_path):
        """A file, and a directory in place of an output file."""
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "taken" / "report.json").mkdir(parents=True)

    @pytest.mark.parametrize("out", ["afile", "afile/sub", "taken"])
    def test_unusable_out_exits_one(self, tmp_path, capsys, taken, out):
        assert main(["validate", "--out", str(tmp_path / out)]) == EXIT_USAGE
        assert single_error(capsys).startswith("error: cannot write output: ")
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_write_error_replaces_the_outcome(self, tmp_path, capsys, taken):
        # an infeasible design (exit 2) whose report cannot be written
        config = write_config(tmp_path, {"apparatus": {"mirror_width": 6e-4}})
        argv = ["validate", "--config", str(config), "--out", str(tmp_path / "afile")]
        assert main(argv) == EXIT_USAGE
        assert single_error(capsys).startswith("error: cannot write output: ")

    @pytest.mark.parametrize(
        "command, names",
        [("simulate", ["counts.csv", "summary.json"]),
         ("search", ["best_apparatus.json", "report.json"])],
    )
    def test_one_stamp_per_run(self, tmp_path, monkeypatch, command, names):
        ticks = itertools.count()

        class Ticking(datetime):  # each call a microsecond later
            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 1, tzinfo=tz) + timedelta(microseconds=next(ticks))

        monkeypatch.setattr(cli, "datetime", Ticking)
        code, out = run(tmp_path, command, {})
        assert code == EXIT_OK
        stamps = set()
        for name in names:
            text = (out / name).read_text()
            if name.endswith(".json"):
                stamps.add(json.loads(text)["generated"])
            else:
                stamps.add(text.splitlines()[0].removeprefix("# generated "))
        assert stamps == {"2026-01-01T00:00:00+00:00"}

    def test_one_line_per_file(self, tmp_path, capsys):
        code, out = run(tmp_path, "search", {}, "--no-timestamp")
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"best_apparatus written to {out / 'best_apparatus.json'}",
            f"report written to {out / 'report.json'}",
        ]


class TestReadConfig:
    # the first field given is reported
    test_numeric_strings_rejected = refused_test(
        ({"scan": {"positions": "41", "x_max": "2e-3", "photons_per_position": "100"}},
         "scan.positions must be an integer, got '41'"))
    test_numeric_string_in_each_field = refused_test(
        {f"{section}-{key}": wrong_type(section, key, "1") for section, fields in cli.FIELDS.items()
         for key in fields})
    test_unknown_field_rejected = refused_test(UNKNOWN, per_command=True)
    test_unknown_field_stays_on_one_line = refused_test(
        ({"scan": {"x\nmax": 1e-3}}, "unknown config field 'scan.x\\nmax'"))
    test_section_must_be_an_object = refused_test(
        {label: ({"scan": value}, "'scan' section must be a JSON object")
         for label, value in [("null", None), ("list", []), ("number", 3), ("text", "scan")]})
    test_non_finite_numbers_rejected = refused_test(
        {f"{key}-{label}": wrong_type("scan", key, value) for key in ["x_max", "positions", "seed"]
         for label, value in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]})
    test_partial_value_syntax_rejected = refused_test(
        ({"hypothesis": {"kind": "partial:0.5", "distinguishability": 0.9}}, KIND + "'partial:0.5'"))

    @pytest.mark.parametrize("samples", [cli.FIELDS["search"]["samples"].high + 1, 1e12])
    def test_samples_bound_checked_before_searching(self, tmp_path, capsys, monkeypatch, samples):
        def no_search(*args):
            raise AssertionError("design_search called")

        monkeypatch.setattr(cli.design, "design_search", no_search)
        error = f"search.samples must be <= 1000000, got {samples}"
        assert_refused(tmp_path, capsys, "search", {"search": {"samples": samples}}, error)

    def test_seed_flag_replaces_every_seed(self):
        config = read_config({"scan": {"seed": 2}}, seed=7)
        assert config["scan"]["seed"] == config["search"]["seed"] == 7

    def test_values_as_the_loaders_read_them(self):
        config = read_config({"x_max": 1, "scan": {"positions": 41.0}, "search": {"arm": 2}})
        assert config[None] == {"x_max": 1.0} and type(config[None]["x_max"]) is float
        assert config["scan"] == {"positions": 41} and type(config["scan"]["positions"]) is int
        assert config["search"] == {"arm": (2.0, 2.0)}
        assert config["apparatus"] == config["hypothesis"] == {}


README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_config_runs_every_command(tmp_path, capsys):
    # one config carries every section, and each command reads its own
    config = json.loads(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    for command in COMMANDS:
        code, _ = run(tmp_path, command, config, "--no-timestamp")
        assert code == EXIT_OK, command
    assert capsys.readouterr().err == ""


SUPERSCRIPTS = str.maketrans("-0123456789", "⁻⁰¹²³⁴⁵⁶⁷⁸⁹")


def as_written(bound) -> str:
    """A declared bound as the README writes it: 0, 2, 10⁶, 10⁻¹², −10⁶, 2⁶³ − 1."""
    if bound == 2**63 - 1:
        return "2⁶³ − 1"
    if abs(bound) < 1000 and bound == int(bound):
        return str(int(bound))
    exponent = round(math.log10(abs(bound)))
    assert abs(bound) == float(f"1e{exponent}"), bound
    return ("−" if bound < 0 else "") + "10" + str(exponent).translate(SUPERSCRIPTS)


def test_readme_field_table_matches_fields():
    # each field's row gives its type, and its Bound column each bound it declares
    types = {"number": "number", "integer": "integer", "`true`/`false`": "boolean",
             "string": "string", "number or [lo, hi]": "interval"}
    rows, bounds = set(), {}
    for section, names, kind, text in re.findall(r"^\| (\S+) \| (`.+?`) \| (.+?) \| .+? \|(.*)\|$",
                                                 README, re.M):
        section = None if section == "(root)" else section.strip("`")
        for name in names.split(", "):
            rows.add((section, name.strip("`"), types[kind]))
            bounds[section, name.strip("`")] = text
    assert rows == {
        (section, key, field.type) for section, fields in cli.FIELDS.items() for key, field in fields.items()
    }
    for (section, key), text in bounds.items():
        field = cli.FIELDS[section][key]
        for bound in (field.low, field.high):
            assert math.isinf(bound) or as_written(bound) in text, (section, key, bound)


def test_readme_defaults_match_load():
    # the Default column against the defaults cli.FIELDS declares, at the
    # bench, and what load builds from an empty config against those defaults
    # written out in full
    app = Apparatus()
    f_s = fringe_spacing(app)
    declared = {(section, key): field.default(app, f_s) if callable(field.default) else field.default
                for section, fields in cli.FIELDS.items() for key, field in fields.items()}
    words = {"3 F_s": 3 * f_s, "−3 F_s": -3 * f_s, "π/4": math.pi / 4, "10⁴": 10**4,
             "`false`": False, '`"full"`': "full", "`apparatus.arm1`": (app.arm1,) * 2}
    documented = {}
    rows = re.findall(r"^\| (\S+) \| (`.+?`) \| .+? \| (.+?) \|", README, re.M)
    for section, names, defaults in rows:
        section = None if section == "(root)" else section.strip("`")
        names = [name.strip("`") for name in names.split(", ")]
        texts = defaults.split(", ") if ", " in defaults else [defaults] * len(names)
        for name, text in zip(names, texts, strict=True):
            if text == "the `apparatus` value":
                value = (getattr(app, name),) * 2
            else:
                value = words[text] if text in words else float(text)
            documented[section, name] = value
    assert documented == declared
    written = {section: {} for section in cli.FIELDS if section is not None}
    for (section, key), value in declared.items():
        (written if section is None else written[section])[key] = (
            list(value) if isinstance(value, tuple) else value)
    # byte for byte, the scan grid's floats included
    assert pickle.dumps(loaded({})) == pickle.dumps(loaded(written))


BENCH = Apparatus()
# a typical value of each numeric field: most draws lie within a factor of
# two, so that at most 2,000 positions and 256 samples are drawn in range
TYPICAL = {
    **{("apparatus", f.name): getattr(BENCH, f.name) for f in dataclasses.fields(Apparatus)},
    **{("search", name): getattr(BENCH, "arm1" if name == "arm" else name) for name in _SEARCHED},
    (None, "x_max"): 2.1e-3,
    ("scan", "x_min"): -2.1e-3,
    ("scan", "x_max"): 2.1e-3,
    ("scan", "positions"): 1_000,
    ("scan", "photons_per_position"): 1_000,
    ("scan", "seed"): 1_000,
    ("hypothesis", "distinguishability"): 0.5,
    ("search", "x_max"): 2.1e-3,
    ("search", "samples"): 128,
    ("search", "seed"): 1_000,
}
# the most positions and samples drawn anywhere in range
FUZZ_CAPS = {("scan", "positions"): 2_000, ("search", "samples"): 256}

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def own_type(draw, section, key, field):
    """A value of the field's own JSON type: nine times in ten near its
    typical value, else any value of that type, NaN, infinities and
    out-of-bound integers included.  A bounded number is, one time in ten,
    a bound itself or the float just outside it."""
    wild = draw(st.integers(0, 9)) == 0
    if field.type == "boolean":
        return draw(st.booleans())
    if field.type == "string":
        return draw(st.text(max_size=8) if wild else st.sampled_from(["full", "exclusive", "partial"]))
    typical = TYPICAL[section, key]
    if field.type == "integer":
        cap = FUZZ_CAPS.get((section, key), None if math.isinf(field.high) else field.high)
        ints = st.integers(max_value=cap) if wild else st.integers(typical // 2, typical * 2)
        beyond = [st.integers(min_value=field.high + 1)] if wild and cap is not None else []
        integral = ints.filter(lambda n: abs(n) < 2**53).map(float)
        return draw(st.one_of(ints, integral, *beyond))
    number = st.floats() | st.integers() if wild else st.floats(0.5, 2.0).map(lambda f: typical * f)
    if math.isfinite(field.high) and draw(st.integers(0, 9)) == 0:
        number = st.sampled_from([field.low, field.high, math.nextafter(field.low, -math.inf),
                                  math.nextafter(field.high, math.inf)])
    if field.type == "interval":
        return draw(number | st.lists(number, min_size=2, max_size=2))
    return draw(number)


@st.composite
def configs(draw):
    """A config drawn from cli.FIELDS: some fields of each section, of their
    own JSON type.  A config drawn as corrupt now and then has a field of
    another type, an unknown key or a section that is not an object."""
    corrupt = draw(st.booleans())

    def now_and_then():
        return corrupt and draw(st.integers(0, 9)) == 0

    config = {}
    for section, fields in cli.FIELDS.items():
        body = config if section is None else {}
        for key in draw(st.lists(st.sampled_from(sorted(fields)), unique=True)):
            other_type = now_and_then()
            body[key] = draw(JSON_VALUES) if other_type else own_type(draw, section, key, fields[key])
        if now_and_then():
            unknown = st.text(min_size=1, max_size=8).filter(
                lambda k: k not in fields and k not in cli.FIELDS
            )
            body[draw(unknown)] = draw(JSON_VALUES)
        if section is not None and (body or draw(st.booleans())):
            config[section] = draw(JSON_VALUES) if now_and_then() else body
    return config


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(COMMANDS), config=configs())
def test_fuzzed_configs(command, config):
    # an exception, a traceback in the terminal, fails the example
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_NO_RESULT)
    assert_one_error_at_most(err.getvalue())
