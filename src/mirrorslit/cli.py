"""Command-line front end: validate | scan | simulate | search.

Reads a single JSON config (lengths in meters, angles in radians), which
sets all a run computes but ``--seed``, and writes CSV/JSON files for
external plotting.  ``FIELDS`` declares each field's type, bounds and
default; ``main`` checks the whole config and builds every input of the run
(``read_config``, then ``load``) before any command runs, so a value that
any command would refuse ends each of them in exit 1.  A command takes the
built inputs, hands its output files over by name, then raises what went
wrong; ``main`` alone writes the files, under one stamp per run, and turns
outcomes into a ``warning:`` stderr line per warning, then an error into
one ``error:`` line and exit 1 (usage, config or an unwritable ``--out``),
2 (an infeasible design, or a grid that cannot sample the fringes) or 3
(an empty search result); else exit 0.

A command hands over a CSV table as a dict from header name to numpy
column; a float column prints as ``%.9e`` and an integer column as ``%d``,
encoded from the arrays byte for byte as ``%`` would print them.  JSON
files are strict JSON: a non-finite number is written as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import design, geometry, montecarlo
from .design import _SEARCHED, SearchSpace
from .geometry import Apparatus
from .wavemodel import (
    FitError,
    HypothesisKind,
    OutcomeHypothesis,
    duality_check,
    fringe_spacing,
    phases,
    two_beam_intensity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_RESULT = 3


class ConfigError(ValueError):
    pass


class Infeasible(Exception):
    """A design that fails a check of its report: exit 2."""


class NoResult(Exception):
    """A search without a feasible apparatus: exit 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, for main to print
        raise ConfigError(message)


class Field(NamedTuple):
    """A config field's JSON type: number, integer, boolean, string or interval
    (a number or [lo, hi]); the bounds of a number or integer given, which bind
    both ends of an interval; and its default, a value or a function of (app, F_s)."""

    type: str
    low: float = -math.inf
    high: float = math.inf
    default: object = None


# a bench fits in a laboratory: within these bounds F_s = lambda L / d lies in
# [1e-30, 1e24] m and every squared distance of the layouts below 1e50
_LENGTH = Field("number", low=1e-12, high=1e6)
_EXTENT = Field("number", low=-1e6, high=1e6, default=lambda app, f_s: 3.0 * f_s)
_SEED = Field("integer", low=0, default=0)
# refused before any allocation, and about 1 s of search at 10^6 candidates/s
_COUNT = Field("integer", high=1_000_000)

# every config field by section (None: the root), checked whether a command reads it or not
FIELDS = {
    None: {"x_max": _EXTENT},
    "apparatus": {f.name: (Field("number") if f.name == "mirror_angle" else _LENGTH)._replace(
        default=f.default) for f in dataclasses.fields(Apparatus)},
    "scan": {
        "x_min": _EXTENT._replace(default=lambda app, f_s: -3.0 * f_s),
        "x_max": _EXTENT,
        "positions": _COUNT._replace(low=2, default=41),
        "photons_per_position": Field("integer", low=1, high=montecarlo._MAX_PHOTONS,
                                      default=10_000),
        "seed": _SEED,
        "freeze_detectors": Field("boolean", default=False),
    },
    "hypothesis": {"kind": Field("string", default="full"),
                   "distinguishability": Field("number", low=0.0, high=1.0, default=0.0)},
    "search": {  # [v, v] at the apparatus value v by default; arm, no Apparatus field, at arm1's
        **{name: _LENGTH._replace(type="interval", default=lambda app, f_s, name=name:
                                  (getattr(app, name, app.arm1),) * 2) for name in _SEARCHED},
        "mirror_angle": Field("interval", default=lambda app, f_s: (app.mirror_angle,) * 2),
        "x_max": _EXTENT,
        "samples": _COUNT._replace(low=1, default=64),
        "seed": _SEED,
    },
}
# the declared defaults: the values by section, and the functions of (app, F_s)
_VALUES = {section: {key: f.default for key, f in fields.items() if not callable(f.default)}
           for section, fields in FIELDS.items()}
_FUNCTIONS = [(section, key, f.default) for section, fields in FIELDS.items()
              for key, f in fields.items() if callable(f.default)]

_EXPECTED = dict(
    number="a finite number", integer="an integer", boolean="true or false",
    string="a string", interval="a number or [lo, hi]",
)


def _check(name: str, value, field: Field, kind: str | None = None):
    """``value`` of the config field ``name`` as its loader reads it: a
    float, an int (41.0 reads as 41), a bool, a str or a (lo, hi) pair of
    floats.  Anything else, JSON booleans and numeric strings in numeric
    fields included, or a number outside the field's bounds, is a
    ConfigError.  ``kind`` replaces the field's type (an interval's ends are numbers)."""
    kind = kind or field.type
    if kind == "interval" and isinstance(value, list) and len(value) == 2:
        return tuple(_check(name, end, field, "number") for end in value)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # not NaN, an infinity or an int past the largest float
    if kind in ("number", "interval") and numeric and abs(value) <= sys.float_info.max:
        number = shown = float(value)
    elif kind == "integer" and numeric and (isinstance(value, int) or value.is_integer()):
        number, shown = int(value), value  # shown as written: int(1e300) has 301 digits
    elif isinstance(value, {"boolean": bool, "string": str}.get(kind, ())):
        return value
    else:
        raise ConfigError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
    if not field.low <= number <= field.high:
        bound = f">= {field.low}" if number < field.low else f"<= {field.high}"
        raise ConfigError(f"{name} must be {bound}, got {shown}")
    return (number, number) if kind == "interval" else number


def read_config(config, seed: int | None = None) -> dict:
    """Check a parsed JSON config against FIELDS.

    Returns each section, the root under None, as a dict of the fields
    given, read by ``_check``, with ``seed`` (``--seed``) in place of every
    seed.  Unknown sections and fields are ConfigErrors."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    if seed is not None:
        seed = _check("--seed", seed, _SEED)
    root = {key: value for key, value in config.items() if key not in FIELDS}
    checked = {}
    for section, fields in FIELDS.items():
        given = root if section is None else config.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"'{section}' section must be a JSON object")
        checked[section] = {}
        for key, value in given.items():
            name = key if section is None else f"{section}.{key}"
            if key not in fields:
                raise ConfigError(f"unknown config field {name!r}")
            checked[section][key] = _check(name, value, fields[key])
        if seed is not None and "seed" in fields:
            checked[section]["seed"] = seed
    return checked


class Run(NamedTuple):
    """Every input of a run, built by ``load``."""

    app: Apparatus
    x_max: float  # the root x_max, the extent validate judges
    scan: montecarlo.ScanConfig
    hypothesis: OutcomeHypothesis
    search: tuple[SearchSpace, int, int]  # design_search's arguments


def load(config: dict) -> Run:
    """Build every input of a run from ``read_config``'s sections, whichever
    command runs: each is its declared defaults overlaid by the fields given.
    The library constructors check the values and raise ValueError."""
    sections = {section: {**_VALUES[section], **config[section]} for section in FIELDS}
    app = Apparatus(**sections["apparatus"])
    f_s = fringe_spacing(app)
    for section, key, f in _FUNCTIONS:  # called for the fields not given only
        if key not in config[section]:
            sections[section][key] = f(app, f_s)
    root, _, scan, hypothesis, search = sections.values()
    grid = np.linspace(scan.pop("x_min"), scan.pop("x_max"), scan.pop("positions"))
    samples, seed = search.pop("samples"), search.pop("seed")
    return Run(app, root["x_max"], montecarlo.ScanConfig(grid, **scan),
               OutcomeHypothesis(HypothesisKind(hypothesis.pop("kind")), **hypothesis),
               (SearchSpace(**search), samples, seed))


def _byte_tables() -> tuple[np.ndarray, ...]:
    """The array encoder's tables of 4-byte text pieces (numpy void items),
    filled from the ten digit bytes with uint8 operations, so that import
    allocates little beyond their 90 kB.  A piece is NUL-padded anywhere:
    the finished body drops every NUL.

    - digits: "0000" to "9999" at index q, and from 10^4 + q, q with its
      leading zeros blanked, 0 being empty;
    - leads, trails: "0.00" to "9.99" and "000e" to "999e" at index q;
    - exponents: "+05", "-120" and so on, at index e + 290."""
    quads = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        quads[..., place] = np.frombuffer(b"0123456789", np.uint8).reshape(
            [10 if axis == place else 1 for axis in range(4)]
        )
        quads[1, ..., place].reshape(10**4)[: 10 ** (3 - place)] = 0
    quads = quads.reshape(2 * 10**4, 4)
    leads = quads[:1000, [1, 0, 2, 3]]
    leads[:, 1] = ord(".")
    trails = quads[:1000, [1, 2, 3, 0]]
    trails[:, 3] = ord("e")
    exponents = np.concatenate([quads[290:0:-1], quads[:291]])
    exponents[:, 0] = ord("-")
    exponents[290:, 0] = ord("+")
    exponents[191:390, 1] = 0  # |e| < 100
    return tuple(
        np.ascontiguousarray(table).view("V4").ravel()
        for table in (quads, leads, trails, exponents)
    )


_DIGITS, _LEADS, _TRAILS, _EXPONENTS = _byte_tables()
# 10^k for k = -290 .. 299, each correctly rounded, at index 299 - e for
# the scale 10^(9 - e) of a float with decimal exponent e in [-290, 290]
_POW10 = np.array([float(f"1e{k}") for k in range(-290, 300)])


def _float_pieces(values: np.ndarray) -> list[np.ndarray]:
    """``"%.9e" % v`` for each float v, as pieces of 1, 4, 4, 4 and 4 bytes:
    the sign, "d.dd", four digits, "ddde" and the exponent.

    With e = floor(log10|v|), the ten digits are m = rint(|v| 10^(9-e)),
    carried to 10^9 and e + 1 at m = 10^10.  The power and the product each
    round once, so the product is within 2.3e-6 (about 1 ulp) of the exact
    |v| 10^(9-e) < 10^10: rint rounds it as Python rounds the exact value
    unless its fraction lies within 1e-5 of one half.  Those entries, zeros,
    non-finite values and |v| outside [1e-290, 1e290] go through ``"%.9e"``
    one at a time.  An error of one ulp in log10 next to a power of ten only
    moves m to 10^9 or 10^10, which the carry handles."""
    magnitude = np.abs(values)
    odd = ~((magnitude >= 1e-290) & (magnitude <= 1e290))
    magnitude[odd] = 1.0  # any finite value: "%" prints these entries
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    scaled = magnitude * _POW10[299 - exponent]
    mantissa = np.rint(scaled).astype(np.int64)
    odd |= np.abs(scaled - mantissa) > 0.5 - 1e-5
    carry = mantissa == 10**10
    mantissa[carry] = 10**9
    exponent[carry] += 1
    lead, rest = np.divmod(mantissa, 10**7)  # the first three digits
    middle, trail = np.divmod(rest, 10**3)
    pieces = [np.where(np.signbit(values), b"-", b""), _LEADS[lead], _DIGITS[middle],
              _TRAILS[trail], _EXPONENTS[exponent + 290]]
    for i in np.flatnonzero(odd).tolist():
        text = b"%.9e" % values[i]
        for piece, start in zip(pieces, (0, 1, 5, 9, 13)):
            piece[i] = text[start : start + piece.itemsize]
    return pieces


def _int_pieces(values: np.ndarray) -> list[np.ndarray]:
    """``"%d" % n`` for each count n >= 0, as 4-digit pieces, most
    significant first, the zeros before a count's first digit blanked."""
    pieces, rest = [], values
    while True:
        rest, quad = np.divmod(rest, 10**4)
        pieces.insert(0, _DIGITS[quad + 10**4 * (rest == 0)])
        if not rest.any():
            break
    pieces[-1][values == 0] = b"0"
    return pieces


def _csv_body(columns: dict[str, np.ndarray]) -> str:
    """The CSV body of a table, a dict from header name to column: a float
    column (dtype kind f) as ``%.9e``, an integer one (i) as ``%d``.  The
    columns of a kind are encoded in one call, a column given twice (the same
    array object) once; the pieces of every entry and the separators become
    the fields of one record per row, whose bytes lose their NULs in one pass."""
    columns = list(columns.values())
    n_rows, pieces = len(columns[0]), {}
    for kind, encode in (("f", _float_pieces), ("i", _int_pieces)):
        distinct = list({id(c): c for c in columns if c.dtype.kind == kind}.values())
        if distinct:
            encoded = encode(np.concatenate(distinct))
            for i, column in enumerate(distinct):
                pieces[id(column)] = [piece[i * n_rows : (i + 1) * n_rows] for piece in encoded]
    fields = []
    for column in columns:
        fields += [*pieces[id(column)], np.bytes_(b",")]
    fields[-1] = np.bytes_(b"\n")
    rows = np.empty(n_rows, [("", field.dtype) for field in fields])  # named f0, f1, ...
    for name, field in zip(rows.dtype.names, fields):
        rows[name] = field
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _text(name: str, content: dict, stamp: str | None) -> str:
    """The text of the file ``name``, under ``stamp`` unless it is None: a CSV
    table headed by its column names, or a JSON payload whose non-finite
    numbers are written as null (strict JSON has no NaN or Infinity)."""
    if name.endswith(".csv"):
        lines = ([] if stamp is None else [f"# generated {stamp}"]) + [",".join(content)]
        return "\n".join(lines) + "\n" + _csv_body(content)
    content = {key: None if isinstance(value, float) and not math.isfinite(value) else value
               for key, value in content.items()}
    if stamp is not None:
        content = {"generated": stamp, **content}
    return json.dumps(content, indent=2, allow_nan=False) + "\n"


def cmd_validate(run: Run, files: dict) -> None:
    report = design.validate(run.app, run.x_max)
    files["report.json"] = report.to_dict()
    for line in report.warnings:  # for main to print
        warnings.warn(line)
    failed = [name for name in ("sampling_ok", "misdetection_free", "diaphragm_clear")
              if not getattr(report, name)]
    if failed:
        raise Infeasible(f"design infeasible: {', '.join(failed)} false")


def cmd_scan(run: Run, files: dict) -> None:
    run.scan.check_sampling(run.app)
    xs = run.scan.x_positions
    # the two detector intensities are identical by construction
    screen, detector = (two_beam_intensity(phi) for phi in phases(run.app, xs))
    files["curves.csv"] = {"x_m": xs, "I": screen, "I1": detector, "I2": detector}


def cmd_simulate(run: Run, files: dict) -> None:
    summary = montecarlo.simulate_scan(run.app, run.scan, run.hypothesis)
    records = summary.records
    theory = records.i1_theory  # i2_theory is i1_theory
    files["counts.csv"] = {"x_m": records.x, "N": records.n, "N1": records.n1, "N2": records.n2,
                           "misdetected": records.misdetected,
                           "I1_theory": theory, "I2_theory": theory}
    ok, _ = duality_check(run.hypothesis.distinguishability, summary.v_total, tol=0.05)
    files["summary.json"] = {
        "V_total": summary.v_total,
        "V_1": summary.v_1,
        "V_2": summary.v_2,
        "misdetection_rate": summary.misdetection_rate,
        "duality_satisfied": ok,
        "F_s_m": fringe_spacing(run.app),
        "L12_m": summary.outcomes.separation,
        "seed": run.scan.seed,
    }


def cmd_search(run: Run, files: dict) -> None:
    result = design.design_search(*run.search)
    if result is None:
        raise NoResult("no feasible apparatus found")
    best, report = result
    files["best_apparatus.json"] = dataclasses.asdict(best)
    files["report.json"] = report.to_dict()
    for line in report.warnings:  # for main to print, as validate does
        warnings.warn(line)


COMMANDS = {"validate": cmd_validate, "scan": cmd_scan, "simulate": cmd_simulate,
            "search": cmd_search}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mirrorslit",
        description="Mirror-modified two-slit experiment: design checks and "
        "photon-counting simulation",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override RNG seed")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamps for byte-reproducible outputs",
    )
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; see the module docstring."""
    code, error, files = EXIT_OK, None, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            args = _PARSER.parse_args(argv)
            config = {}
            if args.config is not None:
                try:
                    config = json.loads(args.config.read_text())
                except FileNotFoundError as exc:
                    raise ConfigError(f"config file not found: {args.config}") from exc
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
                except (OSError, UnicodeDecodeError, RecursionError) as exc:
                    raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
            config = read_config(config, args.seed)
            # an overflow the bounds let through is one error line, not numpy's
            # RuntimeWarnings and a misleading verdict on inf or NaN
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                try:
                    run = load(config)
                except ValueError as exc:  # a value a constructor refuses, whoever reads it
                    raise ConfigError(str(exc)) from exc
                COMMANDS[args.command](run, files)
        except (ConfigError, design.DesignError) as exc:
            code, error = EXIT_USAGE, exc
        except FloatingPointError as exc:
            code, error = EXIT_USAGE, f"config values out of numeric range: {exc}"
        except (geometry.GeometryError, montecarlo.ScanError, FitError, Infeasible) as exc:
            code, error = EXIT_INFEASIBLE, exc
        except NoResult as exc:
            code, error = EXIT_NO_RESULT, exc
    if files:  # filled by a command, so args is parsed
        stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                path = args.out / name
                path.write_text(_text(name, content, stamp))
                print(f"{path.stem} written to {path}")
        except OSError as exc:  # the run's outcome is then this error alone
            code, error = EXIT_USAGE, f"cannot write output: {exc}"
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
