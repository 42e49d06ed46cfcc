"""Command-line front end: validate | scan | simulate | search.

Reads a single JSON config (all lengths in meters, angles in radians) and
emits CSV/JSON files meant for external plotting.  Exit codes: 0 success,
1 usage or config error, 2 feasibility/validation failure, 3 empty search
result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import design, geometry, montecarlo
from .design import SearchSpace
from .geometry import Apparatus
from .wavemodel import (
    DualityPoint,
    FitError,
    HypothesisKind,
    OutcomeHypothesis,
    duality_check,
    fringe_spacing,
    screen_intensity,
    detector_intensity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_RESULT = 3

COUNTS_HEADER = "x_m,N,N1,N2,misdetected,I1_theory,I2_theory"
CURVES_HEADER = "x_m,I,I1,I2"

_APPARATUS_KEYS = {
    "wavelength",
    "slit_separation",
    "slit_width",
    "screen_distance",
    "mirror_width",
    "mirror_angle",
    "arm1",
    "arm2",
    "aperture",
}


class ConfigError(ValueError):
    pass


def _require_mapping(obj, name: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"'{name}' section must be a JSON object")
    return obj


def load_apparatus(section: dict) -> Apparatus:
    """Build an apparatus from a config section; omitted fields keep the
    standard bench defaults."""
    unknown = set(section) - _APPARATUS_KEYS
    if unknown:
        raise ConfigError(f"unknown apparatus field(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in section.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"apparatus field '{key}' must be a number, got {value!r}")
        kwargs[key] = float(value)
    try:
        return Apparatus(**kwargs)
    except geometry.GeometryError as exc:
        raise ConfigError(str(exc)) from exc


def _number(key: str, value, convert=float):
    """``convert(value)`` for config field ``key``, reporting a value that is
    not a finite number as a ConfigError."""
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"field '{key}' must be a finite number, got {value!r}")
    return number


def _load_seed(section: dict, args) -> int:
    """The section's seed, overridden by ``--seed``; the RNG takes only
    non-negative seeds."""
    seed = args.seed
    if seed is None:
        seed = _number("seed", section.get("seed", 0), int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def load_scan(section: dict, app: Apparatus, args) -> montecarlo.ScanConfig:
    f_s = fringe_spacing(app)
    x_min = _number("x_min", section.get("x_min", -3.0 * f_s))
    x_max = _number("x_max", section.get("x_max", 3.0 * f_s))
    positions = _number("positions", section.get("positions", 41), int)
    photons = _number(
        "photons_per_position", section.get("photons_per_position", 10_000), int
    )
    seed = _load_seed(section, args)
    freeze = section.get("freeze_detectors", False)
    if not isinstance(freeze, bool):
        raise ConfigError(f"field 'freeze_detectors' must be true or false, got {freeze!r}")
    if x_min >= x_max:
        raise ConfigError("scan x_min must be below x_max")
    try:
        return montecarlo.ScanConfig(
            x_positions=np.linspace(x_min, x_max, positions),
            photons_per_position=photons,
            seed=seed,
            freeze_detectors=freeze or args.freeze_detectors,
        )
    except ValueError as exc:  # ScanError, or a negative count from linspace
        raise ConfigError(str(exc)) from exc


def load_hypothesis(section: dict, args) -> OutcomeHypothesis:
    spec = args.hypothesis or section.get("kind", "full")
    d_value = section.get("distinguishability", 0.0)
    if isinstance(spec, str) and spec.startswith("partial:"):
        spec, _, d_text = spec.partition(":")
        try:
            d_value = float(d_text)
        except ValueError as exc:
            raise ConfigError(f"bad distinguishability: {d_text!r}") from exc
    kinds = {
        "full": HypothesisKind.FULL_DUALITY,
        "exclusive": HypothesisKind.EXCLUSIVE,
        "partial": HypothesisKind.PARTIAL,
    }
    if spec not in kinds:
        raise ConfigError(f"unknown hypothesis {spec!r}")
    try:
        return OutcomeHypothesis(kinds[spec], float(d_value))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_search_space(
    section: dict, app: Apparatus, args
) -> tuple[SearchSpace, int, int]:
    def interval(key: str, default: float) -> tuple[float, float]:
        raw = section.get(key, [default, default])
        if isinstance(raw, (int, float)):
            raw = [raw, raw]
        if not (isinstance(raw, list) and len(raw) == 2):
            raise ConfigError(f"search field '{key}' must be a number or [lo, hi]")
        return _number(key, raw[0]), _number(key, raw[1])

    x_max = _number("x_max", section.get("x_max", 3.0 * fringe_spacing(app)))
    try:
        space = SearchSpace(
            wavelength=interval("wavelength", app.wavelength),
            slit_separation=interval("slit_separation", app.slit_separation),
            screen_distance=interval("screen_distance", app.screen_distance),
            mirror_angle=interval("mirror_angle", app.mirror_angle),
            arm=interval("arm", app.arm1),
            aperture=interval("aperture", app.aperture),
            x_max=x_max,
        )
    except design.DesignError as exc:
        raise ConfigError(str(exc)) from exc
    samples = _number("samples", section.get("samples", 64), int)
    return space, samples, _load_seed(section, args)


def _timestamp_lines(args) -> list[str]:
    if args.no_timestamp:
        return []
    return [f"# generated {datetime.now(timezone.utc).isoformat()}"]


def _write_json(path: Path, payload: dict, args) -> None:
    if not args.no_timestamp:
        payload = {"generated": datetime.now(timezone.utc).isoformat(), **payload}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_validate(config: dict, args, out: Path) -> int:
    app = load_apparatus(_require_mapping(config.get("apparatus"), "apparatus"))
    x_max = _number("x_max", config.get("x_max", 3.0 * fringe_spacing(app)))
    report = design.validate(app, x_max)
    _write_json(out / "report.json", report.to_dict(), args)
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_scan(config: dict, args, out: Path) -> int:
    app = load_apparatus(_require_mapping(config.get("apparatus"), "apparatus"))
    scan = load_scan(_require_mapping(config.get("scan"), "scan"), app, args)
    try:
        scan.check_sampling(app)
    except montecarlo.ScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    xs = scan.x_positions
    lines = _timestamp_lines(args) + [CURVES_HEADER]
    # the two detector intensities are identical by construction
    for x, screen, detector in zip(
        xs.tolist(),
        screen_intensity(app, xs).tolist(),
        detector_intensity(app, xs, 1).tolist(),
    ):
        lines.append(f"{x:.9e},{screen:.9e},{detector:.9e},{detector:.9e}")
    (out / "curves.csv").write_text("\n".join(lines) + "\n")
    print(f"curves written to {out / 'curves.csv'}")
    return EXIT_OK


def cmd_simulate(config: dict, args, out: Path) -> int:
    app = load_apparatus(_require_mapping(config.get("apparatus"), "apparatus"))
    scan = load_scan(_require_mapping(config.get("scan"), "scan"), app, args)
    hyp = load_hypothesis(_require_mapping(config.get("hypothesis"), "hypothesis"), args)
    try:
        summary = montecarlo.simulate_scan(app, scan, hyp)
    except (montecarlo.ScanError, FitError, geometry.GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    lines = _timestamp_lines(args) + [COUNTS_HEADER]
    for r in summary.records:
        lines.append(
            f"{r.x:.9e},{r.n},{r.n1},{r.n2},{r.misdetected},"
            f"{r.i1_theory:.9e},{r.i2_theory:.9e}"
        )
    (out / "counts.csv").write_text("\n".join(lines) + "\n")

    ok, _ = duality_check(
        DualityPoint(hyp.distinguishability, min(summary.v_total, 1.0)), tol=0.05
    )
    exact_sep, _ = geometry.detector_separation(app, 0.0)
    _write_json(
        out / "summary.json",
        {
            "V_total": summary.v_total,
            "V_1": summary.v_1,
            "V_2": summary.v_2,
            "misdetection_rate": summary.misdetection_rate,
            "duality_satisfied": ok,
            "F_s_m": fringe_spacing(app),
            "L12_m": exact_sep,
            "seed": summary.seed,
        },
        args,
    )
    print(f"counts written to {out / 'counts.csv'}")
    print(f"summary written to {out / 'summary.json'}")
    return EXIT_OK


def cmd_search(config: dict, args, out: Path) -> int:
    app = load_apparatus(_require_mapping(config.get("apparatus"), "apparatus"))
    space, samples, seed = load_search_space(
        _require_mapping(config.get("search"), "search"), app, args
    )
    try:
        result = design.design_search(space, samples, seed)
    except design.DesignError as exc:
        raise ConfigError(str(exc)) from exc
    if result is None:
        print("no feasible apparatus found", file=sys.stderr)
        return EXIT_NO_RESULT
    best, report = result
    _write_json(out / "best_apparatus.json", dataclasses.asdict(best), args)
    _write_json(out / "report.json", report.to_dict(), args)
    print(f"best apparatus written to {out / 'best_apparatus.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorslit",
        description="Mirror-modified two-slit experiment: design checks and "
        "photon-counting simulation",
    )
    parser.add_argument("command", choices=["validate", "scan", "simulate", "search"])
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override RNG seed")
    parser.add_argument(
        "--hypothesis",
        default=None,
        help="outcome hypothesis: full | exclusive | partial:<D>",
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamps for byte-reproducible outputs",
    )
    parser.add_argument(
        "--freeze-detectors",
        action="store_true",
        help="keep the detector layout derived at x=0 for the whole scan",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                config = json.loads(args.config.read_text())
            except FileNotFoundError as exc:
                raise ConfigError(f"config file not found: {args.config}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
            if not isinstance(config, dict):
                raise ConfigError("config root must be a JSON object")
        else:
            config = {}
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "validate": cmd_validate,
            "scan": cmd_scan,
            "simulate": cmd_simulate,
            "search": cmd_search,
        }[args.command]
        return handler(config, args, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
