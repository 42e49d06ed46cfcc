"""The benchmark's workloads: inputs generated from a seed, the timed
sequence of one pass, and the checks on what the program wrote.

Commands run in-process through ``mirrorslit.cli.main`` with
``--no-timestamp``; the program sees only the generated config files and
command-line arguments.  Checks are physical invariants rather than byte
hashes, so a change to the random stream still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import time
import warnings
from pathlib import Path

import numpy as np

from mirrorslit import cli, geometry, montecarlo
from mirrorslit.geometry import Apparatus
from mirrorslit.wavemodel import HypothesisKind, OutcomeHypothesis

# The README bench: lambda = 700 nm, d = 100 um, L = 10 cm, 0.1 mm mirror at
# 45 degrees, 5 m arms, 1 mm apertures.  Fringe spacing F_s = 0.7 mm.
BENCH_APPARATUS = {
    "wavelength": 7e-7,
    "slit_separation": 1e-4,
    "screen_distance": 0.1,
    "mirror_width": 1e-4,
    "mirror_angle": math.pi / 4,
    "arm1": 5.0,
    "arm2": 5.0,
    "aperture": 1e-3,
}
F_S = BENCH_APPARATUS["wavelength"] * BENCH_APPARATUS["screen_distance"] / BENCH_APPARATUS[
    "slit_separation"
]
X_MAX = 3.0 * F_S

SEARCH_SPACE = {
    "wavelength": [4e-7, 9e-7],
    "slit_separation": [5e-5, 2e-4],
    "screen_distance": [0.05, 0.2],
    "mirror_angle": [0.5, 1.1],
    "arm": [1.0, 10.0],
    "aperture": [3e-4, 2e-3],
    "x_max": 2.1e-3,
}


def _bench_app() -> Apparatus:
    return Apparatus(**BENCH_APPARATUS)


def _read_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _same_printed(a: float, b: float) -> bool:
    """Equal to 1e-9 relative, plus one unit in the tenth significant digit
    that the CSV prints, so a rounding flip in the file does not count."""
    scale = max(abs(a), abs(b))
    digit = 10.0 ** (math.floor(math.log10(scale)) - 9) if scale > 0 else 0.0
    return abs(a - b) <= 1e-9 * scale + digit


class Pass:
    """Timings, failures and observations of one pass of a workload."""

    def __init__(self, index: int, seed: int):
        self.index = index
        self.seed = seed
        self.wall = 0.0
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed: dict[str, str] = {}  # operation -> first failure
        self.warnings = 0
        self.nonzero_exits = 0
        self.bytes_written = 0
        self.photons_emitted = 0
        self.photons_detected = 0
        self.misdetected = 0
        self.search_samples = 0
        self.rates: dict[str, float] = {}

    def fail(self, op: str, message: str) -> None:
        self.failed.setdefault(op, message)

    def expect(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return ok

    def time_of(self, step: str) -> float:
        return sum(self.times.get(step, ()))

    def info(self) -> dict:
        return {
            "photons_emitted": self.photons_emitted,
            "photons_detected": self.photons_detected,
            "misdetected": self.misdetected,
            "warnings": self.warnings,
            "search_samples": self.search_samples,
            "bytes_written": self.bytes_written,
            "nonzero_exits": self.nonzero_exits,
        }


def run_op(p: Pass, op: str, step: str, call):
    """Run one operation; returns (result, error).  Warnings are counted and
    stdout/stderr kept out of the benchmark's own output."""
    p.attempted += 1
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result, error = call(), None
            except SystemExit as exc:  # argparse rejecting the arguments
                result, error = None, f"SystemExit({exc.code})"
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    p.times.setdefault(step, []).append(elapsed)
    p.warnings += len(caught)
    if error is not None:
        p.fail(op, error)
    return result, error


def run_cli(p: Pass, op: str, step: str, argv: list[str], out: Path) -> bool:
    code, error = run_op(
        p, op, step, lambda: cli.main([*argv, "--out", str(out), "--no-timestamp"])
    )
    p.bytes_written += sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    if error is None and code != 0:
        p.nonzero_exits += 1
        p.fail(op, f"exit code {code}")
    return error is None and code == 0


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.dir = root / ".perfbench" / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def pass_seed(self, index: int) -> int:
        """Each pass draws its own RNG seed from (seed, pass index), so a run
        averages over several random streams and is the same for a seed."""
        state = np.random.SeedSequence([self.seed % 2**63, index]).generate_state(1)
        return int(state[0])

    def write_config(self, name: str, config: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(config, indent=2) + "\n")
        return path

    def out_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def prepare(self, p: Pass) -> None:
        """Clear outputs before the timed part, so a failed step cannot be
        checked against the files of an earlier pass."""

    def run(self, p: Pass) -> None:
        raise NotImplementedError

    def check(self, p: Pass) -> None:
        raise NotImplementedError

    def work_per_s(self, p: Pass) -> float:
        raise NotImplementedError

    def named(self, passes: list[Pass]) -> dict:
        """This workload's own end-to-end figures (photons per second,
        validate latency, ...) as {name: (unit, value)}, printed beside the
        gated metrics."""
        raise NotImplementedError


class MonteCarloWorkload(Workload):
    """A workload that runs ``simulate`` on a grid of the bench."""

    positions = 0
    photons = 0
    hypothesis: OutcomeHypothesis
    hypothesis_config: dict
    # The other Monte Carlo workload, whose positions and photons per
    # position are the second point of the photon-count sweep.
    sweep_other: type[MonteCarloWorkload]

    def setup(self):
        self.config = self.write_config(
            "config.json",
            {
                "apparatus": BENCH_APPARATUS,
                "scan": {
                    "x_min": -X_MAX,
                    "x_max": X_MAX,
                    "positions": self.positions,
                    "photons_per_position": self.photons,
                },
                "hypothesis": self.hypothesis_config,
            },
        )

    def check_counts(self, p: Pass, out: Path) -> tuple[list[dict], dict] | None:
        """Checks every simulate output shares: one row per position and
        N = N1 + N2.  Returns the rows and summary.json, or None."""
        try:
            rows = _read_rows(out / "counts.csv")
            summary = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            p.fail("simulate", f"unreadable output: {exc}")
            return None
        p.expect("simulate", len(rows) == self.positions, f"{len(rows)} count rows")
        for r in rows:
            n = int(r["N"])
            p.expect("simulate", n == int(r["N1"]) + int(r["N2"]), f"N != N1 + N2 at x={r['x_m']}")
            p.photons_detected += n
            p.misdetected += int(r["misdetected"])
        return rows, summary

    def sweep_point(self, seed: int) -> tuple[Apparatus, montecarlo.ScanConfig, OutcomeHypothesis]:
        other = self.sweep_other
        grid = np.linspace(-X_MAX, X_MAX, other.positions)
        return _bench_app(), montecarlo.ScanConfig(grid, other.photons, seed), self.hypothesis

    def named(self, passes):
        return {
            key: ("1/s", statistics.median(p.rates[key] for p in passes))
            for key in ("photons_per_s", "positions_per_s")
        }


class PhotonHeavy(MonteCarloWorkload):
    name = "photon_heavy"
    positions = 41
    photons = 250_000
    visibility = math.sqrt(1.0 - 0.6**2)
    hypothesis = OutcomeHypothesis(HypothesisKind.PARTIAL, 0.6)
    hypothesis_config = {"kind": "partial", "distinguishability": 0.6}

    def prepare(self, p):
        self.out = self.out_dir("simulate")

    def run(self, p):
        argv = ["simulate", "--config", str(self.config), "--seed", str(p.seed)]
        run_cli(p, "simulate", "simulate", argv, self.out)
        p.photons_emitted = self.positions * self.photons
        t = p.time_of("simulate")
        p.rates = {"photons_per_s": p.photons_emitted / t, "positions_per_s": self.positions / t}

    def check(self, p):
        op = "simulate"
        outputs = self.check_counts(p, self.out)
        if outputs is None:
            return
        rows, summary = outputs
        for r in rows:
            p.expect(op, int(r["misdetected"]) == 0, f"mis-detection at x={r['x_m']}")
            p.expect(op, float(r["I1_theory"]) == float(r["I2_theory"]), "I1 != I2")
        v = summary.get("V_total", math.nan)
        p.expect(op, abs(v - self.visibility) <= 0.05, f"V_total {v}")
        p.expect(op, summary.get("duality_satisfied") is True, "duality check failed")

    def work_per_s(self, p):
        return p.rates["photons_per_s"]


class _CountsView:
    """What ``compare_distributions`` reads of a scan summary: the positions
    and N1 + N2.  Built from counts.csv, so the comparison uses the counts
    the command wrote."""

    def __init__(self, rows: list[dict]):
        self._x = np.array([float(r["x_m"]) for r in rows])
        self._n = np.array([float(r["N"]) for r in rows])

    def positions(self):
        return self._x

    def counts(self):
        return self._n


class FineGrid(MonteCarloWorkload):
    name = "fine_grid"
    positions = 1001
    photons = 1000
    hypothesis = OutcomeHypothesis(HypothesisKind.FULL_DUALITY)
    hypothesis_config = {"kind": "full"}

    def setup(self):
        super().setup()
        self.app = _bench_app()
        self.grid = np.linspace(-X_MAX, X_MAX, self.positions)

    def prepare(self, p):
        self.scan_out = self.out_dir("scan")
        self.sim_out = self.out_dir("simulate")
        self.compatible = None

    def run(self, p):
        seed = ["--seed", str(p.seed)]
        run_cli(p, "scan", "scan", ["scan", "--config", str(self.config), *seed], self.scan_out)
        sim_ok = run_cli(
            p, "simulate", "simulate", ["simulate", "--config", str(self.config), *seed], self.sim_out
        )
        p.photons_emitted = self.positions * self.photons
        reference, _ = run_op(
            p,
            "conventional_scan",
            "conventional_scan",
            lambda: montecarlo.conventional_scan(
                self.app, montecarlo.ScanConfig(self.grid, self.photons, p.seed)
            ),
        )
        if sim_ok and reference is not None:
            result, _ = run_op(
                p,
                "compare",
                "compare",
                lambda: montecarlo.compare_distributions(
                    reference, _CountsView(_read_rows(self.sim_out / "counts.csv"))
                ),
            )
            self.compatible = None if result is None else result[1]
        else:
            p.attempted += 1
            p.fail("compare", "no inputs to compare")
        scan_sim = p.time_of("scan") + p.time_of("simulate")
        p.rates = {
            "positions_per_s": self.positions / scan_sim,
            "photons_per_s": p.photons_emitted / p.time_of("simulate"),
        }

    def check(self, p):
        try:
            curves = _read_rows(self.scan_out / "curves.csv")
        except OSError as exc:
            p.fail("scan", f"unreadable output: {exc}")
        else:
            p.expect("scan", len(curves) == self.positions, f"{len(curves)} curve rows")
            for a, b in zip(curves, reversed(curves)):
                ia, ib = float(a["I"]), float(b["I"])
                if not p.expect("scan", _same_printed(ia, ib), f"I(x) != I(-x) at x={a['x_m']}"):
                    break
            for r in curves:
                if not p.expect("scan", float(r["I1"]) == float(r["I2"]), "I1 != I2"):
                    break
        outputs = self.check_counts(p, self.sim_out)
        if outputs is not None:
            v = outputs[1].get("V_total", math.nan)
            p.expect("simulate", v >= 0.95, f"V_total {v}")
        if "compare" not in p.failed:
            p.expect("compare", self.compatible is True, "sum rule: distributions incompatible")

    def work_per_s(self, p):
        return p.rates["positions_per_s"]


class DesignSweep(Workload):
    name = "design_sweep"
    validates = 20  # per pass; a 30 s run gathers ~200, enough for a p90
    samples = 64

    def setup(self):
        self.validate_config = self.write_config(
            "validate.json", {"apparatus": BENCH_APPARATUS, "x_max": X_MAX}
        )
        self.search_config = self.write_config(
            "search.json",
            {"apparatus": BENCH_APPARATUS, "search": {**SEARCH_SPACE, "samples": self.samples}},
        )

    def prepare(self, p):
        self.validate_outs = [self.out_dir(f"validate-{k}") for k in range(self.validates)]
        self.search_out = self.out_dir("search")

    def run(self, p):
        for k, out in enumerate(self.validate_outs):
            run_cli(p, f"validate-{k}", "validate", ["validate", "--config", str(self.validate_config)], out)
        argv = ["search", "--config", str(self.search_config), "--seed", str(p.seed)]
        run_cli(p, "search", "search", argv, self.search_out)
        p.search_samples = self.samples
        p.rates = {"search_samples_per_s": self.samples / p.time_of("search")}

    def check(self, p):
        for k, out in enumerate(self.validate_outs):
            op = f"validate-{k}"
            try:
                report = json.loads((out / "report.json").read_text())
            except (OSError, ValueError) as exc:
                p.fail(op, f"unreadable output: {exc}")
                continue
            p.expect(op, report.get("feasible") is True, "bench reported infeasible")
            w = report.get("required_w_m", math.nan)
            p.expect(op, math.isclose(w, 1e-4, rel_tol=1e-9), f"required_w_m {w}")
        try:
            best = json.loads((self.search_out / "best_apparatus.json").read_text())
            report = json.loads((self.search_out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            p.fail("search", f"unreadable output: {exc}")
            return
        p.expect("search", report.get("feasible") is True, "best report infeasible")
        exact, _ = geometry.detector_separation(Apparatus(**best), 0.0)
        l12 = report.get("L12_m", math.nan)
        p.expect("search", math.isclose(l12, exact, rel_tol=1e-12), f"L12_m {l12} != {exact}")

    def work_per_s(self, p):
        return p.rates["search_samples_per_s"]

    def named(self, passes):
        latencies = [t * 1e3 for p in passes for t in p.times.get("validate", ())]
        return {
            "validate_ms": ("ms", statistics.median(latencies)),
            "validate_p90_ms": ("ms", statistics.quantiles(latencies, n=10)[-1]),
            "validate_samples": ("count", len(latencies)),
            "search_samples_per_s": (
                "1/s",
                statistics.median(p.rates["search_samples_per_s"] for p in passes),
            ),
        }


PhotonHeavy.sweep_other, FineGrid.sweep_other = FineGrid, PhotonHeavy
WORKLOADS = {w.name: w for w in (PhotonHeavy, FineGrid, DesignSweep)}
