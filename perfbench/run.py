"""mirrorslit benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload photon_heavy --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Each run starts fresh worker processes (perfbench/worker.py), one
at a time, with BLAS pinned to one thread.  ``setup_s`` is the upper
quartile, over 17 fresh processes spread before and after the measured
one, of the time from process start to the first timed call.
``--workload all`` runs the three workloads in turn and prints every
end-to-end figure by name and unit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The full
result, with run metadata, is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("photon_heavy", "fine_grid", "design_sweep")
# Set-up probes per untraced run: half before the measured worker, half
# after it, so that they span the run instead of one moment of it.
SETUP_PROBES = 16
# Time a run may take beyond --seconds (set-up probes, the last pass).
MARGIN_S = 120.0
PIN_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
END_TO_END_UNITS = {"setup_s": "s", "wall_p90_s": "s", "work_p10_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if "ns_per_" in name:
        return "ns"
    if name.endswith("calls_per_sample"):
        return "calls/sample"
    if name.endswith(("_ratio", "_share_of_simulate")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Start one worker and time it to READY.  Returns (setup seconds,
    process)."""
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = {**os.environ, **PIN_THREADS}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} did not get ready (exit {proc.returncode})")
    return setup, proc


def finish(proc, deadline: float) -> dict | None:
    """Wait for a worker; returns its result, or None for a set-up probe."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def probe_setups(workload: str, seed: int, count: int, deadline: float) -> list[float]:
    setups = []
    for _ in range(count):
        setup, proc = spawn(workload, seed, 1.0, 0, True, deadline)
        finish(proc, deadline)
        setups.append(setup)
    return setups


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + seconds + MARGIN_S
    probes = 0 if trace else SETUP_PROBES
    setups = probe_setups(workload, seed, probes // 2, deadline)
    setup, proc = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(setup)
    result = finish(proc, deadline)
    if result is None:
        raise BenchError("worker printed no result")
    setups += probe_setups(workload, seed, probes - probes // 2, deadline)
    result["setup_samples"] = setups
    if probes:
        # Upper quartile, like the slow-side deciles of the timings: bursts
        # of host speed lower some probes; the contended speed is the common one.
        result["setup_s"] = statistics.quantiles(setups, n=4)[2]
    return result


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(numpy_version: str) -> dict:
    """Informational only; nothing here is gated."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": _cache_sizes(),
        "src_lines": src_lines,
        "commit": _commit(),
    }


def report(result: dict, trace: int) -> dict:
    """Print the human-readable block and return the contract's metrics."""
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}  seed={result['seed']}  passes={result['passes']}  trace={trace}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if trace:
        metrics = result["layers"]
        for key, value in metrics.items():
            print(f"   {key:48s} {value:14.6g} {layer_unit(key)}")
        branches = result["search_branches"]
        if any(branches.values()):
            print(f"   design_search candidates over {result['traced_passes']} traced passes: "
                  + ", ".join(f"{n} {b}" for b, n in branches.items()))
        return {key: {"value": value, "unit": layer_unit(key)} for key, value in metrics.items()}
    values = {
        "setup_s": result["setup_s"],
        "wall_p90_s": result["wall_p90_s"],
        "work_p10_per_s": result["work_p10_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    rows = [(key, END_TO_END_UNITS[key], value) for key, value in values.items()]
    rows += [(key, unit, value) for key, (unit, value) in result["named"].items()]
    rows.append(("error_rate", "ratio", failed / attempted))
    for key, unit, value in rows:
        print(f"   {key:24s} {value:14.6g} {unit}")
    return {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mirrorslit" / "__init__.py").is_file():
        print(f"error: no mirrorslit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result["metadata"] = metadata(result.pop("numpy"))
        metrics = report(result, args.trace)
        outputs[name] = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
        path = ROOT / ".perfbench" / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
    print("   metadata " + json.dumps(result["metadata"]))
    final = outputs[names[0]] if len(names) == 1 else outputs
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
