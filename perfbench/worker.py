"""One workload in one fresh process: set up, then passes in a closed loop.

Started by run.py, never imported.  Prints ``READY`` once the imports and
the generated configs are in place (the end of set-up), and then, unless
``--setup-only``, one JSON line with the run's results.

Untraced (``--trace 0``): passes back to back until ``--seconds`` have
passed.  Traced (``--trace 1``): each pass index runs twice on the same
inputs, once untraced and once with every mirrorslit function wrapped, in
alternating order; the per-layer metrics come from the traced copies and
the difference of the two medians is the tracing overhead.  A Monte Carlo
workload also makes one traced photon-count sweep call per pass index.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mirrorslit import montecarlo  # noqa: E402
from tracing import (  # noqa: E402
    SIMULATE,
    Tracer,
    layer_metrics,
    search_branches,
    simulate_time_ns,
    write_spans,
)

MIN_PASSES = 3
# Counts repeat exactly for a seed, so they are taken from the first traced
# pass; times and ratios are medians over the traced passes.
EXACT = (".calls", ".points", ".skipped", "photons_emitted", "misdetected",
         "warnings", "bytes_written", "nonzero_exits", "trace.spans")


def run_pass(wl: workloads.Workload, index: int, tracer: Tracer | None):
    p = workloads.Pass(index, wl.pass_seed(index))
    wl.prepare(p)
    spans = counts = None
    if tracer is None:
        start = time.perf_counter()
        wl.run(p)
        p.wall = time.perf_counter() - start
    else:
        with tracer.installed():
            with tracer.root("bench.pass"):
                start = time.perf_counter()
                wl.run(p)
                p.wall = time.perf_counter() - start
        spans, counts = tracer.take()
    try:
        wl.check(p)
    except Exception as exc:  # malformed output: a failed check, not a crash
        p.fail("check", f"{type(exc).__name__}: {exc}")
    return p, spans, counts


def sweep_call(wl: workloads.MonteCarloWorkload, index: int, tracer: Tracer) -> float:
    """Time per position, in ns, of one traced simulate_scan at the other
    Monte Carlo workload's positions and photons (the sweep's second point)."""
    app, config, hyp = wl.sweep_point(wl.pass_seed(index))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed():
            with tracer.root("bench.sweep"):
                montecarlo.simulate_scan(app, config, hyp)
    spans, _ = tracer.take()
    if not any(s[0] == SIMULATE for s in spans):
        raise RuntimeError(f"{SIMULATE} was not traced")
    return simulate_time_ns(spans) / config.x_positions.size


def photon_sweep(wl: workloads.Workload, traced_spans: list, sweep_ns: list[float]) -> dict:
    """Fixed cost per position and marginal cost per photon: the line through
    the median time per position of simulate_scan at this workload's photon
    count (the traced passes) and at the other workload's (the sweep calls)."""
    if not isinstance(wl, workloads.MonteCarloWorkload):
        return {"montecarlo.ns_per_photon": 0.0, "montecarlo.us_per_position": 0.0}
    own = statistics.median(simulate_time_ns(s) / wl.positions for s in traced_spans)
    other = statistics.median(sweep_ns)
    points = sorted([(wl.photons, own), (wl.sweep_other.photons, other)])
    (n_lo, t_lo), (n_hi, t_hi) = points
    slope = (t_hi - t_lo) / (n_hi - n_lo)
    return {
        "montecarlo.ns_per_photon": slope,
        "montecarlo.us_per_position": (t_lo - slope * n_lo) / 1e3,
    }


def summarize_layers(per_pass: list[dict]) -> dict:
    out = {}
    for name in per_pass[0]:
        if name.endswith(EXACT):
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(m[name] for m in per_pass)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    print("READY", flush=True)
    if args.setup_only:
        return 0

    begin = time.perf_counter()
    plain, traced, traced_spans, layers, sweep_ns = [], [], [], [], []
    sweeps = isinstance(wl, workloads.MonteCarloWorkload)
    index = 0
    while index < MIN_PASSES or time.perf_counter() - begin < args.seconds:
        if tracer is None:
            plain.append(run_pass(wl, index, None)[0])
        else:
            for use in ((None, tracer) if index % 2 == 0 else (tracer, None)):
                p, spans, counts = run_pass(wl, index, use)
                if use is None:
                    plain.append(p)
                else:
                    traced.append(p)
                    traced_spans.append(spans)
                    layers.append(layer_metrics(spans, counts, p.info()))
            if sweeps:
                sweep_ns.append(sweep_call(wl, index, tracer))
        index += 1

    passes = plain + traced
    walls = [p.wall for p in plain]
    rates = [wl.work_per_s(p) for p in plain]
    failures = [f"pass {p.index} {op}: {msg}" for p in passes for op, msg in p.failed.items()]
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "passes": len(plain),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "failures": failures[:10],
        "walls": walls,
        # The host alternates between a contended speed and bursts up to 1.8x
        # faster that can fill a whole run.  The slow-side decile keeps
        # reporting the contended speed unless bursts fill nine tenths of a
        # run; the median flips once they fill half.
        "wall_p90_s": statistics.quantiles(walls, n=10)[-1],
        "work_p10_per_s": statistics.quantiles(rates, n=10)[0],
        "named": {
            "wall_s": ("s", statistics.median(walls)),
            "work_per_s": ("1/s", statistics.median(rates)),
            **wl.named(plain),
        },
        "numpy": np.__version__,
    }
    if tracer is None:
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        metrics = summarize_layers(layers)
        metrics["tracing_overhead_s"] = (
            statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
        )
        metrics.update(photon_sweep(wl, traced_spans, sweep_ns))
        result["layers"] = metrics
        result["traced_passes"] = len(traced)
        result["sweep_calls"] = len(sweep_ns)
        # Every traced pass searches its own candidates: the branches summed
        # over them show which branches of design_search the run took.
        result["search_branches"] = {
            branch: sum(search_branches(s, p.search_samples)[branch] for s, p in zip(traced_spans, traced))
            for branch in ("feasible", "infeasible", "skipped")
        }
        write_spans(ROOT / ".perfbench" / f"spans-{wl.name}-seed{args.seed}.jsonl.gz", traced_spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
