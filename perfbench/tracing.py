"""Runtime tracing of the mirrorslit modules, installed from the benchmark.

Every public function of the five modules is wrapped, and the wrapper is
bound in place of the original wherever a loaded mirrorslit module holds
it.  ``montecarlo``, ``wavemodel`` and ``cli`` import names with
``from ... import`` (``montecarlo.detector_intensity``,
``wavemodel.path_lengths``), so a wrapper on the defining module alone
would miss those calls.  The package source is not edited.

A span is ``[name, start_ns, end_ns, parent_index, value, raised]``;
spans of one pass share a list, so the index of a span is its identifier
within the pass.  ``value`` holds a per-call observation for the few
functions listed in ``_VALUE``; ``raised`` is true when the call ended in
an exception.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

MODULES = ("geometry", "wavemodel", "design", "montecarlo", "cli")

# Called tens of thousands of times per pass: timing them would swamp the
# work they do, so they are only counted.
COUNT_ONLY = frozenset(
    {"geometry.point", "geometry.unit", "geometry.signed_angle", "geometry.reflect_direction"}
)

_VALUE = {
    "design.validate": lambda report: int(bool(report.feasible)),
    "wavemodel.screen_intensity": lambda result: int(np.size(result)),
}

SIMULATE = "montecarlo.simulate_scan"
SEARCH = "design.design_search"


class Tracer:
    """Owns the wrappers, the spans of the current pass and the call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack = [-1]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"mirrorslit.{short}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrap = self._counted(name, fn) if name in COUNT_ONLY else self._timed(name, fn)
                wrappers[id(fn)] = (fn, wrap)
        self._bindings = []
        for modname, mod in list(sys.modules.items()):
            if modname != "mirrorslit" and not modname.startswith("mirrorslit."):
                continue
            for attr, value in vars(mod).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((mod, attr, value, entry[1]))

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        value_of = _VALUE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1], None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if value_of is not None:
                span[4] = value_of(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for mod, attr, _, wrap in self._bindings:
            setattr(mod, attr, wrap)
        try:
            yield self
        finally:
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """Span for benchmark code; its self time is the benchmark's own."""
        span = [name, 0, 0, self._stack[-1], None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def take(self) -> tuple[list[list], dict]:
        """Return and clear the spans and counts of the pass just run.  The
        lists are cleared in place because the wrappers hold them."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def simulate_time_ns(spans: list[list]) -> int:
    """Time inside ``simulate_scan`` minus its per-scan fixed work
    (``validate`` and ``fit_visibility`` called from it): the part that
    grows with positions and photons."""
    total = 0
    for name, start, end, parent, _, _ in spans:
        if name == SIMULATE:
            total += end - start
        elif name in ("design.validate", "wavemodel.fit_visibility") and (
            parent >= 0 and spans[parent][0] == SIMULATE
        ):
            total -= end - start
    return total


def search_branches(spans: list[list], samples: int) -> dict:
    """Candidates of ``design_search`` in one pass, by the branch they took.
    The search skips a candidate whose mirror width or ``validate`` raises,
    so a candidate was evaluated only if its ``validate`` returned."""
    evaluated = feasible = 0
    for name, _, _, parent, value, raised in spans:
        if name == "design.validate" and parent >= 0 and spans[parent][0] == SEARCH and not raised:
            evaluated += 1
            feasible += value
    return {"feasible": feasible, "infeasible": evaluated - feasible, "skipped": samples - evaluated}


def layer_metrics(spans: list[list], counts: dict, info: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``info`` carries what the benchmark knows from its inputs and the
    program's outputs: photons emitted and detected by ``simulate``,
    mis-detections, warnings, search samples, bytes written and non-zero
    exits.
    """
    n = len(spans)
    child = [0] * n
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = collections.Counter(counts)
    self_ns = collections.Counter()
    total_ns = collections.Counter()
    module_self = collections.Counter()
    module_calls = collections.Counter()
    under_search = [False] * n
    under_simulate = [False] * n
    search_lhw = 0
    validate_in_sim_ns = 0
    points = 0
    for i, (name, start, end, parent, value, _) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += dur
        module = name.split(".", 1)[0]
        module_self[module] += own
        module_calls[module] += 1
        if parent >= 0:
            pname = spans[parent][0]
            under_search[i] = under_search[parent] or pname == SEARCH
            under_simulate[i] = under_simulate[parent] or pname == SIMULATE
        if name == "design.limiting_half_width" and under_search[i]:
            search_lhw += 1
        elif name == "design.validate":
            if under_simulate[i]:
                validate_in_sim_ns += dur
        elif name == "wavemodel.screen_intensity":
            points += value or 0

    def s(ns: int) -> float:
        return ns / 1e9

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    samples = info["search_samples"]
    branches = search_branches(spans, samples)
    metrics = {
        "geometry.self_s": s(module_self["geometry"]),
        "geometry.us_per_call": per(module_self["geometry"] / 1e3, module_calls["geometry"]),
        "wavemodel.self_s": s(module_self["wavemodel"]),
        "wavemodel.screen_intensity.points": points,
        "wavemodel.screen_intensity.self_s": s(self_ns["wavemodel.screen_intensity"]),
        "wavemodel.screen_intensity.ns_per_point": per(total_ns["wavemodel.screen_intensity"], points),
        "design.self_s": s(module_self["design"]),
        "design.limiting_half_width.calls_per_sample": per(search_lhw, samples),
        "design.sampling_constraint.self_s": s(self_ns["design.sampling_constraint"]),
        "design.search.feasible_ratio": per(branches["feasible"], samples),
        "design.search.skipped": branches["skipped"],
        "design.validate_share_of_simulate": per(validate_in_sim_ns, total_ns[SIMULATE]),
        "montecarlo.self_s": s(module_self["montecarlo"]),
        "montecarlo.photons_emitted": info["photons_emitted"],
        "montecarlo.detected_ratio": per(info["photons_detected"], info["photons_emitted"]),
        "montecarlo.misdetected": info["misdetected"],
        "montecarlo.conventional_scan.self_s": s(self_ns["montecarlo.conventional_scan"]),
        "montecarlo.warnings": info["warnings"],
        "cli.self_s": s(module_self["cli"]),
        "cli.bytes_written": info["bytes_written"],
        "cli.nonzero_exits": info["nonzero_exits"],
        "bench.self_s": s(module_self["bench"]),
        "trace.wall_s": s(total_ns["bench.pass"]),
        "trace.spans": n,
    }
    for name in ("geometry.detector_layout", "geometry.clearance_angles",
                 "wavemodel.detector_intensity", "wavemodel.fit_visibility",
                 "design.validate", "design.limiting_half_width"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = s(self_ns[name])
    for name in ("geometry.mirror_placement", "geometry.path_lengths",
                 "geometry.incidence_angles", "geometry.point"):
        metrics[f"{name}.calls"] = calls[name]
    return metrics


def write_spans(path: Path, passes: list[list[list]]) -> None:
    """Write the spans of every traced pass, one JSON array per line:
    ``[pass, index, name, start_ns, end_ns, parent, value, raised]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        for p, spans in enumerate(passes):
            for i, span in enumerate(spans):
                out.write(json.dumps([p, i, *span]) + "\n")
