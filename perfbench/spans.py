"""In-memory spans for the traced run, and the wrappers that record them.

A traced run patches the public entry point of each layer that the
caller actually resolves (for example ``repro.exec.engine.estimate_design_area``,
the name the engine looks up, not ``repro.area.model``), records one span
per call, and restores every attribute afterwards.  An untraced run never
installs a wrapper, so its timings carry no tracing cost.

Spans are kept per thread as ``[name, start, end, parent]`` lists, where
``parent`` indexes the same thread's list (-1 for a root).  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: ``CompileCache.memo`` stage -> the layer whose build it memoizes.
STAGE_LAYERS = {
    "analysis.spec": "analysis.spec",
    "compile": "core.compile",
    "compile.elaborate": "core.elaborate",
    "compile.prune": "core.prune",
    "lower": "rtl.lower",
    "sim.dense": "sim.dense",
    "sim.kernel": "sim.kernel",
    "sim.reference": "sim.reference",
    "sim.sparse.compress": "sim.sparse.compress",
}

#: Most span events written to one Chrome-trace file; the per-layer
#: table always covers every span.
MAX_TRACE_EVENTS = 200_000


class Recorder:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)
        self._lists: List[List[list]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = time.perf_counter()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._lists.append(local.spans)
        return local.spans, local.stack

    def open(self, name: str) -> int:
        spans, stack = self._state()
        index = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        spans, stack = self._state()
        spans[index][2] = time.perf_counter()
        stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- reduction -----------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``inclusive_s`` (outermost spans of
        that name only, so recursion is not counted twice) and ``self_s``."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for spans in self._lists:
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for index, (name, start, end, parent) in enumerate(spans):
                row = table[name]
                row["calls"] += 1
                row["self_s"] += (end - start) - child_time[index]
                ancestor = parent
                while ancestor >= 0 and spans[ancestor][0] != name:
                    ancestor = spans[ancestor][3]
                if ancestor < 0:
                    row["inclusive_s"] += end - start
        return dict(table)

    def span_count(self) -> int:
        return sum(len(spans) for spans in self._lists)

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome ``trace_event`` document (one lane per
        recording thread), truncated at :data:`MAX_TRACE_EVENTS`."""
        events = []
        for tid, spans in enumerate(self._lists):
            for index, (name, start, end, parent) in enumerate(spans):
                if len(events) >= MAX_TRACE_EVENTS:
                    break
                events.append({
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"id": index, "parent": parent},
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans": self.span_count(), "written": len(events)},
        }

    def write(self, table_path: str, trace_path: str) -> None:
        layers = self.layers()
        lines = [f"{'layer':<24} {'calls':>9} {'inclusive_s':>12} {'self_s':>10}"]
        for name, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
            lines.append(
                f"{name:<24} {row['calls']:>9} {row['inclusive_s']:>12.4f}"
                f" {row['self_s']:>10.4f}"
            )
        for name, value in sorted(self.counts.items()):
            lines.append(f"count {name} = {value}")
        with open(table_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with open(trace_path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self.saved: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()


#: Per-layer metrics read from the recorder's counters rather than spans.
COUNTED = ("sim.dense.runs", "sim.sparse.runs", "exec.cache.lookups", "rtl.sim.cycles")


def layer_metrics(recorder: Recorder, declared, passes: int, extra: Dict):
    """Every declared per-layer metric as ``{name: {value, unit, samples}}``.

    Span-derived values are per traced pass: ``X.self_s`` is the self
    time of spans named ``X``, ``X.calls``/``X.builds`` their count,
    ``exec.halving.rungN_s`` the inclusive time of rung ``N``.  ``extra``
    supplies ``{name: (value, unit)}`` for what the workload measures
    itself; a declared metric the workload does not exercise is 0.
    """
    layers = recorder.layers()

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0)

    out = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in extra:
            value, unit = extra[name]
        elif name in COUNTED:
            value = recorder.counts.get(name, 0) / passes
        elif name == "exec.cache.hit_ratio":
            lookups = recorder.counts.get("exec.cache.lookups", 0)
            value = recorder.counts.get("exec.cache.hits", 0) / lookups if lookups else 0.0
        elif name.startswith("exec.halving.rung"):
            value = layer(name[: -len("_s")], "inclusive_s") / passes
        elif name == "rtl.sim.parse_s":
            value = layer("rtl.sim.parse", "self_s") / passes
        elif name.endswith(".self_s"):
            value = layer(name[: -len(".self_s")], "self_s") / passes
        elif name.endswith((".calls", ".builds")):
            value = layer(name.rsplit(".", 1)[0], "calls") / passes
        else:
            value = 0.0
        out[name] = {"value": value, "unit": unit, "samples": passes}
    return out


def patch_timed(patches: Patches, recorder: Recorder, owner, attr: str, name: str) -> None:
    """Wrap ``owner.attr`` in a span called ``name``."""
    patches.set(owner, attr, recorder.timed(name, owner.__dict__[attr]))


def install_engine(patches: Patches, recorder: Recorder) -> None:
    """Wrappers for the layers a design-space evaluation calls: the
    compile cache and its memo stages, simulation, area, energy and
    the microarchitecture overlay."""
    from repro.dse import uarch
    from repro.exec import engine
    from repro.exec.cache import CompileCache
    from repro.sim.spatial_array import SpatialArraySim

    patch_timed(patches, recorder, CompileCache, "key", "exec.fingerprint")

    original_memo = CompileCache.__dict__["memo"]

    def memo(self, stage, parts, build):
        layer = STAGE_LAYERS.get(stage, "exec.cache.build")
        built = []

        def timed_build():
            built.append(True)
            index = recorder.open(layer)
            try:
                return build()
            finally:
                recorder.close(index)

        index = recorder.open("exec.cache")
        try:
            return original_memo(self, stage, parts, timed_build)
        finally:
            recorder.close(index)
            recorder.count("exec.cache.lookups")
            if not built:
                recorder.count("exec.cache.hits")

    patches.set(CompileCache, "memo", functools.wraps(original_memo)(memo))

    original_run = SpatialArraySim.__dict__["run"]

    def run(self, tensors):
        sparse = any(not skip.optimistic for skip in self.design.sparsity)
        layer = "sim.sparse" if sparse else "sim.dense"
        recorder.count(layer + ".runs")
        index = recorder.open(layer)
        try:
            return original_run(self, tensors)
        finally:
            recorder.close(index)

    patches.set(SpatialArraySim, "run", functools.wraps(original_run)(run))
    patch_timed(patches, recorder, engine, "estimate_design_area", "area.estimate")
    patch_timed(patches, recorder, engine, "energy_from_counters", "area.energy")
    patch_timed(patches, recorder, uarch, "uarch_overlay", "dse.uarch")


def install_halving(patches: Patches, recorder: Recorder) -> None:
    """Time each rung's ``evaluate_sweep`` call as ``exec.halving.rungN``."""
    from repro.exec import halving

    rung = [0]
    original_tune = halving.__dict__["halving_autotune_suite"]
    original_sweep = halving.__dict__["evaluate_sweep"]

    def halving_autotune_suite(*args, **kwargs):
        rung[0] = 0
        return original_tune(*args, **kwargs)

    def evaluate_sweep(*args, **kwargs):
        index = recorder.open(f"exec.halving.rung{rung[0]}")
        rung[0] += 1
        try:
            return original_sweep(*args, **kwargs)
        finally:
            recorder.close(index)

    patches.set(halving, "halving_autotune_suite",
                functools.wraps(original_tune)(halving_autotune_suite))
    patches.set(halving, "evaluate_sweep", functools.wraps(original_sweep)(evaluate_sweep))


def install_rtl(patches: Patches, recorder: Recorder) -> None:
    """Wrappers for the layers ``verify_design`` calls: the pass
    pipeline, the equivalence checker and the RTL simulator (lowering is
    timed through its ``lower`` memo stage)."""
    from repro.analysis import verify
    from repro.rtl import passes
    from repro.rtl.sim import RTLSimulator

    patch_timed(patches, recorder, passes, "run_passes", "rtl.passes")
    patch_timed(patches, recorder, verify, "check_equivalence", "analysis.equiv")
    patch_timed(patches, recorder, RTLSimulator, "__init__", "rtl.sim.parse")
    patch_timed(patches, recorder, RTLSimulator, "poke", "rtl.sim")

    original_step = RTLSimulator.__dict__["step"]

    def step(self, cycles=1):
        recorder.count("rtl.sim.cycles", cycles)
        index = recorder.open("rtl.sim")
        try:
            return original_step(self, cycles)
        finally:
            recorder.close(index)

    patches.set(RTLSimulator, "step", functools.wraps(original_step)(step))
