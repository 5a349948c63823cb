"""Shared pieces of the benchmark: paths, statistics, set-up timing, the
run record and the result line."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: The three built-in suites every workload draws from.
SUITES = ("resnet50", "alexnet", "suitesparse")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Per-layer metrics only the ``serve`` workload measures.  They join the
#: ``per_layer`` list of BENCHMARK.json when serve does; until then they
#: are printed and recorded but left out of the result line.
SERVE_LAYER = [
    {"name": "exec.store.hits", "unit": "count"},
    {"name": "exec.store.misses", "unit": "count"},
    {"name": "exec.store.writes", "unit": "count"},
    {"name": "exec.store.bytes_read", "unit": "B"},
    {"name": "exec.store.bytes_written", "unit": "B"},
    {"name": "exec.cache.disk_hits", "unit": "count"},
    {"name": "serve.evaluations", "unit": "count"},
    {"name": "serve.dedup_hits", "unit": "count"},
    {"name": "serve.first_row_ms_p50", "unit": "ms"},
    {"name": "serve.first_row_ms_p90", "unit": "ms"},
    {"name": "serve.transport_s", "unit": "s"},
]


def declared(kind: str) -> List[Dict[str, object]]:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)[kind]


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def probe_setup(workload: str, seed: int, samples: int, clock: HostClock) -> List[float]:
    """Seconds, at the nominal host speed of ``clock``, from spawning a
    fresh interpreter to its exit, for a process that only imports the
    package and builds the workload's suites (``probe.py``)."""
    times = []
    for _ in range(samples):
        clock.start()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            env=child_env(), check=True, stdout=subprocess.DEVNULL,
        )
        times.append(clock.stop()[1])
    return times


#: Seconds ``reference_loop`` takes at the nominal host speed, per mix;
#: times in ``ref_ms``, ``1/ref_s`` and ``setup_s`` are scaled to it.
REFERENCE_S = {"interpreter": 0.012, "mixed": 0.016}

@functools.lru_cache(maxsize=None)
def _reference_values():
    import numpy

    return numpy.random.default_rng(1).random(200_000)


def reference_loop(mix: str) -> float:
    """A fixed amount of work that uses nothing from the package, so no
    change to the program moves its time.  ``interpreter`` is dictionary,
    small-array and hashing work; ``mixed`` is half of that plus array
    sorting and vector arithmetic.  On the shared host the slow phase
    slows the interpreter loop about as much as it slows the verify
    workload (pure-Python RTL simulation), and the mixed loop about as
    much as the tune workload (array-heavy simulation)."""
    import numpy

    rounds = 2 if mix == "interpreter" else 1
    table: Dict[int, int] = {}
    total = 0
    for i in range(30000 * rounds):
        table[i & 511] = i
        total += table.get((i * 7) & 511, 0)
    lanes = numpy.arange(64, dtype=numpy.int64)
    for i in range(750 * rounds):
        total += int((lanes * i + 3).sum() & 7)
    digest = hashlib.sha256()
    for i in range(1000 * rounds):
        digest.update(repr((i, total)).encode())
    result = float(total)
    if mix == "mixed":
        values = _reference_values()
        for i in range(30):
            result += float(numpy.sort(values[i * 1000:i * 1000 + 20000]).sum())
            result += float((values * 1.5 + 2.0).max())
    return result


class HostClock:
    """Times operations at the nominal host speed.

    The host shares its CPUs with other tenants, and its speed drifts
    between a fast and a slow phase about 1.5x apart that last from
    seconds to minutes -- longer than a run.  So each timed stretch is
    cut into segments: ``reference_loop(mix)`` is timed at every boundary
    (``start``, each ``mark`` and ``stop``), and a segment's wall time is
    scaled by ``REFERENCE_S[mix]`` over the mean reference time at its
    two ends.  The reference loops themselves are not in any timed segment.
    """

    def __init__(self, mix: str):
        self.mix = mix
        self.references: List[float] = []
        self._reset()

    def _reset(self) -> None:
        self.wall_s = 0.0
        self.ref_s = 0.0

    def _reference(self) -> float:
        started = time.perf_counter()
        reference_loop(self.mix)
        elapsed = time.perf_counter() - started
        self.references.append(elapsed)
        return elapsed

    def start(self) -> None:
        self._reset()
        self._before = self._reference()
        self._started = time.perf_counter()

    def mark(self) -> None:
        """Close the current segment and open the next."""
        ended = time.perf_counter()
        after = self._reference()
        wall = ended - self._started
        self.wall_s += wall
        self.ref_s += wall * REFERENCE_S[self.mix] * 2.0 / (self._before + after)
        self._before = after
        self._started = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """End the stretch; returns its (wall seconds, reference seconds)."""
        self.mark()
        return self.wall_s, self.ref_s


def add_time_metrics(
    metrics: Metrics, ops: Sequence[Tuple[float, float]], clock: HostClock,
    busy: Optional[Tuple[float, float]] = None,
) -> None:
    """Throughput and latency percentiles of ``ops``, a (wall seconds,
    reference seconds) pair per operation, at the nominal host speed and
    on the wall clock, and the host's median reference-loop time.
    Throughput is per second of ``busy`` (same pair), by default the sum
    of the operations."""
    count = len(ops)
    wall = [op[0] for op in ops]
    ref = [op[1] for op in ops]
    busy_wall, busy_ref = busy if busy is not None else (sum(wall), sum(ref))
    metrics.add("ops_per_ref_s", count / busy_ref, "1/ref_s", count)
    metrics.add("op_ref_ms_p50", percentile(ref, 50) * 1e3, "ref_ms", count)
    metrics.add("op_ref_ms_p90", percentile(ref, 90) * 1e3, "ref_ms", count)
    metrics.add("ops_per_s", count / busy_wall, "1/s", count)
    metrics.add("op_ms_p50", percentile(wall, 50) * 1e3, "ms", count)
    metrics.add("op_ms_p90", percentile(wall, 90) * 1e3, "ms", count)
    references = clock.references
    metrics.add("host_ref_ms", median(references) * 1e3, "ms", len(references))


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_record(workload: str, seed: int, policy: str) -> Dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "policy": policy,
    }


class Metrics:
    """Named metrics with unit and sample count, in insertion order."""

    def __init__(self):
        self.entries: Dict[str, Dict[str, object]] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.entries[name] = {"value": value, "unit": unit, "samples": samples}

    def table(self) -> str:
        lines = [f"{'metric':<28} {'value':>16} {'unit':<6} {'samples':>7}"]
        for name, entry in self.entries.items():
            lines.append(
                f"{name:<28} {entry['value']:>16.6f} {entry['unit']:<6}"
                f" {entry['samples']:>7}"
            )
        return "\n".join(lines)


class Outcome:
    """Operations attempted and the failures among them, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def finish(
    record: Dict[str, object], metrics: Metrics, outcome: Outcome, reported: Metrics
) -> int:
    """Print the report (declared metrics, then ``reported`` ones that are
    printed and recorded but not declared), write the run record, print
    the result line last, and return the exit code (non-zero on any
    failure)."""
    failed = len(outcome.failures)
    record = dict(record)
    record["attempted"] = outcome.attempted
    record["failed"] = failed
    record["failed_frac"] = failed / outcome.attempted if outcome.attempted else 1.0
    record["failures"] = outcome.failures[:20]
    record["metrics"] = metrics.entries
    record["reported_only"] = reported.entries
    OUT.mkdir(exist_ok=True)
    trace_tag = "trace" if record.get("trace") else "run"
    with open(OUT / f"{record['workload']}-{trace_tag}-record.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(metrics.table())
    if reported.entries:
        print("not declared in BENCHMARK.json:")
        print(reported.table())
    print(f"failed_frac {record['failed_frac']:.6f} ({failed}/{outcome.attempted})")
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}")
    print("run record: " + json.dumps(
        {k: v for k, v in record.items() if k not in ("metrics", "reported_only", "failures")},
        sort_keys=True,
    ))
    correct = failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.entries.items()
        },
    }))
    return 0 if correct else 1
