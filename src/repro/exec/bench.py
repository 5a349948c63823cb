"""Multi-benchmark harness for the evaluation fast paths.

The benchmark families, each recording an entry in ``BENCH_dse.json``'s
``sweeps`` map and each gated by :func:`check_regression`:

* **dse** (``reference``/``quick``) -- the original wall-clock sweep:
  serial uncached vs cached vs parallel;
* **membuf / dma / merger** -- micro-sweeps of the simulator fast
  paths.  Their "speedups" are *model-cycle ratios* (pipelined vs
  scalar buffer reads, 16-deep vs 1-deep DMA on a pointer chase,
  row-partitioned vs flattened merging), fully deterministic and
  machine-independent, so the CI gate on them is exact rather than
  statistical;
* **kernel_reference** -- scalar reference interpreter vs the
  trace-compiled batched kernel (:mod:`repro.sim.kernel`) on the same
  workload; byte-identical outputs required, gated both relatively and
  by the absolute :data:`KERNEL_MIN_SPEEDUP` floor;
* **suite_resnet50** -- cold vs warm ``repro sweep`` in two fresh
  subprocesses sharing one :class:`~repro.exec.store.DiskStore` root:
  the measured value is what the persistent tier buys a repeat
  invocation, and the gate also requires byte-identical rows;
* **autotune_halving** -- successive-halving vs exhaustive (``eta=1``)
  autotuning over the *widened* design space on three suites; the
  speedup is the worst-suite full-fidelity evaluations-saved ratio,
  gated by the absolute :data:`HALVING_MIN_SPEEDUP` floor, plus
  never-worse-than-exhaustive aggregate cycles on every suite and
  byte-identical winner rows + rung tallies across two fresh
  subprocesses sharing one disk-store root.

Speedups, not absolute times, are the regression currency: absolute
wall-clock shifts with the machine, but "the cache makes the sweep N x
faster" is a property of the code.  :func:`check_regression` fails when
the measured speedup drops below half of the committed baseline's.

Run via ``python -m repro bench`` or ``python benchmarks/bench_dse.py``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional

from ..core.balancing import LoadBalancingScheme
from ..core.expr import Bounds
from ..core.sparsity import SparsityStructure
from .cache import CompileCache
from .fingerprint import tensor_signature

#: A sweep regresses when its speedup falls below this fraction of the
#: committed baseline's speedup (i.e. more than 2x slower, relatively).
REGRESSION_RATIO = 0.5

DEFAULT_OUTPUT = "BENCH_dse.json"


def _reference_sweep(size: int, seed: int):
    """The CLI's default matmul sweep: 4 transforms x 4 sparsities x 2
    balancings, minus duplicates the cache is expected to exploit."""
    from ..cli import SPARSITIES, TRANSFORMS, _random_tensors
    from ..core import matmul_spec
    from ..core.balancing import row_shift_scheme

    spec = matmul_spec()
    bounds = Bounds({name: size for name in spec.index_names})
    tensors = _random_tensors(spec, size, seed)
    sparsities = {"dense": SparsityStructure()}
    for name, factory in SPARSITIES.items():
        if factory is not None:
            sparsities[name] = factory(spec)
    return dict(
        spec=spec,
        bounds=bounds,
        tensors=tensors,
        transforms={name: factory() for name, factory in TRANSFORMS.items()},
        sparsities=sparsities,
        balancings={
            "none": LoadBalancingScheme(),
            "row-shift": row_shift_scheme(size // 2),
        },
    )


def _time(fn: Callable[[], object], repeats: int) -> Dict[str, object]:
    """Best-of-``repeats`` wall clock; the minimum is the least noisy
    estimator for a deterministic workload."""
    samples: List[float] = []
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - start)
    return {"best_s": min(samples), "samples_s": samples, "value": value}


def _point_signature(result) -> List[tuple]:
    return [
        (p.name, p.cycles, round(p.utilization, 12), round(p.area_um2, 6))
        for p in result.points
    ]


def run_bench(
    size: int = 8,
    seed: int = 0,
    repeats: int = 3,
    jobs: int = 0,
    quick: bool = False,
) -> Dict[str, object]:
    """Benchmark the reference sweep; returns the report dict.

    ``quick`` shrinks the workload (smaller bounds, one repeat) for CI
    smoke runs; the speedup ratio is noisier but still detects
    an order-of-magnitude fast-path breakage.
    """
    from ..dse.explorer import explore

    if quick:
        size = min(size, 6)
        repeats = 1

    sweep = _reference_sweep(size, seed)
    kwargs = dict(
        transforms=sweep["transforms"],
        sparsities=sweep["sparsities"],
        balancings=sweep["balancings"],
    )
    spec, bounds, tensors = sweep["spec"], sweep["bounds"], sweep["tensors"]

    serial = _time(
        lambda: explore(spec, bounds, tensors, cache=False, **kwargs), repeats
    )
    cached = _time(
        lambda: explore(spec, bounds, tensors, cache=True, **kwargs), repeats
    )

    def _parallel():
        return explore(
            spec, bounds, tensors, cache=CompileCache(), jobs=jobs, **kwargs
        )

    parallel = _time(_parallel, repeats)

    baseline_sig = _point_signature(serial["value"])
    identical = (
        baseline_sig == _point_signature(cached["value"])
        == _point_signature(parallel["value"])
    )

    serial_s = serial["best_s"]
    cached_s = cached["best_s"]
    parallel_s = parallel["value"].report.jobs, parallel["best_s"]
    best_engine_s = min(cached_s, parallel_s[1])

    return {
        "sweep": "quick" if quick else "reference",
        "size": size,
        "seed": seed,
        "repeats": repeats,
        "points": len(serial["value"].points),
        "tensors": [list(sig) for sig in tensor_signature(tensors)],
        "serial_uncached_s": round(serial_s, 6),
        "serial_cached_s": round(cached_s, 6),
        "parallel_cached_s": round(parallel_s[1], 6),
        "parallel_jobs": parallel_s[0],
        "speedup_cached": round(serial_s / cached_s, 4),
        "speedup_parallel": round(serial_s / parallel_s[1], 4),
        "speedup": round(serial_s / best_engine_s, 4),
        "results_identical": identical,
        "cache": cached["value"].report.cache_stats.as_dict(),
    }


# ---------------------------------------------------------------------------
# Simulator micro-sweeps (deterministic model-cycle ratios)
# ---------------------------------------------------------------------------


def run_membuf_bench(rows: int = 32, cols: int = 32) -> Dict[str, object]:
    """Pipelined vs scalar buffer reads over one dense tile.

    The scalar path pays the full access latency per element; the
    pipelined stream overlaps it.  Both are closed-form properties of
    :class:`~repro.sim.membuf.MemBufSim`, so the ratio is exact.
    """
    import numpy as np

    from ..core.memspec import dense_matrix_buffer
    from ..sim.membuf import MemBufSim

    array = np.arange(rows * cols).reshape(rows, cols) + 1
    spec = dense_matrix_buffer("bench", rows, cols)

    scalar_sim = MemBufSim(spec)
    scalar_sim.load(array)
    cycle = scalar_sim.busy_until
    identical = True
    for r in range(rows):
        for c in range(cols):
            value, cycle = scalar_sim.read_element((r, c), cycle)
            if value != array[r, c]:
                identical = False
    scalar_cycles = cycle

    stream_sim = MemBufSim(spec)
    stream_sim.load(array)
    stream_cycles = stream_sim.stream_read(rows * cols, stream_sim.busy_until)

    return {
        "sweep": "membuf",
        "rows": rows,
        "cols": cols,
        "elements": rows * cols,
        "scalar_cycles": int(scalar_cycles),
        "stream_cycles": int(stream_cycles),
        "speedup": round(scalar_cycles / stream_cycles, 4),
        "results_identical": identical,
    }


def run_dma_bench(
    vector_count: int = 64, vector_bytes: int = 64, deep: int = 16
) -> Dict[str, object]:
    """1-deep vs 16-deep DMA on the OuterSPACE pointer chase.

    Section VI-C's fix: a deeper in-flight window overlaps independent
    requests around stalled pointer dependencies.  Cycle counts come
    from the deterministic :class:`~repro.sim.dma.DMASim` model.
    """
    from ..sim.dma import DMASim, pointer_chase_transfers
    from ..sim.dram import DRAMModel

    transfers = pointer_chase_transfers(vector_count, vector_bytes)
    shallow = DMASim(DRAMModel(), max_inflight=1).run(transfers)
    deep_result = DMASim(DRAMModel(), max_inflight=deep).run(transfers)

    return {
        "sweep": "dma",
        "vector_count": vector_count,
        "vector_bytes": vector_bytes,
        "max_inflight": deep,
        "shallow_cycles": int(shallow.total_cycles),
        "deep_cycles": int(deep_result.total_cycles),
        "speedup": round(shallow.total_cycles / deep_result.total_cycles, 4),
        "results_identical": shallow.bytes_moved == deep_result.bytes_moved,
    }


def run_merger_bench(max_rows: int = 48, seed: int = 7) -> Dict[str, object]:
    """Row-partitioned vs flattened merge throughput (Figure 18).

    One synthetic matrix per degree-distribution class; the recorded
    speedup is the geometric mean of the per-matrix relative
    throughputs, and determinism is checked by running the comparison
    twice.
    """
    import math

    from ..baselines.mergers import compare_mergers
    from ..workloads import SUITESPARSE_SET, synthesize

    chosen: Dict[str, str] = {}
    for info in SUITESPARSE_SET:
        chosen.setdefault(info.kind, info.name)

    per_matrix = {}
    identical = True
    for kind, name in sorted(chosen.items()):
        matrix = synthesize(name, max_rows=max_rows, seed=seed)
        first = compare_mergers(matrix, name=name)
        again = compare_mergers(matrix, name=name)
        if (first.flattened_epc, first.row_partitioned_epc) != (
            again.flattened_epc, again.row_partitioned_epc
        ):
            identical = False
        per_matrix[name] = {
            "class": kind,
            "flattened_epc": round(first.flattened_epc, 4),
            "row_partitioned_epc": round(first.row_partitioned_epc, 4),
            "relative": round(first.relative, 4),
        }

    geomean = math.exp(
        sum(math.log(entry["relative"]) for entry in per_matrix.values())
        / len(per_matrix)
    )
    return {
        "sweep": "merger",
        "max_rows": max_rows,
        "seed": seed,
        "matrices": per_matrix,
        "speedup": round(geomean, 4),
        "results_identical": identical,
    }


# ---------------------------------------------------------------------------
# Kernel bench (trace-compiled batched reference vs the scalar walker)
# ---------------------------------------------------------------------------

#: Absolute floor for the kernel bench: the batched replay must beat the
#: scalar interpreter by at least this factor, independent of any
#: committed baseline.  The acceptance criterion for the kernel path.
KERNEL_MIN_SPEEDUP = 2.0


def run_kernel_bench(
    size: int = 12, seed: int = 0, repeats: int = 3
) -> Dict[str, object]:
    """Scalar reference interpreter vs trace-compiled batched kernel.

    Every ``SpatialArraySim.run``, dense or sparse, funnels its
    functional outputs through the reference interpretation, so this
    ratio is what the kernel path buys suite sweeps.  Both backends must
    produce byte-identical output arrays (``results_identical``), and the gate
    is twofold: the relative :data:`REGRESSION_RATIO` check against the
    committed baseline, plus the absolute :data:`KERNEL_MIN_SPEEDUP`
    floor carried in the report as ``min_speedup``.
    """
    import numpy as np

    from ..core.functionality import matmul_spec
    from ..sim.kernel import compile_kernel

    spec = matmul_spec()
    bounds = Bounds({name: size for name in spec.index_names})
    rng = np.random.default_rng(seed)
    tensors = {
        "A": rng.integers(-8, 8, (size, size)),
        "B": rng.integers(-8, 8, (size, size)),
    }
    kernel = compile_kernel(spec)
    if kernel is None:
        raise RuntimeError("matmul spec must be kernel-traceable")

    scalar = _time(
        lambda: spec.interpret(bounds, tensors, kernel=False), repeats
    )
    kernel.replay(bounds, tensors)  # warm the ufunc/compile machinery
    replay = _time(lambda: kernel.replay(bounds, tensors), repeats)

    scalar_out, kernel_out = scalar["value"], replay["value"]
    identical = set(scalar_out) == set(kernel_out) and all(
        scalar_out[name].dtype == kernel_out[name].dtype
        and scalar_out[name].shape == kernel_out[name].shape
        and scalar_out[name].tobytes() == kernel_out[name].tobytes()
        for name in scalar_out
    )
    scalar_s = scalar["best_s"]
    replay_s = max(replay["best_s"], 1e-9)
    return {
        "sweep": "kernel_reference",
        "size": size,
        "seed": seed,
        "repeats": repeats,
        "points": bounds.point_count(spec.index_names),
        "scalar_s": round(scalar_s, 6),
        "kernel_s": round(replay_s, 6),
        "speedup": round(scalar_s / replay_s, 4),
        "min_speedup": KERNEL_MIN_SPEEDUP,
        "results_identical": identical,
    }


# ---------------------------------------------------------------------------
# Halving bench (multi-fidelity pruning vs exhaustive full-fidelity search)
# ---------------------------------------------------------------------------

#: Absolute floor for the halving bench: on its worst suite, successive
#: halving must need at least this many times fewer full-fidelity
#: evaluations than the exhaustive (``eta=1``) autotuner over the same
#: widened space.  The acceptance criterion for the halving path.
HALVING_MIN_SPEEDUP = 3.0

#: Suites the halving gate runs on -- the dense CNN pair plus the
#: sparse SuiteSparse sweep, the three acceptance workloads.
HALVING_SUITES = ("resnet50", "alexnet", "suitesparse")

#: Operand seed for the halving bench -- the suite default, so the gate
#: compares the same workload the acceptance sweep runs.
DEFAULT_AUTOTUNE_SEED = 7


def run_halving_bench(
    suites=HALVING_SUITES, cap: int = 8, seed: int = DEFAULT_AUTOTUNE_SEED
) -> Dict[str, object]:
    """Successive-halving vs exhaustive autotuning over the widened space.

    Three gates, all deterministic:

    * **never worse** -- on every suite, the halving aggregate cycles
      must not exceed the ``eta=1`` run's (a single exact rung over the
      identical combo list, i.e. the exhaustive autotuner).  The fixed
      baseline survives every rung unconditionally, so a loss here is a
      pruning bug, not noise;
    * **evaluations saved** -- the worst-suite ratio of exhaustive to
      final-rung full-fidelity evaluations is the recorded speedup,
      gated by the absolute :data:`HALVING_MIN_SPEEDUP` floor;
    * **determinism** -- two fresh subprocesses running
      ``repro sweep resnet50 --halving --json`` against one shared
      disk-store root must produce byte-identical winner rows *and*
      rung tallies (in-process fallback: two cold-cache runs).
    """
    import tempfile

    from .halving import halving_autotune_suite
    from .suite import build_suite

    per_suite: Dict[str, Dict[str, object]] = {}
    halved_total = 0
    exhaustive_total = 0
    never_worse = True
    worst_saved = None
    for suite in suites:
        cache = CompileCache()
        halved = halving_autotune_suite(
            build_suite(suite, cap=cap, seed=seed), objective="cycles",
            eta=2, jobs=1, cache=cache,
        )
        exhaustive = halving_autotune_suite(
            build_suite(suite, cap=cap, seed=seed), objective="cycles",
            eta=1, jobs=1, cache=cache,
        )
        saved = halved.evaluations_saved
        worst_saved = saved if worst_saved is None else min(worst_saved, saved)
        halved_total += halved.total_cycles
        exhaustive_total += exhaustive.total_cycles
        if halved.total_cycles > exhaustive.total_cycles:
            never_worse = False
        per_suite[suite] = {
            "cases": len(halved.decisions),
            "combos": len(halved.combos),
            "halving_cycles": int(halved.total_cycles),
            "exhaustive_cycles": int(exhaustive.total_cycles),
            "full_fidelity_evaluations": halved.full_fidelity_evaluations,
            "exhaustive_evaluations": halved.exhaustive_evaluations,
            "evaluations_saved": round(saved, 4),
            "rungs": [stats.as_dict() for stats in halved.rungs],
            "never_worse": halved.total_cycles <= exhaustive.total_cycles,
        }

    determinism_suite = suites[0]
    mode = "subprocess"
    with tempfile.TemporaryDirectory(prefix="stellar-bench-") as cache_dir:
        first = _sweep_subprocess(
            determinism_suite, cap, seed, cache_dir, extra_args=("--halving",)
        )
        second = (
            _sweep_subprocess(
                determinism_suite, cap, seed, cache_dir,
                extra_args=("--halving",),
            )
            if first is not None
            else None
        )
    if first is None or second is None:
        mode = "in-process"
        first = halving_autotune_suite(
            build_suite(determinism_suite, cap=cap, seed=seed),
            objective="cycles", eta=2, jobs=1, cache=CompileCache(),
        ).to_dict()
        second = halving_autotune_suite(
            build_suite(determinism_suite, cap=cap, seed=seed),
            objective="cycles", eta=2, jobs=1, cache=CompileCache(),
        ).to_dict()
    identical = (
        first["rows"] == second["rows"] and first["rungs"] == second["rungs"]
    )

    return {
        "sweep": "autotune_halving",
        "suites": per_suite,
        "cap": cap,
        "seed": seed,
        "eta": 2,
        "determinism_suite": determinism_suite,
        "mode": mode,
        "autotuned_cycles": int(halved_total),
        "fixed_cycles": int(exhaustive_total),
        "beats_fixed": never_worse,
        "speedup": round(worst_saved or 0.0, 4),
        "min_speedup": HALVING_MIN_SPEEDUP,
        "results_identical": identical,
    }


# ---------------------------------------------------------------------------
# Suite warm-start bench (the persistent tier's payoff)
# ---------------------------------------------------------------------------


def _suite_rows(payload: Dict[str, object]) -> List[dict]:
    return list(payload.get("rows", []))


def _sweep_subprocess(
    suite: str, cap: int, seed: int, cache_dir: str, extra_args=()
):
    """One ``repro sweep --json`` run in a fresh interpreter; returns the
    parsed payload, or None when subprocesses are unavailable."""
    import os
    import subprocess
    import sys

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["STELLAR_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    try:
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep", suite,
                "--cap", str(cap), "--seed", str(seed), "--json",
                *extra_args,
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    try:
        return json.loads(completed.stdout)
    except ValueError:
        return None


def run_suite_bench(
    suite: str = "resnet50", cap: int = 8, seed: int = 0
) -> Dict[str, object]:
    """Cold vs warm suite sweep against one fresh disk-store root.

    Preferred measurement: two fresh subprocesses (true cross-process
    reuse, the acceptance scenario).  Sandboxes that cannot spawn fall
    back to two in-process evaluations against the same store root --
    same cache mechanics, weaker isolation.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="stellar-bench-") as cache_dir:
        cold = _sweep_subprocess(suite, cap, seed, cache_dir)
        warm = (
            _sweep_subprocess(suite, cap, seed, cache_dir)
            if cold is not None
            else None
        )
        mode = "subprocess"
        if cold is None or warm is None:
            from .cache import persistent_compile_cache
            from .suite import build_suite, evaluate_suite

            mode = "in-process"
            built = build_suite(suite, cap=cap, seed=seed)
            cold = evaluate_suite(
                built, jobs=1, cache=persistent_compile_cache(cache_dir)
            ).to_dict()
            warm = evaluate_suite(
                built, jobs=1, cache=persistent_compile_cache(cache_dir)
            ).to_dict()

    cold_s = float(cold["aggregates"]["elapsed_s"])
    warm_s = max(float(warm["aggregates"]["elapsed_s"]), 1e-9)
    warm_store = warm.get("store") or {}
    return {
        "sweep": f"suite_{suite}",
        "suite": suite,
        "cap": cap,
        "seed": seed,
        "mode": mode,
        "cases": cold["aggregates"]["cases"],
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "warm_disk_hit_rate": warm_store.get("hit_rate", 0.0),
        "speedup": round(cold_s / warm_s, 4),
        "results_identical": _suite_rows(cold) == _suite_rows(warm),
    }


def check_regression(
    report: Dict[str, object], baseline: Optional[Dict[str, object]]
) -> Optional[str]:
    """None when healthy; otherwise a human-readable failure reason.

    Compares speedup *ratios* against the committed baseline for the
    same sweep name, so the check is machine-independent; also fails
    outright if the engine's results diverged from the serial path.
    """
    if not report.get("results_identical", False):
        return "engine results diverged from the serial uncached sweep"
    min_speedup = report.get("min_speedup")
    if min_speedup is not None and report["speedup"] < min_speedup:
        return (
            f"sweep {report['sweep']!r} speedup {report['speedup']:.2f}x fell"
            f" below the absolute floor {min_speedup:.2f}x"
        )
    if report.get("beats_fixed") is False:
        return (
            f"sweep {report['sweep']!r}: autotuned aggregate cycles"
            f" ({report.get('autotuned_cycles')}) exceed the fixed-design"
            f" sweep's ({report.get('fixed_cycles')})"
        )
    if baseline is None:
        return None
    reference = baseline.get("sweeps", {}).get(report["sweep"])
    if reference is None:
        return None
    floor = reference["speedup"] * REGRESSION_RATIO
    if report["speedup"] < floor:
        return (
            f"sweep {report['sweep']!r} speedup {report['speedup']:.2f}x fell"
            f" below {floor:.2f}x (half the committed baseline"
            f" {reference['speedup']:.2f}x)"
        )
    return None


def load_baseline(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write_report(
    path: str,
    reports,
    baseline: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """Merge one or more reports into the baseline's ``sweeps`` map.

    Other sweeps' entries survive, so quick CI runs do not clobber the
    committed reference numbers.  Accepts a single report dict or a
    list of them.
    """
    if isinstance(reports, dict):
        reports = [reports]
    merged: Dict[str, object] = {
        "benchmark": "dse_sweep",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "sweeps": dict((baseline or {}).get("sweeps", {})),
    }
    for report in reports:
        merged["sweeps"][report["sweep"]] = report
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return merged


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_dse", description="Benchmark the DSE evaluation engine"
    )
    parser.add_argument("--size", type=int, default=8, help="per-index bound")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the parallel leg (0 = one per CPU)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep, one repeat (the CI smoke configuration)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=[
            "dse", "membuf", "dma", "merger", "kernel", "suite", "halving",
        ],
        default=None,
        metavar="BENCH",
        help="run only this benchmark family (repeatable; default all)",
    )
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    selected = set(
        args.only
        or ["dse", "membuf", "dma", "merger", "kernel", "suite", "halving"]
    )

    baseline = load_baseline(args.output)
    reports: List[Dict[str, object]] = []

    if "dse" in selected:
        report = run_bench(
            size=args.size, seed=args.seed, repeats=args.repeats,
            jobs=args.jobs, quick=args.quick,
        )
        reports.append(report)
        print(
            f"sweep={report['sweep']} points={report['points']}"
            f" serial={report['serial_uncached_s'] * 1e3:.0f}ms"
            f" cached={report['serial_cached_s'] * 1e3:.0f}ms"
            f" parallel={report['parallel_cached_s'] * 1e3:.0f}ms"
            f" (jobs={report['parallel_jobs']})"
        )
        print(
            f"speedup: cached {report['speedup_cached']:.2f}x,"
            f" parallel {report['speedup_parallel']:.2f}x,"
            f" best {report['speedup']:.2f}x;"
            f" results identical: {report['results_identical']}"
        )
    if "membuf" in selected:
        reports.append(run_membuf_bench())
    if "dma" in selected:
        reports.append(run_dma_bench())
    if "merger" in selected:
        reports.append(run_merger_bench())
    if "kernel" in selected:
        reports.append(run_kernel_bench(seed=args.seed))
    if "suite" in selected:
        reports.append(run_suite_bench(seed=args.seed))
    if "halving" in selected:
        reports.append(run_halving_bench())

    for report in reports:
        if report["sweep"] in ("quick", "reference"):
            continue
        print(
            f"sweep={report['sweep']} speedup={report['speedup']:.2f}x"
            f" results identical: {report['results_identical']}"
        )

    failures = [
        failure
        for failure in (check_regression(r, baseline) for r in reports)
        if failure is not None
    ]
    write_report(args.output, reports, baseline)
    print(f"wrote {args.output}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0
