"""repro.exec: the parallel + cached design-space evaluation engine.

Three cooperating pieces (see DESIGN.md's "Performance engineering"):

* :mod:`repro.exec.fingerprint` -- canonical content hashing of design
  axes (specs, bounds, transforms, sparsity, balancing, tensors), the
  keying primitive every cache below is built on;
* :mod:`repro.exec.cache` -- :class:`CompileCache`, a content-addressed
  memo store for :func:`~repro.core.compiler.compile_design` /
  :func:`~repro.rtl.lowering.lower_design` products and their
  intermediate stages (elaboration, legality checking, pruning,
  simulator sub-products), so sweeps stop re-paying compilation for
  configurations that share axes;
* :mod:`repro.exec.engine` -- deterministic point evaluation for
  :func:`repro.dse.explore`, inline or fanned out over one
  :class:`ResidentPool` (operands pickled per task), with per-worker
  profiler/tracer/metric state merged back into the parent's
  observability registry.

Persistence and batching layers on top:

* :mod:`repro.exec.store` -- :class:`DiskStore`, the atomic, versioned,
  content-addressed disk tier behind :class:`CompileCache`, so compile
  and simulation products survive the process;
* :mod:`repro.exec.suite` -- whole-workload-table evaluation
  (``python -m repro sweep resnet50``, or any user table via
  ``repro sweep path/to/table.json``), routing every layer through
  :func:`evaluate_sweep` as one candidate list;
* :mod:`repro.exec.autotune` -- per-layer Pareto autotuning
  (``repro sweep <suite> --autotune``): every layer crossed with the
  DSE design space, ranked by Pareto frontier under a configurable
  objective (cycles / energy / EDP), winners pinned deterministically.

:mod:`repro.exec.bench` records the wall-clock trajectory of a fixed
reference sweep into ``BENCH_dse.json`` (``python -m repro bench``).
"""

from .autotune import OBJECTIVES, AutotuneResult, autotune_suite, select_winner
from .cache import (
    CacheStats,
    CompileCache,
    get_compile_cache,
    persistent_compile_cache,
)
from .engine import EngineReport, ResidentPool, evaluate_sweep, resolve_jobs
from .fingerprint import FINGERPRINT_VERSION, FingerprintError, fingerprint
from .store import DiskStore, DiskStoreStats, default_cache_dir
from .suite import (
    Suite,
    SuiteCase,
    SuiteError,
    SuiteResult,
    build_suite,
    build_table_suite,
    evaluate_suite,
    format_rows,
    load_workload_table,
    suite_names,
)

__all__ = [
    "AutotuneResult",
    "CacheStats",
    "CompileCache",
    "DiskStore",
    "DiskStoreStats",
    "EngineReport",
    "FINGERPRINT_VERSION",
    "FingerprintError",
    "OBJECTIVES",
    "ResidentPool",
    "Suite",
    "SuiteCase",
    "SuiteError",
    "SuiteResult",
    "autotune_suite",
    "build_suite",
    "build_table_suite",
    "default_cache_dir",
    "evaluate_suite",
    "evaluate_sweep",
    "fingerprint",
    "format_rows",
    "get_compile_cache",
    "load_workload_table",
    "persistent_compile_cache",
    "resolve_jobs",
    "select_winner",
    "suite_names",
]
