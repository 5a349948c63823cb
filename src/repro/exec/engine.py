"""Parallel evaluation of design-space sweeps.

:func:`evaluate_sweep` is the execution core behind
:func:`repro.dse.explorer.explore`: it takes an ordered candidate list
(one dict per design point) and evaluates each point -- compile,
simulate, estimate area -- either inline or fanned out over a process
pool.  Three properties the explorer relies on:

* **determinism** -- outcomes are returned in candidate order no matter
  how the pool interleaves them, so parallel and serial sweeps produce
  identical results;
* **error discipline** -- only :class:`~repro.core.expr.SpecError` (and
  its :class:`~repro.analysis.diagnostics.AnalysisError` subclass)
  raised while *compiling* marks a point illegal; simulator and area
  model failures always propagate, because silently dropping a crashed
  point would shrink the Pareto frontier without anyone noticing;
* **observability** -- when the parent's profiler/tracer are enabled,
  each worker profiles and traces locally and the parent merges the
  per-point records back, so ``--profile`` and trace exports describe
  the whole fleet.

Workers never share the parent's :class:`~repro.exec.cache.CompileCache`
object; each builds its own and ships hit/miss deltas home, which the
parent folds into the sweep cache's stats and metrics registry.  When
the parent cache has a persistent :class:`~repro.exec.store.DiskStore`
tier, each worker opens its own handle on the same root (atomic entry
writes make that safe) and its disk traffic merges home the same way.

Suites ride on the same sweep: a candidate may carry its own
``bounds``, a ``tensors_key`` naming an operand set in the sweep-wide
``tensor_table``, and ``want_energy`` / ``want_digest`` flags asking
for an energy estimate and a canonical output fingerprint in the
outcome.  The parent resolves each candidate's own operand set and
pickles it into that candidate's task; a layer's operands are about
1.2 KB, so per-task pickling is cheaper than any shared handoff.
"""

from __future__ import annotations

import itertools
import os
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..area.energy import energy_from_counters
from ..area.model import estimate_design_area
from ..core.accelerator import Accelerator
from ..core.expr import SpecError
from ..obs.profile import Profiler, get_profiler, set_profiler
from ..obs.trace import Tracer, get_tracer, set_tracer
from ..sim.spatial_array import SpatialArraySim
from .cache import CacheStats, CompileCache
from .fingerprint import fingerprint
from .store import (
    DiskStore,
    merge_store_stats,
    store_stats_delta,
    store_stats_snapshot,
)


def resolve_jobs(jobs: Optional[int]) -> int:
    """The effective worker count for a ``jobs`` request.

    ``None`` and ``1`` mean serial (one inline worker); ``0`` means one
    worker per CPU; any other positive value is taken literally.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class EngineReport:
    """How a sweep was executed: worker count, outcome tallies, cache."""

    def __init__(
        self,
        jobs: int,
        evaluated: int,
        skipped: int,
        cache_stats: Optional[CacheStats] = None,
    ):
        self.jobs = jobs
        self.evaluated = evaluated
        self.skipped = skipped
        self.cache_stats = cache_stats

    @property
    def mode(self) -> str:
        return "serial" if self.jobs <= 1 else "parallel"

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "cache": self.cache_stats.as_dict() if self.cache_stats else None,
        }

    def __repr__(self) -> str:
        return (
            f"EngineReport({self.mode}, jobs={self.jobs},"
            f" evaluated={self.evaluated}, skipped={self.skipped})"
        )


# ---------------------------------------------------------------------------
# One design point
# ---------------------------------------------------------------------------


def _operands(candidate: Mapping[str, object], tensors, tensor_table):
    """The operand set one candidate simulates: its ``tensors_key``
    entry of ``tensor_table``, or the sweep-wide ``tensors``."""
    tensors_key = candidate.get("tensors_key")
    if tensors_key is None:
        return tensors
    if tensor_table is None or tensors_key not in tensor_table:
        raise KeyError(
            f"candidate {candidate['name']!r} names tensors_key"
            f" {tensors_key!r} but the sweep has no such tensor-table entry"
        )
    return tensor_table[tensors_key]


def _evaluate_point(
    spec,
    bounds,
    tensors,
    element_bits: int,
    candidate: Mapping[str, object],
    cache: Optional[CompileCache],
    skip_illegal: bool,
) -> Dict[str, object]:
    """Compile + simulate + area for one candidate.

    Runs against whatever profiler/tracer are currently installed, so the
    same code serves the inline path (parent observability) and the
    worker path (local observability, merged later).  ``tensors`` is
    the candidate's own operand set, already resolved by
    :func:`_operands`.

    Suite candidates may override the sweep-wide ``bounds`` and may opt
    into extra figures with
    ``want_energy`` (energy model over the sim counters) and
    ``want_digest`` (canonical fingerprint of the simulated outputs,
    for byte-identity checks across runs and transports).

    A candidate may also override the sweep-wide ``skip_illegal``: the
    autotuner sweeps exploration combos permissively (an illegal
    transform is a pruned point) while pinning ``skip_illegal: False``
    on each layer's fixed baseline design, whose failure to compile is
    a configuration bug and must raise.

    Two more optional candidate knobs serve the successive-halving
    autotuner: ``fidelity`` (a low-fidelity tag folded into the
    simulator's memo key so reduced-rung results never poison
    full-fidelity cache entries) and the microarchitecture overlay
    fields ``membuf``/``dma``/``regfile`` (:mod:`repro.dse.uarch`
    variants applied as deterministic cycle/area adjustments *after*
    the cached simulation, so overlay combos share one compile +
    simulate entry).
    """
    profiler = get_profiler()
    tracer = get_tracer()
    name = candidate["name"]
    skip_illegal = bool(candidate.get("skip_illegal", skip_illegal))
    bounds = candidate.get("bounds", bounds)
    accelerator = Accelerator(
        spec=spec,
        bounds=bounds,
        transform=candidate["transform"],
        sparsity=candidate["sparsity"],
        balancing=candidate["balancing"],
        element_bits=element_bits,
    )
    with profiler.scope("dse.point"), tracer.span(
        name, component="dse",
        transform=candidate["transform_name"],
        sparsity=candidate["sparsity_name"],
        balancing=candidate["balancing_name"],
    ):
        # Only the compile step decides legality.  A SpecError out of the
        # simulator (bad workload data, a broken transform round-trip) is
        # a real failure and must surface, not shrink the sweep.
        try:
            with profiler.scope("dse.compile"):
                design = accelerator.build(cache=cache)
        except SpecError as err:
            if skip_illegal:
                tracer.instant("illegal_point", component="dse", point=name)
                return {"status": "illegal", "name": name, "error": str(err)}
            raise
        with profiler.scope("dse.simulate"):
            result = SpatialArraySim(
                design.compiled, memo=cache,
                fidelity=candidate.get("fidelity"),
            ).run(tensors)
        with profiler.scope("dse.area"):
            area = estimate_design_area(design.compiled)
    cycles = int(result.cycles)
    area_um2 = float(area.total)
    outcome = {
        "status": "ok",
        "name": name,
        "transform_name": candidate["transform_name"],
        "sparsity_name": candidate["sparsity_name"],
        "balancing_name": candidate["balancing_name"],
        "cycles": cycles,
        "utilization": float(result.utilization),
        "area_um2": area_um2,
        "pe_count": int(design.pe_count),
        "conn_count": len(design.compiled.array.conns),
        "pruned_variables": list(design.compiled.pruned_variables()),
    }
    membuf = candidate.get("membuf")
    dma = candidate.get("dma")
    regfile = candidate.get("regfile")
    if membuf is not None or dma is not None or regfile is not None:
        from ..dse.uarch import uarch_overlay

        extra_cycles, area_delta = uarch_overlay(
            membuf, dma, regfile, bounds, element_bits
        )
        outcome["cycles"] = cycles + extra_cycles
        outcome["area_um2"] = area_um2 + area_delta
        outcome["membuf_name"] = candidate.get("membuf_name", "default")
        outcome["dma_name"] = candidate.get("dma_name", "default")
        outcome["regfile_name"] = candidate.get("regfile_name", "default")
        outcome["uarch_extra_cycles"] = extra_cycles
        outcome["uarch_area_delta_um2"] = round(area_delta, 3)
    if candidate.get("want_energy"):
        energy = energy_from_counters(
            result.counters, element_bytes=max(1, element_bits // 8)
        )
        outcome["energy_pj"] = float(energy.total_pj)
    if candidate.get("want_digest"):
        outcome["output_digest"] = fingerprint(result.outputs)
    if candidate.get("want_outputs"):
        outcome["outputs"] = {
            name: np.asarray(array) for name, array in result.outputs.items()
        }
    return outcome


def evaluate_point(
    spec,
    bounds,
    tensors,
    candidate: Mapping[str, object],
    element_bits: int = 32,
    cache: Optional[CompileCache] = None,
    skip_illegal: bool = False,
    tensor_table: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> Dict[str, object]:
    """Evaluate one candidate inline -- the single-point sweep.

    The public deterministic entry point for callers (the differential
    fuzz oracles, notebooks) that want exactly what a one-candidate
    :func:`evaluate_sweep` would produce without building the sweep
    scaffolding: same candidate dict contract, same outcome dict, same
    error discipline.  Defaults to ``skip_illegal=False`` because a
    single named point that fails to compile is the caller's bug, not a
    pruned sweep entry.
    """
    return _evaluate_point(
        spec, bounds, _operands(candidate, tensors, tensor_table),
        element_bits, candidate, cache, skip_illegal,
    )


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------


def _stats_snapshot(cache: Optional[CompileCache]):
    if cache is None:
        return None
    stats = cache.stats
    return (
        stats.hits,
        stats.misses,
        stats.uncacheable,
        dict(stats.by_stage),
        stats.disk_hits,
        store_stats_snapshot(cache.store),
    )


def _stats_delta(before, after):
    if before is None or after is None:
        return None
    by_stage = {}
    for stage, (hits, misses) in after[3].items():
        h0, m0 = before[3].get(stage, (0, 0))
        if hits != h0 or misses != m0:
            by_stage[stage] = (hits - h0, misses - m0)
    return (
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
        by_stage,
        after[4] - before[4],
        store_stats_delta(before[5], after[5]),
    )


def _apply_delta(cache: CompileCache, delta) -> None:
    if delta is None:
        return
    hits, misses, uncacheable, by_stage, disk_hits, store_delta = delta
    stats = cache.stats
    stats.hits += hits
    stats.misses += misses
    stats.uncacheable += uncacheable
    stats.disk_hits += disk_hits
    for stage, (h, m) in by_stage.items():
        h0, m0 = stats.by_stage.get(stage, (0, 0))
        stats.by_stage[stage] = (h0 + h, m0 + m)
    cache.registry.counter("exec.cache.hits").inc(hits)
    cache.registry.counter("exec.cache.misses").inc(misses)
    cache.registry.counter("exec.cache.uncacheable").inc(uncacheable)
    cache.registry.counter("exec.cache.disk_hits").inc(disk_hits)
    if cache.store is not None and store_delta:
        merge_store_stats(cache.store.stats, store_delta)
        for name, amount in store_delta.items():
            if amount:
                cache.registry.counter(f"exec.store.{name}").inc(amount)


#: How many recent sweeps' headers a worker keeps unpickled.  A header
#: is decoded once per sweep per worker, and every task of a sweep sees
#: the same spec object, so the compile cache's id-keyed fingerprint
#: memo and the kernel memo keep hitting.
_SWEEPS_KEPT = 8

#: Per-process worker state: one long-lived CompileCache plus the
#: decoded headers of the last ``_SWEEPS_KEPT`` sweeps, by sweep id.
_RESIDENT_STATE: Dict[str, object] = {}

_SWEEP_IDS = itertools.count()


def _init_resident_worker(store_config) -> None:
    store = DiskStore(**store_config) if store_config else None
    _RESIDENT_STATE.clear()
    _RESIDENT_STATE.update(
        {"cache": CompileCache(store=store), "sweeps": OrderedDict()}
    )


def _resident_sweep_state(sweep_id: str, header: bytes):
    sweeps: "OrderedDict[str, Dict[str, object]]" = _RESIDENT_STATE["sweeps"]
    state = sweeps.get(sweep_id)
    if state is None:
        state = pickle.loads(header)
        state["cache"] = (
            _RESIDENT_STATE["cache"] if state["use_cache"] else None
        )
        sweeps[sweep_id] = state
        while len(sweeps) > _SWEEPS_KEPT:
            sweeps.popitem(last=False)
    else:
        sweeps.move_to_end(sweep_id)
    return state


def _run_resident_task(task):
    """Evaluate one candidate in a worker; returns the outcome plus the
    worker's profile, trace and cache-stats delta for the parent."""
    sweep_id, header, candidate, tensors = task
    state = _resident_sweep_state(sweep_id, header)
    cache = state["cache"]
    profiler = Profiler(enabled=True) if state["profile"] else None
    tracer = Tracer(enabled=True) if state["trace"] else None
    previous_profiler = set_profiler(profiler) if profiler is not None else None
    previous_tracer = set_tracer(tracer) if tracer is not None else None
    before = _stats_snapshot(cache)
    try:
        outcome = _evaluate_point(
            state["spec"],
            state["bounds"],
            tensors,
            state["element_bits"],
            candidate,
            cache,
            state["skip_illegal"],
        )
    finally:
        if profiler is not None:
            set_profiler(previous_profiler)
        if tracer is not None:
            set_tracer(previous_tracer)
    return outcome, profiler, tracer, _stats_delta(before, _stats_snapshot(cache))


def _fork_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class ResidentPool:
    """The evaluation process pool.

    Every parallel sweep runs on one: :func:`evaluate_sweep` opens a
    pool for the length of the call when none is given, and the serve
    daemon and the fuzz campaign keep one alive across many sweeps.
    Each worker owns one persistent
    :class:`~repro.exec.cache.CompileCache` (with its own handle on the
    shared disk store when ``store_config`` is given).  A task carries
    the sweep's small header (spec, sweep-wide bounds, flags; pickled
    once per sweep), one candidate and that candidate's own operand
    set.

    The pool is lazy: workers fork on first use, and :meth:`close`
    (also the context-manager exit) retires them.  If the executor
    cannot be created at all, :func:`evaluate_sweep` falls back to
    serial inline evaluation.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store_config: Optional[Dict[str, object]] = None,
    ):
        self.workers = resolve_jobs(jobs)
        self.store_config = dict(store_config) if store_config else None
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_fork_context(),
                initializer=_init_resident_worker,
                initargs=(self.store_config,),
            )
        return self._executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ResidentPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self.started else "idle"
        return f"ResidentPool(workers={self.workers}, {state})"


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def evaluate_sweep(
    spec,
    bounds,
    tensors,
    candidates: Sequence[Mapping[str, object]],
    element_bits: int = 32,
    skip_illegal: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    tensor_table: Optional[Mapping[str, Mapping[str, object]]] = None,
    on_outcome: Optional[Callable[[int, Dict[str, object]], None]] = None,
    pool: Optional[ResidentPool] = None,
) -> Tuple[List[Dict[str, object]], EngineReport]:
    """Evaluate every candidate; outcomes come back in candidate order.

    Each candidate is a dict with ``name``, ``transform_name`` /
    ``transform``, ``sparsity_name`` / ``sparsity`` and
    ``balancing_name`` / ``balancing``; suite candidates may add
    ``bounds``, ``tensors_key`` (an entry of ``tensor_table``), the
    ``want_energy`` / ``want_digest`` / ``want_outputs`` flags, and a
    per-candidate ``skip_illegal`` override.  Outcomes are plain dicts
    with ``status`` either ``"ok"`` (plus the measured figures) or
    ``"illegal"`` (plus the compile error text).

    ``on_outcome(index, outcome)`` -- when given -- is invoked once per
    candidate *in candidate order* as each outcome is finalized (worker
    observability merged), so callers can stream results before the
    sweep completes; parallel sweeps release outcome ``i`` once
    candidates ``0..i`` have all finished, which keeps the stream order
    deterministic no matter how the pool interleaves.

    ``jobs`` follows :func:`resolve_jobs`; with one worker the sweep
    runs inline in this process, with more it runs on a
    :class:`ResidentPool` opened for this call.  ``pool`` supplies a
    long-lived pool instead (the serve daemon's configuration); ``jobs``
    is ignored in that case.  If a pool cannot be created (no
    process-spawning rights in a sandbox) the sweep silently runs
    serially, with identical results by construction.
    """
    requested = pool.workers if pool is not None else resolve_jobs(jobs)
    workers = min(requested, max(1, len(candidates)))
    owned = pool is None and workers > 1
    if owned:
        store = cache.store if cache is not None else None
        pool = ResidentPool(
            workers, store.spawn_config() if store is not None else None
        )
    profiler = get_profiler()
    tracer = get_tracer()
    outcomes: List[Dict[str, object]] = []
    try:
        executor = None
        if workers > 1:
            try:
                executor = pool.executor()
            except (OSError, PermissionError):  # pragma: no cover - sandboxes
                workers = 1
        if executor is None:
            results = (
                (
                    _evaluate_point(
                        spec, bounds, _operands(candidate, tensors, tensor_table),
                        element_bits, candidate, cache, skip_illegal,
                    ),
                    None, None, None,
                )
                for candidate in candidates
            )
        else:
            header = pickle.dumps(
                {
                    "spec": spec,
                    "bounds": bounds,
                    "element_bits": element_bits,
                    "skip_illegal": skip_illegal,
                    "use_cache": cache is not None,
                    "profile": profiler.enabled,
                    "trace": tracer.enabled,
                }
            )
            sweep_id = f"{os.getpid()}-{next(_SWEEP_IDS)}"
            futures = [
                executor.submit(
                    _run_resident_task,
                    (sweep_id, header, candidate,
                     _operands(candidate, tensors, tensor_table)),
                )
                for candidate in candidates
            ]
            results = (future.result() for future in futures)
        # Collect in candidate order: outcomes are merged back and
        # streamed in sweep order no matter how the pool interleaves,
        # and the first failing candidate (by sweep order, not
        # completion order) raises, deterministically.
        for index, (outcome, worker_profile, worker_trace, delta) in enumerate(
            results
        ):
            if worker_profile is not None and profiler.enabled:
                profiler.merge(worker_profile)
            if worker_trace is not None and tracer.enabled:
                tracer.merge(worker_trace)
            if cache is not None:
                _apply_delta(cache, delta)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(index, outcome)
    finally:
        if owned:
            pool.close()

    skipped = sum(1 for out in outcomes if out["status"] == "illegal")
    return outcomes, EngineReport(
        jobs=workers,
        evaluated=len(outcomes) - skipped,
        skipped=skipped,
        cache_stats=cache.stats if cache is not None else None,
    )
