"""Tests for the parallel evaluation engine and its explore() integration."""

import resource

import numpy as np
import pytest

import repro.analysis.spec as analysis_spec
from repro.core import Bounds, SpecError, matmul_spec
from repro.core.balancing import LoadBalancingScheme, row_shift_scheme
from repro.core.dataflow import (
    SpaceTimeTransform,
    hexagonal,
    input_stationary,
    output_stationary,
)
from repro.core.sparsity import SparsityStructure, csr_b_matrix
from repro.dse import explore
from repro.exec.cache import CompileCache
from repro.exec.engine import (
    EngineReport,
    ResidentPool,
    evaluate_sweep,
    resolve_jobs,
)
from repro.exec.suite import build_suite, evaluate_suite
from repro.obs.profile import Profiler, set_profiler
from repro.obs.trace import Tracer, set_tracer


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    n = 4
    a = rng.integers(1, 5, (n, n))
    b = np.zeros((n, n), dtype=int)
    b[0, :] = rng.integers(1, 5, n)
    b[2, 1] = 3
    return Bounds({"i": n, "j": n, "k": n}), {"A": a, "B": b}


def _sweep_kwargs():
    spec = matmul_spec()
    return spec, dict(
        transforms={
            "output-stationary": output_stationary(),
            "input-stationary": input_stationary(),
            "hexagonal": hexagonal(),
        },
        sparsities={
            "dense": SparsityStructure(),
            "B-csr": csr_b_matrix(spec),
        },
        balancings={
            "none": LoadBalancingScheme(),
            "row-shift": row_shift_scheme(2),
        },
    )


def _signature(result):
    return [
        (p.name, p.cycles, p.utilization, p.area_um2, p.pe_count, p.conn_count)
        for p in result.points
    ]


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_is_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestParity:
    """Cached and parallel sweeps must be bit-identical to the serial
    uncached seed path -- same figures, same table bytes."""

    def test_cached_and_parallel_match_serial(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        serial = explore(spec, bounds, tensors, cache=False, **kwargs)
        cached = explore(spec, bounds, tensors, cache=True, **kwargs)
        parallel = explore(
            spec, bounds, tensors, cache=True, jobs=2, **kwargs
        )
        assert _signature(serial) == _signature(cached) == _signature(parallel)
        assert serial.table() == cached.table() == parallel.table()
        assert (
            [p.name for p in serial.pareto_frontier()]
            == [p.name for p in cached.pareto_frontier()]
            == [p.name for p in parallel.pareto_frontier()]
        )

    def test_outputs_match_serial_byte_identically(self, workload):
        """Simulated output arrays come home from the workers
        byte-identical to the serial path."""
        bounds, tensors = workload
        spec = matmul_spec()
        candidates = [
            {
                "name": f"p{i}",
                "transform_name": "output-stationary",
                "transform": output_stationary(),
                "sparsity_name": "dense",
                "sparsity": SparsityStructure(),
                "balancing_name": "none",
                "balancing": LoadBalancingScheme(),
                "want_outputs": True,
                "want_digest": True,
            }
            for i in range(3)
        ]
        serial_out, _ = evaluate_sweep(spec, bounds, tensors, candidates, jobs=1)
        parallel_out, _ = evaluate_sweep(spec, bounds, tensors, candidates, jobs=2)
        assert len(serial_out) == len(parallel_out) == 3
        for s, p in zip(serial_out, parallel_out):
            assert set(s["outputs"]) == set(p["outputs"])
            for name in s["outputs"]:
                assert s["outputs"][name].dtype == p["outputs"][name].dtype
                assert s["outputs"][name].tobytes() == p["outputs"][name].tobytes()
            assert s["output_digest"] == p["output_digest"]

    def test_shared_cache_across_sweeps_stays_correct(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        cache = CompileCache()
        first = explore(spec, bounds, tensors, cache=cache, **kwargs)
        second = explore(spec, bounds, tensors, cache=cache, **kwargs)
        assert _signature(first) == _signature(second)
        # The second sweep is answered almost entirely from the cache.
        assert cache.stats.by_stage["compile"][0] >= len(second.points)

    def test_cache_records_hits(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        result = explore(spec, bounds, tensors, cache=True, **kwargs)
        stats = result.report.cache_stats
        assert stats is not None
        assert stats.hits > 0
        assert stats.uncacheable == 0

    def test_engine_report_shape(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        result = explore(spec, bounds, tensors, cache=False, jobs=None, **kwargs)
        report = result.report
        assert isinstance(report, EngineReport)
        assert report.mode == "serial"
        assert report.evaluated == len(result.points)
        assert report.as_dict()["cache"] is None


class TestResidentPoolDescriptors:
    def test_many_sweeps_fit_under_a_low_descriptor_limit(self):
        """A long-lived pool must not hold descriptors per sweep: a
        daemon serving many requests would otherwise hit EMFILE."""
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(128, hard), hard))
        try:
            with ResidentPool(jobs=2) as pool:
                results = [
                    evaluate_suite(
                        build_suite("alexnet", cap=4, seed=seed), pool=pool
                    )
                    for seed in range(60)
                ]
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert all(
            row["status"] == "ok" for result in results for row in result.rows
        )
        assert all(len(result.rows) == 5 for result in results)


class TestErrorDiscipline:
    """Only compile-step SpecErrors mark a point illegal (the
    skip_illegal bugfix); simulator failures always propagate."""

    def test_illegal_transform_skipped_and_tallied(self, workload):
        bounds, tensors = workload
        spec = matmul_spec()
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        result = explore(
            spec, bounds, tensors,
            transforms={"good": output_stationary(), "bad": bad},
        )
        assert len(result) == 1
        assert result.report.skipped == 1

    def test_simulator_error_propagates_despite_skip_illegal(self, workload):
        bounds, _ = workload
        spec = matmul_spec()
        # Compilation cannot see tensor data, so the missing tensor only
        # explodes inside the simulator -- it must NOT be swallowed as
        # "illegal" or the sweep silently shrinks.
        with pytest.raises(SpecError, match="no data"):
            explore(
                spec, bounds, {"A": np.ones((4, 4), dtype=int)},
                transforms={"os": output_stationary()},
                skip_illegal=True,
            )

    def test_simulator_error_propagates_in_parallel(self, workload):
        bounds, _ = workload
        spec = matmul_spec()
        with pytest.raises(SpecError, match="no data"):
            explore(
                spec, bounds, {"A": np.ones((4, 4), dtype=int)},
                transforms={"os": output_stationary()},
                skip_illegal=True,
                jobs=2,
            )

    def test_all_illegal_still_raises(self, workload):
        bounds, tensors = workload
        spec = matmul_spec()
        bad = SpaceTimeTransform([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        with pytest.raises(SpecError, match="no legal design points"):
            explore(spec, bounds, tensors, transforms={"bad": bad})


class TestLegalityMemoization:
    def test_checker_runs_once_per_transform_subkey(self, workload, monkeypatch):
        """The domain-enumeration legality check depends only on
        (spec, bounds, transform): sweeping sparsity x balancing must not
        re-run it."""
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        calls = []
        original = analysis_spec.check_spec_transform

        def counting(spec_, bounds_, transform_):
            calls.append(transform_)
            return original(spec_, bounds_, transform_)

        monkeypatch.setattr(analysis_spec, "check_spec_transform", counting)
        explore(spec, bounds, tensors, cache=True, **kwargs)
        assert len(calls) == len(kwargs["transforms"])

    def test_without_cache_checker_runs_per_point(self, workload, monkeypatch):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        calls = []
        original = analysis_spec.check_spec_transform

        def counting(spec_, bounds_, transform_):
            calls.append(transform_)
            return original(spec_, bounds_, transform_)

        monkeypatch.setattr(analysis_spec, "check_spec_transform", counting)
        result = explore(spec, bounds, tensors, cache=False, **kwargs)
        assert len(calls) == len(result.points)


class TestDeterministicOrdering:
    def test_table_breaks_cycle_ties_by_name(self):
        from repro.dse.explorer import DesignPoint, ExplorationResult

        def point(name, cycles=10, area=100.0):
            return DesignPoint(
                name=name, transform_name="t", sparsity_name="s",
                balancing_name="b", cycles=cycles, utilization=0.5,
                area_um2=area, pe_count=4, conn_count=2, pruned_variables=[],
            )

        forward = ExplorationResult([point("aa"), point("bb"), point("cc")])
        backward = ExplorationResult([point("cc"), point("bb"), point("aa")])
        assert forward.table() == backward.table()
        assert (
            [p.name for p in forward.pareto_frontier()]
            == [p.name for p in backward.pareto_frontier()]
            == ["aa", "bb", "cc"]
        )


class TestObservabilityMerge:
    def test_parallel_profile_and_trace_merge(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        profiler = Profiler(enabled=True)
        tracer = Tracer(enabled=True)
        previous_p = set_profiler(profiler)
        previous_t = set_tracer(tracer)
        try:
            result = explore(
                spec, bounds, tensors, cache=True, jobs=2, **kwargs
            )
        finally:
            set_profiler(previous_p)
            set_tracer(previous_t)
        labels = {r.label: r.calls for r in profiler.records()}
        assert labels["dse.point"] == len(result.points)
        assert labels["dse.compile"] == len(result.points)
        assert labels["dse.simulate"] == len(result.points)
        names = {e.name for e in tracer.events()}
        assert any(" / " in name for name in names)  # per-point spans

    def test_serial_profile_unchanged(self, workload):
        bounds, tensors = workload
        spec, kwargs = _sweep_kwargs()
        profiler = Profiler(enabled=True)
        previous = set_profiler(profiler)
        try:
            result = explore(spec, bounds, tensors, cache=False, **kwargs)
        finally:
            set_profiler(previous)
        labels = {r.label: r.calls for r in profiler.records()}
        assert labels["dse.point"] == len(result.points)
