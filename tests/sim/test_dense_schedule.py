"""Dense simulation: a vectorized schedule plus reference-semantics values.

The schedule side is checked against a literal point-by-point walk of
``transform.apply`` (paper Figure 11); the value side against the scalar
reference interpreter, the ground truth for every dense output.
"""

import numpy as np
import pytest

from repro.core import Bounds, compile_design, matmul_spec
from repro.core.dataflow import (
    SpaceTimeTransform,
    classify_dataflow,
    identity,
    output_stationary,
)
from repro.core.functionality import batched_matmul_spec
from repro.obs.trace import tracing
from repro.sim.spatial_array import SpatialArraySim, differential_run


def _walked_schedule(design):
    """``(schedule length, live points per timestep)`` from mapping each
    iteration point through ``T`` one at a time."""
    transform = design.transform
    live = {}
    for point in design.bounds.domain(design.spec.index_names):
        t = transform.apply(point)[transform.space_dims:]
        live[t] = live.get(t, 0) + 1
    if transform.time_dims == 1:
        steps = [(t,) for t in range(min(live)[0], max(live)[0] + 1)]
    else:
        steps = sorted(live)
    return len(steps), [live.get(t, 0) for t in steps]


def _assert_parity(design, tensors):
    result = differential_run(design, tensors)
    want = design.spec.interpret(design.bounds, tensors, kernel=False)
    assert sorted(result.outputs) == sorted(want)
    for name, array in want.items():
        assert result.outputs[name].dtype == array.dtype
        np.testing.assert_array_equal(result.outputs[name], array)
    scalar = differential_run(design, tensors, kernel=False)
    assert scalar.counters.as_dict() == result.counters.as_dict()
    for name, array in want.items():
        assert scalar.outputs[name].tobytes() == array.tobytes()

    length, live = _walked_schedule(design)
    points = design.bounds.point_count(design.spec.index_names)
    assert result.schedule_length == length
    assert result.cycles == length
    assert result.counters.pe_busy_cycles == points == sum(live)
    assert result.counters.pe_idle_cycles == length * design.pe_count - points
    assert result.counters.macs == points * design.spec.macs_per_point()
    return result


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
def test_outputs_keep_operand_dtype(dtype):
    """Outputs match the scalar interpreter in dtype and value; float32
    operands used to come back truncated into an int64 array."""
    spec = matmul_spec()
    design = compile_design(
        spec, Bounds({"i": 2, "j": 2, "k": 2}), output_stationary()
    )
    rng = np.random.default_rng(3)
    scale = 1 if np.issubdtype(dtype, np.integer) else 4
    tensors = {
        "A": (rng.integers(-6, 7, (2, 2)) / scale).astype(dtype),
        "B": (rng.integers(-6, 7, (2, 2)) / scale).astype(dtype),
    }
    got = SpatialArraySim(design).run(tensors).outputs["C"]
    want = spec.interpret(design.bounds, tensors, kernel=False)["C"]
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    if scale != 1:
        assert not np.array_equal(want, np.trunc(want))


def test_zero_time_delta_broadcast():
    """Under ``identity(3)`` the ``a`` operand moves one PE in space per
    step with time delta 0 (STL-SP-005): a combinational broadcast."""
    spec = matmul_spec()
    transform = identity(3)
    assert classify_dataflow(spec, transform)["a"] == "broadcast"
    design = compile_design(spec, Bounds({"i": 3, "j": 4, "k": 5}), transform)
    rng = np.random.default_rng(5)
    tensors = {"A": rng.integers(-4, 5, (3, 5)), "B": rng.integers(-4, 5, (5, 4))}
    result = _assert_parity(design, tensors)
    assert result.schedule_length == 5  # t = k
    np.testing.assert_array_equal(result.outputs["C"], tensors["A"] @ tensors["B"])


def test_multi_time_dimension_schedule():
    """A rank-4 bmm transform with time ``(n, i + j + k)`` schedules each
    occupied time tuple as one cycle, in lexicographic order."""
    transform = SpaceTimeTransform(
        [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 1]],
        space_dims=2,
    )
    assert transform.time_dims == 2
    design = compile_design(
        batched_matmul_spec(), Bounds({"n": 2, "i": 3, "j": 2, "k": 4}), transform
    )
    rng = np.random.default_rng(11)
    tensors = {
        "A": rng.integers(-3, 4, (2, 3, 4)),
        "B": rng.integers(-3, 4, (2, 4, 2)),
    }
    result = _assert_parity(design, tensors)
    np.testing.assert_array_equal(result.outputs["C"], tensors["A"] @ tensors["B"])


@pytest.mark.parametrize("spec_name", ["matmul", "bmm"])
def test_trace_timesteps_cover_the_schedule(spec_name):
    if spec_name == "matmul":
        spec, transform = matmul_spec(), output_stationary()
        bounds = Bounds({"i": 3, "j": 2, "k": 4})
        tensors = {"A": np.ones((3, 4), dtype=int), "B": np.ones((4, 2), dtype=int)}
    else:
        spec = batched_matmul_spec()
        transform = SpaceTimeTransform(
            [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 1, 1]],
            space_dims=2,
        )
        bounds = Bounds({"n": 2, "i": 2, "j": 2, "k": 3})
        tensors = {
            "A": np.ones((2, 2, 3), dtype=int), "B": np.ones((2, 3, 2), dtype=int)
        }
    design = compile_design(spec, bounds, transform)
    with tracing() as tracer:
        result = differential_run(design, tensors)
    events = [e for e in tracer.events() if e.component == "sim.array"]
    steps = [e for e in events if e.name == "timestep"]
    assert len(steps) == result.schedule_length
    assert [e.cycle for e in steps] == list(range(result.schedule_length))
    assert sum(e.payload["live_pes"] for e in steps) == bounds.point_count(
        spec.index_names
    )
    _length, live = _walked_schedule(design)
    assert [e.payload["live_pes"] for e in steps] == live
    runs = [e for e in events if e.name == "dense_run"]
    assert [e.kind for e in runs] == ["B", "E"]
    assert runs[0].payload["timesteps"] == result.schedule_length
    assert runs[1].cycle == result.cycles
