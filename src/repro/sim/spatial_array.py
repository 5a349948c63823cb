"""Cycle-level simulation of generated spatial arrays.

:class:`SpatialArraySim` executes a :class:`~repro.core.compiler.CompiledDesign`
the way the generated hardware would (paper Figure 11): every timestep,
each PE reconstructs its tensor-iteration point by multiplying its
space-time coordinates through ``T^-1``; if the point is live it performs
its assignments, pulling operands from PE-to-PE connections or register
files, and counting busy/idle cycles and IO traffic.

Timing comes from the spatial mapping alone and values from the
functional spec.  Dense designs schedule the full iteration domain in
one vectorized pass over ``points @ T.T`` -- timestep occupancy, busy and
idle cycles, MACs and regfile traffic -- and take their output values
from the reference semantics (the trace-compiled kernel, with the scalar
interpreter as fallback); a causal transform computes exactly those
values, and ``compile_design`` rejects every acausal one.

Sparse designs -- those compiled with pessimistic ``Skip`` s -- first
*compress* each skipped iterator against the actual tensor contents
(only nonzero coordinates occupy iteration slots) and schedule the
compressed points; workload imbalance then appears exactly as in the
paper's Figure 6: short fibers leave their PEs idle while long fibers
run on.  When the design has a load-balancing scheme, the balancer
simulator redistributes that work and shortens the schedule.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.compiler import CompiledDesign
from ..core.expr import (
    Access,
    BinOp,
    Comparison,
    Const,
    EvalContext,
    IndexExpr,
    IndexValue,
    SpecError,
    Tensor,
    WILDCARD,
)
from ..core.functionality import AssignmentKind
from ..core.iterspace import IODirection
from ..obs.trace import get_tracer
from .balancer import spatial_balanced_makespan
from .counters import PerfCounters


class SimResult:
    """Outputs plus performance statistics of one simulated invocation."""

    def __init__(
        self,
        outputs: Dict[str, np.ndarray],
        counters: PerfCounters,
        schedule_length: int,
    ):
        self.outputs = outputs
        self.counters = counters
        self.schedule_length = schedule_length

    @property
    def cycles(self) -> int:
        return self.counters.cycles

    @property
    def utilization(self) -> float:
        return self.counters.pe_utilization

    def __repr__(self) -> str:
        return f"SimResult(cycles={self.cycles}, util={self.utilization:.3f})"


class SpatialArraySim:
    """Simulator for one compiled spatial-array design.

    Parameters
    ----------
    design:
        The compiled design to execute.
    fill_drain_overhead:
        Extra cycles charged for pipeline fill/drain per invocation.  The
        paper attributes part of Stellar-Gemmini's ~10% utilization gap to
        per-tile start overheads and global start/stall signals
        (Section VI-B); handwritten baselines set this to 0.
    memo:
        An optional :class:`repro.exec.cache.CompileCache`.  When given,
        whole dense runs are memoized per ``(spec, bounds, transform,
        pe_count, tensors, fill_drain_overhead)`` -- the dense path is
        independent of the sparsity/balancing axes -- and the sparse path
        memoizes workload compression per ``(spec, bounds, sparsity,
        tensors)``.  Both paths take output values from the reference
        interpretation memoized per ``(spec, bounds, tensors)``, so every
        design simulated on one workload shares it.  Sparse *results* are
        never memoized whole because cycle counts depend on the balancing
        axis.
    vectorize:
        When ``False``, skip-condition evaluation always takes the exact
        point-at-a-time path instead of the batched numpy evaluator.
        The two paths are required to agree bit-for-bit -- this knob
        exists so the differential test suite can prove it on the same
        workload.  Pass ``memo=None`` alongside, or the compression memo
        (keyed on content, not on the evaluation strategy) will answer
        for the other path.
    kernel:
        When ``True`` (the default), output values -- dense and sparse
        alike -- come from the trace-compiled batched kernel
        (:mod:`repro.sim.kernel`) whenever the spec is traceable, falling
        back to the scalar interpreter otherwise.  ``kernel=False``
        forces the scalar ground-truth path; the differential suite
        proves the two byte-identical.
        As with ``vectorize``, pass ``memo=None`` when comparing paths,
        or the content-keyed reference memo will answer for both.
    fidelity:
        An optional low-fidelity tag (the successive-halving autotuner
        labels reduced-``cap`` rungs).  When set, it is folded into the
        dense-run memo key so rung results can never answer for -- or be
        answered by -- a full-fidelity entry; ``None`` (the default)
        keeps every key byte-identical to the untagged scheme, so full
        runs keep hitting the store entries they always have.
    """

    def __init__(
        self,
        design: CompiledDesign,
        fill_drain_overhead: int = 0,
        memo=None,
        vectorize: bool = True,
        kernel: bool = True,
        fidelity: Optional[str] = None,
    ):
        self.design = design
        self.fill_drain_overhead = fill_drain_overhead
        self.memo = memo
        self.vectorize = vectorize
        self.kernel = kernel
        self.fidelity = fidelity

    # ------------------------------------------------------------------

    def run(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        # Keep the caller's dict when it is already all arrays: the memo
        # keys below fingerprint it, and a stable identity lets repeated
        # runs on one operand set hit ``CompileCache.fingerprint_of``'s
        # fast path instead of re-hashing every operand byte.
        if not isinstance(tensors, dict) or not all(
            isinstance(arr, np.ndarray) for arr in tensors.values()
        ):
            tensors = {name: np.asarray(arr) for name, arr in tensors.items()}
        if self._is_sparse():
            return self._run_sparse(tensors)
        if self.memo is not None:
            design = self.design
            parts = (design.spec, design.bounds, design.transform,
                     design.array.pe_count, tensors, self.fill_drain_overhead)
            if self.fidelity is not None:
                parts = parts + (self.fidelity,)
            return self.memo.memo(
                "sim.dense", parts, lambda: self._run_dense(tensors),
            )
        return self._run_dense(tensors)

    def _is_sparse(self) -> bool:
        return any(not skip.optimistic for skip in self.design.sparsity)

    # ------------------------------------------------------------------
    # Dense execution: vectorized schedule, kernel-computed values
    # ------------------------------------------------------------------

    def _run_dense(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        design = self.design
        spec = design.spec
        bounds = design.bounds
        transform = design.transform
        counters = PerfCounters()

        # Timing comes from the spatial mapping alone.  The whole domain
        # maps through ``T`` in one matrix product, and the PE-side
        # ``T^-1`` round-trip (each PE's IO request generator) is one more
        # product against the integer numerator matrix -- exact, no
        # per-point Fractions.
        points = _domain_grid(bounds, spec.index_names)
        tmat = np.array(transform.matrix, dtype=np.int64)
        st = points @ tmat.T
        numerators, denominator = transform.integer_inverse()
        scaled = st @ np.array(numerators, dtype=np.int64).T
        bad = (scaled % denominator != 0).any(axis=1) | (
            scaled // denominator != points
        ).any(axis=1)
        if bad.any():
            point = tuple(int(v) for v in points[int(np.argmax(bad))])
            raise SpecError(
                f"space-time transform is not invertible on point {point}"
            )
        # Every domain point is live exactly once.  One time dimension
        # spans ``t_min..t_max`` (empty timesteps included); several order
        # the occupied time tuples lexicographically, one cycle each.
        times = st[:, transform.space_dims:]
        if transform.time_dims == 1:
            t_min = int(times[:, 0].min())
            live = np.bincount(times[:, 0] - t_min)
            steps = (t_min + np.arange(len(live)))[:, None]
        else:
            steps, live = np.unique(times, axis=0, return_counts=True)
        schedule = len(live)
        work = len(points)
        pe_count = design.array.pe_count
        counters.pe_busy_cycles = work
        counters.pe_idle_cycles = (
            (schedule + self.fill_drain_overhead) * pe_count - work
        )
        counters.macs = work * max(1, spec.macs_per_point())
        counters.regfile_reads, counters.regfile_writes = _regfile_traffic(
            spec, bounds, points
        )
        counters.cycles = schedule + self.fill_drain_overhead

        tracer = get_tracer()
        if tracer.enabled:
            tracer.begin(
                "dense_run", component="sim.array",
                cycle=0, pes=pe_count, timesteps=schedule,
            )
            for step_index, (t, count) in enumerate(
                zip(steps.tolist(), live.tolist())
            ):
                tracer.instant(
                    "timestep", component="sim.array",
                    cycle=step_index, live_pes=count, time=t,
                )
            tracer.end(
                "dense_run", component="sim.array",
                cycle=counters.cycles, macs=counters.macs,
            )
        # Values come from the functional spec: for a causal transform
        # (``validate_schedule`` proves it at compile time) the spatial
        # schedule computes exactly what the reference semantics do.
        outputs = self._reference_outputs(tensors)
        return SimResult(outputs, counters, schedule)

    # ------------------------------------------------------------------
    # Sparse execution: compressed scheduling
    # ------------------------------------------------------------------

    def _run_sparse(self, tensors: Mapping[str, np.ndarray]) -> SimResult:
        design = self.design
        spec = design.spec
        bounds = design.bounds
        transform = design.transform
        counters = PerfCounters()

        tracer = get_tracer()

        def _compress():
            valid = self._valid_points(tensors)
            return valid, self._compress_points(valid)

        if self.memo is not None:
            valid_points, compressed = self.memo.memo(
                "sim.sparse.compress",
                (spec, bounds, design.sparsity, tensors),
                _compress,
            )
        else:
            valid_points, compressed = _compress()
        if tracer.enabled:
            tracer.instant(
                "sparse_compress", component="sim.array", cycle=0,
                valid_points=len(valid_points),
                domain_points=bounds.point_count(spec.index_names),
            )

        if not compressed:
            # No surviving work: outputs are still well-defined (all the
            # boundary initializations flow straight through).
            outputs = self._reference_outputs(tensors)
            return SimResult(outputs, counters, 0)

        # Schedule the compressed points through the transform -- one
        # matrix product for the whole workload; the first space
        # coordinate (the row) drains a work queue, and *all* time
        # coordinates linearize into one lexicographic cycle number
        # (a transform folding e.g. a batch axis into a second time
        # dimension schedules each batch after the previous one).
        packed = np.array(list(compressed.values()), dtype=np.int64)
        tmat = np.array(transform.matrix, dtype=np.int64)
        st = packed @ tmat.T
        rows = st[:, 0]
        times = _linearize_times(st[:, transform.space_dims:])

        schedule_length = int(times.max()) - int(times.min()) + 1
        pe_count = max(1, design.array.pe_count)
        macs_per_point = max(1, spec.macs_per_point())
        work = len(compressed)

        if not design.balancing.is_disabled() and design.balancer is not None:
            # After pruning, rows drain independent work queues; balancing
            # shortens the longest queue.  The pipeline skew (schedule time
            # not attributable to queue depth) is unaffected by balancing.
            slot_pairs = np.unique(np.stack([rows, times], axis=1), axis=0)
            row_lo = int(slot_pairs[:, 0].min())
            row_hi = int(slot_pairs[:, 0].max())
            per_row = np.bincount(
                slot_pairs[:, 0] - row_lo, minlength=row_hi - row_lo + 1
            ).tolist()
            skew = schedule_length - max(per_row)
            balanced = spatial_balanced_makespan(
                per_row, design.balancer.granularity
            )
            cycles = min(schedule_length, balanced.cycles + skew)
            counters.balancer_shifts = balanced.shifts
            if tracer.enabled:
                tracer.instant(
                    "balanced", component="sim.array", cycle=cycles,
                    shifts=balanced.shifts, unbalanced_cycles=schedule_length,
                )
        else:
            cycles = schedule_length

        counters.cycles = cycles + self.fill_drain_overhead
        counters.macs = work * macs_per_point
        counters.pe_busy_cycles = work
        counters.pe_idle_cycles = max(0, counters.cycles * pe_count - work)
        counters.regfile_reads = sum(
            1
            for io in design.pruned_iterspace.io_conns
            if io.direction is IODirection.INPUT
        )
        counters.regfile_writes = sum(
            1
            for io in design.pruned_iterspace.io_conns
            if io.direction is IODirection.OUTPUT
        )

        # Functional outputs: skipping zero-valued iterations never changes
        # results, so the reference interpreter provides them.
        outputs = self._reference_outputs(tensors)
        if tracer.enabled:
            tracer.complete(
                "sparse_run", component="sim.array",
                start_cycle=0, duration=counters.cycles,
                work=work, utilization=round(counters.pe_utilization, 4),
            )
        return SimResult(outputs, counters, schedule_length)

    def _reference_outputs(self, tensors: Mapping[str, np.ndarray]):
        """Outputs from the reference semantics, memoized per workload.

        The trace-compiled batched kernel answers when the spec is
        traceable (compiled kernels memoized under the ``sim.kernel``
        stage when a cache is threaded through); any compile- or
        replay-time fallback lands on the scalar interpreter.  The
        output memo is keyed on content only -- both backends are
        required to produce byte-identical arrays.
        """
        spec = self.design.spec
        bounds = self.design.bounds

        def build():
            if self.kernel:
                from . import kernel as _kernel
                compiled = (
                    self.memo.kernel(spec)
                    if self.memo is not None
                    else _kernel.cached_kernel(spec)
                )
                if compiled is not None:
                    result = _kernel.replay_interpret(
                        spec, bounds, tensors, kernel=compiled
                    )
                    if result is not None:
                        return result
            return spec.interpret(bounds, tensors, kernel=False)

        if self.memo is not None:
            return self.memo.memo(
                "sim.reference", (spec, bounds, tensors), build
            )
        return build()

    def _valid_points(
        self, tensors: Mapping[str, np.ndarray]
    ) -> List[Tuple[int, ...]]:
        """Iteration points that survive the pessimistic skip conditions.

        Skip conditions are evaluated over the whole domain at once with
        numpy; any condition shape the batch evaluator does not recognize
        is evaluated point-at-a-time *on its own* and OR-ed into the
        batched mask -- one unsupported condition never discards the
        batched work of its supported siblings.
        """
        if not self.vectorize:
            return self._valid_points_scalar(tensors)

        spec = self.design.spec
        bounds = self.design.bounds
        skips = [s for s in self.design.sparsity if not s.optimistic]

        points = _domain_grid(bounds, spec.index_names)
        env = {
            name: points[:, axis] for axis, name in enumerate(spec.index_names)
        }
        skipped = np.zeros(len(points), dtype=bool)
        unsupported = []
        for skip in skips:
            mask = _batch_condition(skip.condition, env, bounds, tensors, len(points))
            if mask is None:
                unsupported.append(skip)
            else:
                skipped |= mask
        if unsupported:
            skipped |= self._scalar_skip_mask(unsupported, tensors)
        return [tuple(row) for row in points[~skipped].tolist()]

    def _valid_points_scalar(
        self, tensors: Mapping[str, np.ndarray]
    ) -> List[Tuple[int, ...]]:
        """Point-at-a-time fallback for conditions the batch path skips."""
        spec = self.design.spec
        bounds = self.design.bounds
        skips = [s for s in self.design.sparsity if not s.optimistic]
        points = _domain_grid(bounds, spec.index_names)
        mask = self._scalar_skip_mask(skips, tensors)
        return [tuple(row) for row in points[~mask].tolist()]

    def _scalar_skip_mask(
        self, skips, tensors: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Exact per-point skip mask for ``skips``, aligned with the
        lexicographic :func:`_domain_grid` row order."""
        spec = self.design.spec
        bounds = self.design.bounds

        def read(symbol, coords):
            array = tensors.get(symbol.name)
            if array is None:
                raise SpecError(f"no data for tensor {symbol.name!r}")
            try:
                return array[coords]
            except IndexError as err:
                raise SpecError(
                    f"skip condition reads tensor {symbol.name!r} at"
                    f" out-of-range coordinates {tuple(coords)}"
                    f" (shape {np.asarray(array).shape})"
                ) from err

        mask = np.zeros(bounds.point_count(spec.index_names), dtype=bool)
        for index, point in enumerate(bounds.domain(spec.index_names)):
            env = dict(zip(spec.index_names, point))
            ctx = EvalContext(env, bounds, read)
            for skip in skips:
                if _condition_holds(skip.condition, ctx, tensors):
                    mask[index] = True
                    break
        return mask

    def _compress_points(
        self, valid_points: Sequence[Tuple[int, ...]]
    ) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """Map each valid point to compressed coordinates: every skipped
        iterator's value becomes its rank among valid values sharing the
        same context (the expansion-function inverse of Section IV-B)."""
        spec = self.design.spec
        order = spec.index_names
        expansion = self.design.sparsity.expansion_dependencies()
        skipped = [name for name in order if name in expansion]
        if not skipped:
            return {p: p for p in valid_points}

        axis_of = {name: axis for axis, name in enumerate(order)}
        # context for skipped iterator s: values of deps(s) --- the fiber it
        # is compressed within.
        rank_maps: Dict[str, Dict[Tuple, Dict[int, int]]] = {s: {} for s in skipped}
        for s in skipped:
            dep_axes = sorted(axis_of[d] for d in expansion[s] if d in axis_of)
            fibers: Dict[Tuple, set] = {}
            for point in valid_points:
                context = tuple(point[a] for a in dep_axes)
                fibers.setdefault(context, set()).add(point[axis_of[s]])
            for context, coords in fibers.items():
                rank_maps[s][context] = {
                    coord: rank for rank, coord in enumerate(sorted(coords))
                }

        compressed: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for point in valid_points:
            packed = list(point)
            for s in skipped:
                dep_axes = sorted(axis_of[d] for d in expansion[s] if d in axis_of)
                context = tuple(point[a] for a in dep_axes)
                packed[axis_of[s]] = rank_maps[s][context][point[axis_of[s]]]
            compressed[point] = tuple(packed)
        return compressed


def _linearize_times(times_nd: np.ndarray) -> np.ndarray:
    """Collapse multi-dimensional time coordinates into one lexicographic
    cycle number.

    Mixed-radix over the observed span of each time axis (outermost axis
    most significant), so tuple order -- the dense path's ``sorted(by_time)``
    -- is preserved and every (outer, inner) combination occupies its own
    schedule slot.  A single time axis passes through unchanged.
    """
    if times_nd.shape[1] == 1:
        return times_nd[:, 0]
    mins = times_nd.min(axis=0)
    spans = times_nd.max(axis=0) - mins + 1
    strides = np.ones(len(spans), dtype=np.int64)
    for axis in range(len(spans) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * spans[axis + 1]
    return ((times_nd - mins) * strides).sum(axis=1)


def _regfile_traffic(spec, bounds, points: np.ndarray) -> Tuple[int, int]:
    """``(reads, writes)`` of a dense run over ``points``.

    Each OUTPUT rule writes once per point its boundary pins match; each
    INPUT rule reads once per matching point, except for variables with
    an interior recurrence, whose boundary loads only describe the
    phantom slot outside the domain.
    """
    axis_of = {name: axis for axis, name in enumerate(spec.index_names)}
    has_compute = {
        a.variable.name
        for a in spec.assignments
        if a.kind is AssignmentKind.COMPUTE
    }
    reads = writes = 0
    for assignment in spec.assignments:
        kind = assignment.kind
        if kind is AssignmentKind.INPUT and assignment.variable.name in has_compute:
            continue
        if kind not in (AssignmentKind.INPUT, AssignmentKind.OUTPUT):
            continue
        fires = np.ones(len(points), dtype=bool)
        for name, want in spec.boundary_pins(assignment, bounds):
            fires &= points[:, axis_of[name]] == want
        if kind is AssignmentKind.OUTPUT:
            writes += int(fires.sum())
        else:
            reads += int(fires.sum())
    return reads, writes


def _domain_grid(bounds, order: Sequence[str]) -> np.ndarray:
    """The iteration domain as an ``(N, rank)`` int array, rows ordered
    exactly like ``bounds.domain(order)`` (lexicographic)."""
    axes = []
    for name in order:
        lo, hi = bounds[name]
        axes.append(np.arange(lo, hi + 1, dtype=np.int64))
    if not axes:
        return np.zeros((1, 0), dtype=np.int64)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# Elementwise counterparts of BinOp._OPS (``min``/``max`` are the Python
# builtins there, which do not broadcast).
_BATCH_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "min": np.minimum,
    "max": np.maximum,
}


def _batch_subscript(sub, env: Mapping[str, np.ndarray], bounds):
    """Evaluate an index-expression subscript over the whole domain.

    ``Index``/``AffineIndexExpr``/``BoundMarker`` evaluation is pure
    arithmetic over the environment, so passing coordinate *vectors*
    broadcasts; data-dependent (``Expr``) subscripts return None.
    """
    if isinstance(sub, IndexExpr):
        return sub.evaluate(env, bounds)
    return None


def _batch_value(
    expr, env: Mapping[str, np.ndarray], bounds, tensors, n: int
):
    """Evaluate a condition operand over the whole domain, or None when
    the expression needs the scalar path."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, IndexValue):
        return _batch_subscript(expr.expr, env, bounds)
    if isinstance(expr, Access):
        if not isinstance(expr.target, Tensor):
            return None
        array = tensors.get(expr.target.name)
        if array is None:
            raise SpecError(f"no data for tensor {expr.target.name!r}")
        coords = []
        for sub in expr.subscripts:
            if sub is WILDCARD:
                return None  # handled at the Comparison level
            coord = _batch_subscript(sub, env, bounds)
            if coord is None:
                return None
            coords.append(coord)
        return np.asarray(array)[tuple(coords)]
    if isinstance(expr, BinOp):
        lhs = _batch_value(expr.lhs, env, bounds, tensors, n)
        rhs = _batch_value(expr.rhs, env, bounds, tensors, n)
        if lhs is None or rhs is None:
            return None
        return _BATCH_BINOPS[expr.op](lhs, rhs)
    return None


def _batch_condition(
    condition, env: Mapping[str, np.ndarray], bounds, tensors, n: int
) -> Optional[np.ndarray]:
    """Evaluate a skip condition over the whole domain as a bool mask.

    Mirrors :func:`_condition_holds`: a wildcard row access compares the
    row's any-nonzero flag (0/1) against the right-hand side.  Returns
    None for shapes the batch evaluator does not support.
    """
    if not isinstance(condition, Comparison):
        return None
    lhs, rhs = condition.lhs, condition.rhs
    if isinstance(lhs, Access) and any(s is WILDCARD for s in lhs.subscripts):
        if not isinstance(lhs.target, Tensor):
            return None
        array = tensors.get(lhs.target.name)
        if array is None:
            return None  # scalar path raises the precise KeyError/SpecError
        wild_axes = tuple(
            axis for axis, s in enumerate(lhs.subscripts) if s is WILDCARD
        )
        # Reduce the wildcard axes to an any-nonzero flag first, then
        # gather with the remaining (batched) subscripts.
        reduced = np.asarray(array).astype(bool).any(axis=wild_axes)
        coords = []
        for s in lhs.subscripts:
            if s is WILDCARD:
                continue
            coord = _batch_subscript(s, env, bounds)
            if coord is None:
                return None
            coords.append(coord)
        value = reduced[tuple(coords)].astype(np.int64)
        other = _batch_value(rhs, env, bounds, tensors, n)
        if other is None:
            return None
        result = Comparison._OPS[condition.op](value, other)
    else:
        lhs_v = _batch_value(lhs, env, bounds, tensors, n)
        rhs_v = _batch_value(rhs, env, bounds, tensors, n)
        if lhs_v is None or rhs_v is None:
            return None
        result = Comparison._OPS[condition.op](lhs_v, rhs_v)
    return np.broadcast_to(np.asarray(result, dtype=bool), (n,)).copy()


def _condition_holds(condition, ctx: EvalContext, tensors) -> bool:
    """Evaluate a skip condition, handling wildcard row accesses."""

    if isinstance(condition, Comparison):
        lhs, rhs = condition.lhs, condition.rhs
        if isinstance(lhs, Access) and any(s is WILDCARD for s in lhs.subscripts):
            array = tensors[lhs.target.name]
            index = [
                slice(None) if s is WILDCARD else int(s.evaluate(ctx.env, ctx.bounds))
                for s in lhs.subscripts
            ]
            row = np.asarray(array[tuple(index)])
            value = 0 if not row.any() else 1
            other = rhs.evaluate(ctx)
            return Comparison._OPS[condition.op](value, other)
    return bool(condition.evaluate(ctx))


def differential_run(
    design: CompiledDesign,
    tensors: Mapping[str, np.ndarray],
    vectorize: bool = True,
    kernel: bool = True,
) -> SimResult:
    """Run ``design`` with memoization disabled -- the oracle entry point.

    Differential comparisons of the simulator's redundant evaluation
    strategies (scalar vs vectorized skip evaluation on sparse designs;
    kernel vs scalar output values on every design) are only meaningful
    when each invocation actually exercises its own path; the
    content-keyed memos would otherwise answer for both sides.  This
    helper pins ``memo=None`` so callers (the ``repro.fuzz`` oracles, the
    differential test suite) cannot get that wrong.
    """
    sim = SpatialArraySim(
        design, memo=None, vectorize=vectorize, kernel=kernel
    )
    return sim.run(tensors)
