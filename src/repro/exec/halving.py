"""Multi-fidelity successive-halving autotuning of workload suites.

:func:`~repro.exec.autotune.autotune_suite` (PR 5) evaluates every
candidate combo of every layer at full simulation fidelity; its
``--budget`` knob merely truncated the combo list.  That scales badly
once :class:`~repro.dse.space.DesignSpace` owns the microarchitecture
axes (membuf geometry, DMA depth, regfile variant) on top of transform x
sparsity x balancing.  :func:`halving_autotune_suite` replaces
truncation with the successive-halving schedule:

* **Rung 0** evaluates *all* combos of every layer at a cheap fidelity:
  each case's bounds are clipped to a small ``cap`` and its operand
  tensors sliced to match, energy and output digests are skipped, and
  the reduced run is tagged with a ``fidelity`` label that the engine
  folds into the simulator's memo key -- rung entries can never answer
  for (or be answered by) full-fidelity cache entries.
* Each subsequent rung re-runs only the survivors at an ``eta``-times
  larger cap, keeping the top ``ceil(n / eta)`` combos per layer on the
  rung objective (cycles, then area, then name -- deterministic).  Three
  classes of combo survive unconditionally: the suite's **fixed
  baseline** (so the final winner provably never loses to the fixed
  sweep -- the PR 5 guarantee), the **previous layer's rung leader**
  (neighboring layers share shapes, so its winner warm-starts this
  layer's ranking), and combos that were **illegal at reduced fidelity**
  (clipping can break a balancing scheme that is legal at full bounds;
  they are carried forward rather than falsely pruned).
* The **final rung** is byte-identical to today's exact evaluation:
  full bounds, full tensors, energy + digest on, no fidelity tag -- so
  it shares cache entries with the plain autotuner and the fixed sweep,
  and cold/warm runs stay byte-identical.

Every rung routes through one
:func:`~repro.exec.engine.evaluate_sweep` call, so the ResidentPool,
DiskStore, and compile-cache sharing all apply per rung.  The final winner is picked off the full Pareto frontier,
optionally filtered by declarative suite-level constraints
(``area<=N,power<=N`` -- TeAAL-style), and the result surfaces the full
per-layer frontier plus per-rung evaluation counts.
"""

from __future__ import annotations

import math
import time
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.expr import Bounds
from ..dse.explorer import DesignPoint
from ..dse.space import (
    DesignCombo,
    DesignSpace,
    budgeted_combos,
    suite_design_space,
)
from ..obs.trace import get_tracer
from .autotune import (
    OBJECTIVES,
    AutotuneResult,
    LayerDecision,
    _layer_points,
    select_winner,
)
from .cache import CompileCache
from .engine import evaluate_sweep
from .suite import Suite, SuiteError

#: The smallest rung cap.  Tiles below this stop being representative of
#: the full-bounds ranking (a 1x1x1 matmul has no dataflow).
MIN_RUNG_CAP = 2

#: Metrics a ``--constraint`` clause may bound, each mapping a fully
#: evaluated :class:`~repro.dse.explorer.DesignPoint` to the scalar the
#: bound applies to.  ``power`` is the energy rate (pJ per cycle).
CONSTRAINT_METRICS: Dict[str, Callable[[DesignPoint], float]] = {
    "cycles": lambda p: float(p.cycles),
    "area": lambda p: float(p.area_um2),
    "energy": lambda p: float(p.energy_pj),
    "power": lambda p: float(p.energy_pj) / max(1.0, float(p.cycles)),
}


class Constraint(NamedTuple):
    """One declarative bound: ``metric (<=|>=) limit``."""

    metric: str
    op: str
    limit: float

    def satisfied_by(self, point: DesignPoint) -> bool:
        value = CONSTRAINT_METRICS[self.metric](point)
        return value <= self.limit if self.op == "<=" else value >= self.limit

    def __str__(self) -> str:
        limit = int(self.limit) if self.limit == int(self.limit) else self.limit
        return f"{self.metric}{self.op}{limit}"


def parse_constraints(text: Optional[str]) -> List[Constraint]:
    """Parse the ``--constraint`` grammar: comma-separated
    ``metric<=value`` / ``metric>=value`` clauses over
    :data:`CONSTRAINT_METRICS`."""
    if not text:
        return []
    constraints = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        for op in ("<=", ">="):
            if op in clause:
                metric, _, limit_text = clause.partition(op)
                metric = metric.strip()
                if metric not in CONSTRAINT_METRICS:
                    raise ValueError(
                        f"unknown constraint metric {metric!r}; pick from"
                        f" {sorted(CONSTRAINT_METRICS)}"
                    )
                try:
                    limit = float(limit_text.strip())
                except ValueError:
                    raise ValueError(
                        f"constraint {clause!r} needs a numeric bound"
                    ) from None
                constraints.append(Constraint(metric, op, limit))
                break
        else:
            raise ValueError(
                f"constraint {clause!r} is not of the form metric<=value"
                " or metric>=value"
            )
    return constraints


def fidelity_ladder(full_cap: int, eta: int) -> List[Optional[int]]:
    """The rung caps, cheapest first; ``None`` is the exact final rung.

    Caps grow by ``eta`` from :data:`MIN_RUNG_CAP` while strictly below
    ``full_cap``; ``eta=1`` (no pruning) degenerates to the single exact
    rung, making halving identical to the exhaustive autotuner -- the
    differential test's anchor.
    """
    if eta < 1:
        raise ValueError(f"eta must be at least 1, got {eta}")
    caps: List[Optional[int]] = []
    if eta > 1:
        cap = MIN_RUNG_CAP
        while cap < full_cap:
            caps.append(cap)
            cap *= eta
    caps.append(None)
    return caps


def _suite_full_cap(suite: Suite) -> int:
    return max(
        (
            case.bounds.size(name)
            for case in suite.cases
            for name in case.bounds.names()
        ),
        default=MIN_RUNG_CAP,
    )


def _clip_case(case, cap: int):
    """``(bounds, tensors, clipped)`` for one case at rung cap ``cap``.

    Every iteration axis is clipped to ``cap`` and every operand axis
    sliced to its clipped extent -- rung tiles are genuine sub-problems
    of the layer, so their (bounds, tensors) content keys are naturally
    distinct from the full-fidelity entries.
    """
    sizes = {
        name: min(case.bounds.size(name), cap)
        for name in case.bounds.names()
    }
    if all(sizes[name] == case.bounds.size(name) for name in sizes):
        return case.bounds, case.tensors, False
    bounds = Bounds(sizes)
    tensors = {
        name: np.ascontiguousarray(
            arr[tuple(slice(min(dim, cap)) for dim in arr.shape)]
        )
        for name, arr in case.tensors.items()
    }
    return bounds, tensors, True


class RungStats:
    """Evaluation tallies of one rung, across all layers."""

    def __init__(self, rung: int, cap: Optional[int]):
        self.rung = rung
        self.cap = cap
        self.candidates = 0
        self.evaluated = 0
        self.illegal = 0
        self.carried = 0
        self.survivors = 0

    @property
    def fidelity(self) -> str:
        return "full" if self.cap is None else f"cap{self.cap}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rung": self.rung,
            "fidelity": self.fidelity,
            "cap": self.cap,
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "illegal": self.illegal,
            "carried": self.carried,
            "survivors": self.survivors,
        }


class HalvingLayerDecision(LayerDecision):
    """A layer's winner plus its full serialized Pareto frontier."""

    def __init__(self, *args, frontier_points=None, feasible=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.frontier_points = list(frontier_points or [])
        self.feasible = feasible if feasible is not None else len(
            self.frontier_points
        )

    def row(self) -> Dict[str, object]:
        row = super().row()
        membuf, dma, regfile = self.combo.uarch_names
        row["membuf"] = membuf
        row["dma"] = dma
        row["regfile"] = regfile
        row["feasible"] = self.feasible
        return row


class HalvingResult(AutotuneResult):
    """An :class:`~repro.exec.autotune.AutotuneResult` plus the halving
    schedule: rung tallies, the fidelity ladder, constraint clauses, and
    each layer's full Pareto frontier."""

    def __init__(
        self,
        *args,
        eta: int,
        ladder: Sequence[Optional[int]],
        rungs: Sequence[RungStats],
        constraints: Sequence[Constraint],
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.eta = eta
        self.ladder = list(ladder)
        self.rungs = list(rungs)
        self.constraints = list(constraints)

    @property
    def retuned_layers(self) -> int:
        """Layers whose winner differs from the fixed baseline on *any*
        axis, including the microarchitecture overlays."""
        baseline = (
            self.suite.transform_name,
            self.suite.sparsity_name,
            self.suite.balancing_name,
        )
        return sum(
            1
            for d in self.decisions
            if d.combo.names != baseline or not d.combo.is_default_uarch
        )

    @property
    def full_fidelity_evaluations(self) -> int:
        return self.rungs[-1].candidates if self.rungs else 0

    @property
    def exhaustive_evaluations(self) -> int:
        return len(self.suite.cases) * len(self.combos)

    @property
    def evaluations_saved(self) -> float:
        """The exhaustive-to-final-rung full-fidelity evaluation ratio."""
        return self.exhaustive_evaluations / max(
            1, self.full_fidelity_evaluations
        )

    def aggregates(self) -> Dict[str, object]:
        figures = super().aggregates()
        figures["eta"] = self.eta
        figures["rungs"] = len(self.rungs)
        figures["full_fidelity_evaluations"] = self.full_fidelity_evaluations
        figures["exhaustive_evaluations"] = self.exhaustive_evaluations
        figures["evaluations_saved"] = round(self.evaluations_saved, 4)
        return figures

    def to_dict(self) -> Dict[str, object]:
        payload = super().to_dict()
        payload["mode"] = "halving"
        payload["eta"] = self.eta
        payload["ladder"] = [
            cap if cap is not None else "full" for cap in self.ladder
        ]
        payload["constraint"] = (
            ",".join(str(c) for c in self.constraints) or None
        )
        payload["rungs"] = [stats.as_dict() for stats in self.rungs]
        payload["frontiers"] = {
            decision.case.name: decision.frontier_points
            for decision in self.decisions
        }
        return payload


def _frontier_payload(
    frontier: Sequence[DesignPoint],
    by_label: Mapping[str, Tuple[DesignCombo, Mapping[str, object]]],
    constraints: Sequence[Constraint],
) -> List[Dict[str, object]]:
    payload = []
    for point in frontier:
        combo, _outcome = by_label[point.name]
        membuf, dma, regfile = combo.uarch_names
        payload.append(
            {
                "name": point.name,
                "transform": combo.transform_name,
                "sparsity": combo.sparsity_name,
                "balancing": combo.balancing_name,
                "membuf": membuf,
                "dma": dma,
                "regfile": regfile,
                "cycles": int(point.cycles),
                "area_um2": float(point.area_um2),
                "energy_pj": round(float(point.energy_pj), 3),
                "utilization": float(point.utilization),
                "feasible": all(c.satisfied_by(point) for c in constraints),
            }
        )
    return payload


def halving_autotune_suite(
    suite: Suite,
    objective: str = "cycles",
    eta: int = 2,
    budget: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    space: Optional[DesignSpace] = None,
    pool=None,
    constraints: Union[str, Sequence[Constraint], None] = None,
    on_rung: Optional[Callable[[Dict[str, object]], None]] = None,
) -> HalvingResult:
    """Successive-halving per-layer autotuning of ``suite``.

    ``space`` defaults to the *widened* suite space
    (:func:`~repro.dse.space.suite_design_space` with ``wide=True``);
    ``budget`` is the deprecated rung-0 sizing alias (a stratified
    sample across the transform axis, baseline always kept); ``eta`` is
    both the per-rung keep fraction (top ``1/eta``) and the cap growth
    factor; ``constraints`` filters the final frontier
    (:func:`parse_constraints` grammar) -- note a binding constraint can
    force a winner off the objective optimum, in which case the
    never-worse-than-fixed guarantee is deliberately traded away.
    ``on_rung`` observes rung start/finish events (the serve daemon
    forwards them to clients as ``trace`` messages).
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    if isinstance(constraints, str):
        constraints = parse_constraints(constraints)
    constraints = list(constraints or [])
    space = space if space is not None else suite_design_space(suite, wide=True)
    baseline_names = (
        suite.transform_name, suite.sparsity_name, suite.balancing_name
    )
    combos = budgeted_combos(space.combos(), budget, require=baseline_names)
    baseline_combo = next(
        (
            combo
            for combo in combos
            if combo.names == baseline_names and combo.is_default_uarch
        ),
        None,
    )
    if baseline_combo is None:
        raise SuiteError(
            f"suite {suite.name!r}: the fixed baseline design"
            f" {baseline_names!r} is not in the autotuning space; autotuned"
            " aggregates would not be comparable to the fixed sweep"
        )

    ladder = fidelity_ladder(_suite_full_cap(suite), eta)
    tracer = get_tracer()
    started = time.perf_counter()

    survivors: List[List[DesignCombo]] = [list(combos) for _ in suite.cases]
    rung_stats: List[RungStats] = []
    final_outcomes: List[List[Mapping[str, object]]] = []
    report = None

    def emit(event: Dict[str, object]) -> None:
        tracer.instant(
            str(event["event"]), component="autotune.halving",
            **{k: v for k, v in event.items() if k != "event"},
        )
        if on_rung is not None:
            on_rung(dict(event))

    for rung_index, cap in enumerate(ladder):
        final = cap is None
        stats = RungStats(rung_index, cap)

        # One flat candidate list across all layers -> one
        # evaluate_sweep call per rung (pool/store/dedup all apply).
        entries: List[Tuple[int, DesignCombo]] = []
        candidates: List[Dict[str, object]] = []
        tensor_table: Dict[str, Mapping[str, np.ndarray]] = {}
        for case_index, case in enumerate(suite.cases):
            if final:
                bounds, tensors, clipped = case.bounds, case.tensors, False
            else:
                bounds, tensors, clipped = _clip_case(case, cap)
            tensors_key = f"{case.name}@cap{cap}" if clipped else case.name
            tensor_table.setdefault(tensors_key, tensors)
            fidelity = f"cap{cap}" if clipped else None
            for combo in survivors[case_index]:
                entries.append((case_index, combo))
                candidates.append(
                    combo.candidate(
                        name=f"{case.name} @ {combo.label}"
                        + ("" if not clipped else f" @ rung{rung_index}"),
                        bounds=bounds,
                        tensors_key=tensors_key,
                        fidelity=fidelity,
                        want_energy=final,
                        want_digest=final,
                        # The baseline must compile; exploration combos
                        # may be illegal and are pruned (or, at reduced
                        # fidelity, carried) per layer.
                        skip_illegal=combo.key != baseline_combo.key,
                    )
                )
        stats.candidates = len(candidates)
        emit(
            {
                "event": "rung_start",
                "rung": rung_index,
                "fidelity": stats.fidelity,
                "candidates": stats.candidates,
                "layers": len(suite.cases),
            }
        )

        outcomes, report = evaluate_sweep(
            suite.spec,
            None,
            None,
            candidates,
            element_bits=suite.element_bits,
            skip_illegal=True,
            jobs=jobs,
            cache=cache,
            tensor_table=tensor_table,
            pool=pool,
        )

        per_layer: List[List[Tuple[DesignCombo, Mapping[str, object]]]] = [
            [] for _ in suite.cases
        ]
        for (case_index, combo), outcome in zip(entries, outcomes):
            per_layer[case_index].append((combo, outcome))
            if outcome["status"] == "ok":
                stats.evaluated += 1
            else:
                stats.illegal += 1

        if final:
            final_outcomes = per_layer
            rung_stats.append(stats)
            emit(
                {
                    "event": "rung_finish",
                    "rung": rung_index,
                    "fidelity": stats.fidelity,
                    "evaluated": stats.evaluated,
                    "illegal": stats.illegal,
                    "survivors": 0,
                }
            )
            break

        # Successive halving: per layer, keep the top 1/eta on the rung
        # objective plus the three unconditional survivor classes.
        previous_leader: Optional[DesignCombo] = None
        for case_index in range(len(suite.cases)):
            ranked = sorted(
                (
                    (combo, outcome)
                    for combo, outcome in per_layer[case_index]
                    if outcome["status"] == "ok"
                ),
                key=lambda pair: (
                    int(pair[1]["cycles"]),
                    float(pair[1]["area_um2"]),
                    pair[0].label,
                ),
            )
            keep_n = max(1, math.ceil(len(ranked) / eta))
            keep_keys = {combo.key for combo, _ in ranked[:keep_n]}
            keep_keys.add(baseline_combo.key)
            if previous_leader is not None:
                keep_keys.add(previous_leader.key)
            carried = [
                combo
                for combo, outcome in per_layer[case_index]
                if outcome["status"] != "ok"
            ]
            stats.carried += len(carried)
            keep_keys.update(combo.key for combo in carried)
            next_survivors = [
                combo
                for combo in survivors[case_index]
                if combo.key in keep_keys
            ]
            survivors[case_index] = next_survivors
            stats.survivors += len(next_survivors)
            if ranked:
                previous_leader = ranked[0][0]

        rung_stats.append(stats)
        emit(
            {
                "event": "rung_finish",
                "rung": rung_index,
                "fidelity": stats.fidelity,
                "evaluated": stats.evaluated,
                "illegal": stats.illegal,
                "survivors": stats.survivors,
            }
        )

    elapsed = time.perf_counter() - started

    decisions: List[HalvingLayerDecision] = []
    for case_index, case in enumerate(suite.cases):
        layer = final_outcomes[case_index]
        evaluated = _layer_points(
            [combo for combo, _ in layer],
            [outcome for _, outcome in layer],
        )
        if not evaluated:
            raise SuiteError(
                f"suite {suite.name!r}: no legal design point for layer"
                f" {case.name!r}"
            )
        points = [point for _combo, point, _out in evaluated]
        winner_point, frontier = select_winner(points, objective)
        by_label = {
            point.name: (combo, outcome)
            for combo, point, outcome in evaluated
        }
        feasible = [
            point
            for point in frontier
            if all(c.satisfied_by(point) for c in constraints)
        ]
        if constraints:
            if not feasible:
                clause = ",".join(str(c) for c in constraints)
                raise SuiteError(
                    f"suite {suite.name!r}: no frontier point of layer"
                    f" {case.name!r} satisfies --constraint {clause}"
                )
            measure = OBJECTIVES[objective]
            winner_point = min(
                feasible,
                key=lambda p: (measure(p), p.cycles, p.area_um2, p.name),
            )
        winner_combo, winner_outcome = by_label[winner_point.name]
        fixed_outcome = next(
            outcome
            for combo, _point, outcome in evaluated
            if combo.key == baseline_combo.key
        )
        decisions.append(
            HalvingLayerDecision(
                case,
                winner_combo,
                winner_outcome,
                fixed_outcome,
                frontier_size=len(frontier),
                evaluated=len(evaluated),
                illegal=len(layer) - len(evaluated),
                frontier_points=_frontier_payload(
                    frontier, by_label, constraints
                ),
                feasible=len(feasible),
            )
        )

    return HalvingResult(
        suite,
        objective,
        decisions,
        space,
        combos,
        budget,
        report,
        elapsed,
        cache,
        eta=eta,
        ladder=ladder,
        rungs=rung_stats,
        constraints=constraints,
    )
