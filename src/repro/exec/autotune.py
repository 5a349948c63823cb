"""Per-layer Pareto autotuning of workload suites (DSE x ``repro sweep``).

Stellar's core claim is that one functional spec plus an automated
explorer finds per-workload design points rather than fixing a single
array.  The plain suite sweep (:mod:`repro.exec.suite`) still evaluates
every layer on one hand-picked output-stationary design;
:func:`autotune_suite` crosses the suite with the DSE candidate space
instead:

* each workload-table row is paired with every combo of the
  :class:`~repro.dse.space.DesignSpace` (transform x sparsity wiring x
  load balancing, optionally truncated by a candidate ``budget`` that
  never drops the suite's fixed baseline design);
* all (layer x combo) pairs go through one
  :func:`~repro.exec.engine.evaluate_sweep` call, so candidates share
  the compile cache (most combos collapse onto a handful of compiled
  designs), fan out over the process pool, and warm-start from the
  persistent disk store;
* per layer, the surviving points are ranked by the Pareto frontier
  over (cycles, area, energy) and the winner is the frontier point
  minimizing the configured objective -- ``cycles``, ``energy``, or
  ``edp`` -- with deterministic (objective, cycles, area, name)
  tie-breaks, so parallel, serial, cold, and warm runs pick identical
  designs.

Each layer's *fixed* baseline combo is evaluated with
``skip_illegal: False`` (its failure is a configuration bug, not a
design-space point to prune), which also guarantees the winner table's
aggregate cycles never exceed the fixed-design sweep's: the baseline is
always on the candidate list, so the worst case is choosing it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..dse.explorer import DesignPoint, ExplorationResult
from ..dse.space import DesignCombo, DesignSpace, budgeted_combos, suite_design_space
from .cache import CompileCache
from .engine import EngineReport, evaluate_sweep
from .suite import Suite, SuiteError

#: Supported autotuning objectives, each mapping a point to the scalar
#: being minimized.
OBJECTIVES: Dict[str, Callable[[DesignPoint], float]] = {
    "cycles": lambda p: float(p.cycles),
    "energy": lambda p: float(p.energy_pj),
    "edp": lambda p: float(p.edp),
}


def select_winner(
    points: Sequence[DesignPoint], objective: str
) -> Tuple[DesignPoint, List[DesignPoint]]:
    """``(winner, frontier)`` for one layer's evaluated points.

    The frontier is the Pareto-nondominated subset over every measured
    metric (cycles, area, and energy when present); the winner is the
    frontier point minimizing ``objective`` with deterministic
    tie-breaks, so identical point sets always yield identical winners
    regardless of evaluation order.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    if not points:
        raise ValueError("cannot select a winner from zero points")
    measure = OBJECTIVES[objective]
    frontier = ExplorationResult(list(points)).pareto_frontier()
    winner = min(
        frontier, key=lambda p: (measure(p), p.cycles, p.area_um2, p.name)
    )
    return winner, frontier


class LayerDecision:
    """One layer's autotuning outcome: the winning design plus context."""

    def __init__(
        self,
        case,
        combo: DesignCombo,
        outcome: Mapping[str, object],
        fixed_outcome: Mapping[str, object],
        frontier_size: int,
        evaluated: int,
        illegal: int,
    ):
        self.case = case
        self.combo = combo
        self.outcome = dict(outcome)
        self.fixed_outcome = dict(fixed_outcome)
        self.frontier_size = frontier_size
        self.evaluated = evaluated
        self.illegal = illegal

    @property
    def cycles(self) -> int:
        return int(self.outcome["cycles"])

    @property
    def energy_pj(self) -> float:
        return float(self.outcome["energy_pj"])

    @property
    def edp(self) -> float:
        return self.cycles * self.energy_pj

    @property
    def fixed_cycles(self) -> int:
        return int(self.fixed_outcome["cycles"])

    def row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.case.name,
            "transform": self.combo.transform_name,
            "sparsity": self.combo.sparsity_name,
            "balancing": self.combo.balancing_name,
            "cycles": self.cycles,
            "fixed_cycles": self.fixed_cycles,
            "utilization": float(self.outcome["utilization"]),
            "area_um2": float(self.outcome["area_um2"]),
            "energy_pj": round(self.energy_pj, 3),
            "edp": round(self.edp, 3),
            "output_digest": self.outcome["output_digest"],
            "frontier": self.frontier_size,
            "evaluated": self.evaluated,
            "illegal": self.illegal,
        }
        row.update(self.case.info)
        row["bounds_str"] = "x".join(
            str(self.case.bounds.size(name)) for name in ("i", "j", "k")
        )
        return row


class AutotuneResult:
    """Per-layer winner table plus suite aggregates and the engine report."""

    def __init__(
        self,
        suite: Suite,
        objective: str,
        decisions: List[LayerDecision],
        space: DesignSpace,
        combos: List[DesignCombo],
        budget: Optional[int],
        report: EngineReport,
        elapsed_s: float,
        cache: Optional[CompileCache],
    ):
        self.suite = suite
        self.objective = objective
        self.decisions = decisions
        self.space = space
        self.combos = combos
        self.budget = budget
        self.report = report
        self.elapsed_s = elapsed_s
        self.cache = cache

    # -- aggregates ------------------------------------------------------

    @property
    def rows(self) -> List[Dict[str, object]]:
        return [decision.row() for decision in self.decisions]

    @property
    def total_cycles(self) -> int:
        return sum(d.cycles for d in self.decisions)

    @property
    def fixed_total_cycles(self) -> int:
        return sum(d.fixed_cycles for d in self.decisions)

    @property
    def total_energy_pj(self) -> float:
        return sum(d.energy_pj for d in self.decisions)

    @property
    def total_edp(self) -> float:
        return sum(d.edp for d in self.decisions)

    @property
    def mean_utilization(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(
            float(d.outcome["utilization"]) for d in self.decisions
        ) / len(self.decisions)

    @property
    def retuned_layers(self) -> int:
        """Layers whose winner is not the suite's fixed baseline design."""
        baseline = (
            self.suite.transform_name,
            self.suite.sparsity_name,
            self.suite.balancing_name,
        )
        return sum(1 for d in self.decisions if d.combo.names != baseline)

    def aggregates(self) -> Dict[str, object]:
        return {
            "cases": len(self.decisions),
            "objective": self.objective,
            "candidates_per_layer": len(self.combos),
            "total_cycles": self.total_cycles,
            "fixed_total_cycles": self.fixed_total_cycles,
            "retuned_layers": self.retuned_layers,
            "mean_utilization": round(self.mean_utilization, 4),
            "total_energy_pj": round(self.total_energy_pj, 3),
            "total_edp": round(self.total_edp, 3),
            "elapsed_s": round(self.elapsed_s, 4),
        }

    # -- presentation ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "suite": self.suite.name,
            "mode": "autotune",
            "objective": self.objective,
            "budget": self.budget,
            "space": self.space.axes(),
            "rows": self.rows,
            "aggregates": self.aggregates(),
            "engine": self.report.as_dict(),
        }
        if self.cache is not None and self.cache.store is not None:
            payload["store"] = self.cache.store.stats.as_dict()
        return payload

    def table(self) -> str:
        headers = (
            "case", "design", "cycles", "fixed", "util", "energy/pJ", "digest"
        )
        body = []
        for decision in self.decisions:
            row = decision.row()
            body.append(
                (
                    str(row["name"]),
                    f"{row['transform']} / {row['sparsity']} / {row['balancing']}",
                    str(row["cycles"]),
                    str(row["fixed_cycles"]),
                    f"{float(row['utilization']):.3f}",
                    f"{float(row['energy_pj']):.1f}",
                    str(row["output_digest"])[:12],
                )
            )
        widths = [
            max(len(headers[col]), *(len(line[col]) for line in body)) if body
            else len(headers[col])
            for col in range(len(headers))
        ]
        lines = [
            "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
            "  ".join("-" * width for width in widths),
        ]
        for line in body:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
            )
        return "\n".join(lines)


def _layer_points(
    combos: Sequence[DesignCombo], outcomes: Sequence[Mapping[str, object]]
) -> List[Tuple[DesignCombo, DesignPoint, Mapping[str, object]]]:
    points = []
    for combo, outcome in zip(combos, outcomes):
        if outcome["status"] != "ok":
            continue
        points.append(
            (
                combo,
                DesignPoint(
                    name=combo.label,
                    transform_name=combo.transform_name,
                    sparsity_name=combo.sparsity_name,
                    balancing_name=combo.balancing_name,
                    cycles=int(outcome["cycles"]),
                    utilization=float(outcome["utilization"]),
                    area_um2=float(outcome["area_um2"]),
                    pe_count=int(outcome["pe_count"]),
                    conn_count=int(outcome["conn_count"]),
                    pruned_variables=outcome["pruned_variables"],
                    energy_pj=float(outcome["energy_pj"]),
                ),
                outcome,
            )
        )
    return points


def autotune_suite(
    suite: Suite,
    objective: str = "cycles",
    budget: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    space: Optional[DesignSpace] = None,
    pool=None,
) -> AutotuneResult:
    """Pick the Pareto-best design point per layer of ``suite``.

    ``space`` defaults to :func:`~repro.dse.space.suite_design_space`;
    ``budget`` caps candidates per layer (the fixed baseline design is
    always kept, so the aggregate can only improve on the fixed sweep);
    ``jobs``, ``cache``, and ``pool`` (a resident worker pool) thread
    straight into :func:`~repro.exec.engine.evaluate_sweep`.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; pick from {sorted(OBJECTIVES)}"
        )
    space = space if space is not None else suite_design_space(suite)
    baseline = (suite.transform_name, suite.sparsity_name, suite.balancing_name)
    combos = budgeted_combos(space.combos(), budget, require=baseline)
    if not any(combo.names == baseline for combo in combos):
        raise SuiteError(
            f"suite {suite.name!r}: the fixed baseline design {baseline!r}"
            " is not in the autotuning space; autotuned aggregates would"
            " not be comparable to the fixed sweep"
        )

    candidates = [
        combo.candidate(
            name=f"{case.name} @ {combo.label}",
            bounds=case.bounds,
            tensors_key=case.name,
            want_energy=True,
            want_digest=True,
            # The baseline must compile; exploration combos may be
            # illegal for this spec and are pruned per layer.
            skip_illegal=combo.names != baseline,
        )
        for case in suite.cases
        for combo in combos
    ]

    started = time.perf_counter()
    outcomes, report = evaluate_sweep(
        suite.spec,
        None,
        None,
        candidates,
        element_bits=suite.element_bits,
        skip_illegal=True,
        jobs=jobs,
        cache=cache,
        tensor_table=suite.tensor_table(),
        pool=pool,
    )
    elapsed = time.perf_counter() - started

    decisions = []
    stride = len(combos)
    for index, case in enumerate(suite.cases):
        chunk = outcomes[index * stride:(index + 1) * stride]
        evaluated = _layer_points(combos, chunk)
        if not evaluated:
            raise SuiteError(
                f"suite {suite.name!r}: no legal design point for layer"
                f" {case.name!r}"
            )
        winner_point, frontier = select_winner(
            [point for _combo, point, _out in evaluated], objective
        )
        by_label = {
            point.name: (combo, outcome)
            for combo, point, outcome in evaluated
        }
        winner_combo, winner_outcome = by_label[winner_point.name]
        fixed_outcome = next(
            outcome
            for combo, _point, outcome in evaluated
            if combo.names == baseline
        )
        decisions.append(
            LayerDecision(
                case,
                winner_combo,
                winner_outcome,
                fixed_outcome,
                frontier_size=len(frontier),
                evaluated=len(evaluated),
                illegal=stride - len(evaluated),
            )
        )
    return AutotuneResult(
        suite, objective, decisions, space, combos, budget, report, elapsed, cache
    )
