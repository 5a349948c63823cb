"""Tests for repro.exec.halving: multi-fidelity successive halving.

The differential anchor is ``eta=1``: the ladder degenerates to one
exact rung, so halving must reproduce a brute-force winner search
(:func:`repro.fuzz.oracles.brute_force_winners`) row for row.  The pruning runs (``eta>=2``) are then held to the structural
guarantees -- never worse than the fixed sweep, never worse than the
exhaustive run over the same space, byte-identical across cold and warm
disk stores -- rather than to pinned winners, because the winners are
the exhaustive autotuner's by construction.
"""

import json
import tempfile

import pytest

from repro.core.expr import Bounds
from repro.dse.space import budgeted_combos, suite_design_space
from repro.dse.uarch import (
    DmaVariant,
    MembufVariant,
    RegfileVariant,
    standard_uarch_axes,
    uarch_overlay,
)
from repro.exec.cache import CompileCache, persistent_compile_cache
from repro.exec.halving import (
    MIN_RUNG_CAP,
    Constraint,
    HalvingResult,
    _clip_case,
    _suite_full_cap,
    fidelity_ladder,
    halving_autotune_suite,
    parse_constraints,
)
from repro.exec.suite import SuiteError, build_suite, evaluate_suite
from repro.fuzz.oracles import brute_force_winners


def _suite(name="alexnet", cap=4, seed=7):
    return build_suite(name, cap=cap, seed=seed)


def _halve(suite_name="alexnet", **kwargs):
    kwargs.setdefault("cache", CompileCache())
    kwargs.setdefault("jobs", 1)
    return halving_autotune_suite(_suite(suite_name), **kwargs)


def _winner_rows(result):
    return [
        (r["name"], r["transform"], r["sparsity"], r["balancing"],
         r["cycles"], r["output_digest"])
        for r in result.rows
    ]


class TestFidelityLadder:
    def test_eta2_doubles_caps_below_full(self):
        assert fidelity_ladder(8, 2) == [2, 4, None]
        assert fidelity_ladder(16, 2) == [2, 4, 8, None]

    def test_eta1_degenerates_to_single_exact_rung(self):
        assert fidelity_ladder(8, 1) == [None]
        assert fidelity_ladder(64, 1) == [None]

    def test_eta3_grows_by_three(self):
        assert fidelity_ladder(8, 3) == [2, 6, None]

    def test_tiny_full_cap_has_no_reduced_rungs(self):
        assert fidelity_ladder(MIN_RUNG_CAP, 2) == [None]
        assert fidelity_ladder(1, 2) == [None]

    def test_eta_below_one_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            fidelity_ladder(8, 0)


class TestConstraintGrammar:
    def test_parse_clauses(self):
        clauses = parse_constraints("area<=120000, power>=0.5")
        assert clauses == [
            Constraint("area", "<=", 120000.0),
            Constraint("power", ">=", 0.5),
        ]
        assert [str(c) for c in clauses] == ["area<=120000", "power>=0.5"]

    def test_empty_and_none_parse_to_nothing(self):
        assert parse_constraints(None) == []
        assert parse_constraints("") == []
        assert parse_constraints(" , ") == []

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            parse_constraints("latency<=10")

    def test_missing_operator_rejected(self):
        with pytest.raises(ValueError, match="form"):
            parse_constraints("cycles=10")

    def test_non_numeric_bound_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_constraints("cycles<=fast")


class TestDifferential:
    def test_eta1_matches_exhaustive_autotune(self):
        """One exact rung over the classic three-axis space must pick
        exactly the brute-force search's winners."""
        narrow = suite_design_space(_suite())
        reference = brute_force_winners(_suite(), narrow)
        halved = _halve(space=narrow, eta=1)
        assert _winner_rows(halved) == [row for row, _fixed in reference]
        assert halved.total_cycles == sum(row[4] for row, _ in reference)
        assert halved.fixed_total_cycles == sum(f for _row, f in reference)

    def test_pruned_run_matches_eta1_over_wide_space(self):
        """Successive halving with pruning lands on the same winners as
        the single exact rung over the identical widened combo list."""
        halved = _halve(eta=2)
        exact = _halve(eta=1)
        assert _winner_rows(halved) == _winner_rows(exact)
        assert halved.total_cycles == exact.total_cycles

    def test_never_worse_than_fixed_across_suites(self):
        for suite_name in ("alexnet", "resnet50", "suitesparse"):
            result = _halve(suite_name)
            assert result.total_cycles <= result.fixed_total_cycles

    def test_never_worse_than_exhaustive_across_suites(self):
        for suite_name in ("alexnet", "resnet50"):
            halved = _halve(suite_name, eta=2)
            exact = _halve(suite_name, eta=1)
            assert halved.total_cycles <= exact.total_cycles

    def test_fixed_cycles_match_fixed_sweep(self):
        fixed = evaluate_suite(_suite(), jobs=1, cache=CompileCache())
        halved = _halve()
        assert halved.fixed_total_cycles == fixed.total_cycles


class TestReferenceSharing:
    def test_reference_built_once_per_layer_and_fidelity(self):
        """Dense and sparse runs take their output values from one
        ``sim.reference`` entry per distinct (layer, fidelity) workload;
        the many designs simulated on it never rebuild it."""
        suite = _suite("alexnet")
        cache = CompileCache()
        halving_autotune_suite(suite, eta=2, jobs=1, cache=cache)
        workloads = set()
        for cap in fidelity_ladder(_suite_full_cap(suite), 2):
            for case in suite.cases:
                if cap is None:
                    bounds, tensors = case.bounds, case.tensors
                else:
                    bounds, tensors, _clipped = _clip_case(case, cap)
                workloads.add(cache.key((suite.spec, bounds, tensors)))
        _hits, reference_builds = cache.stats.by_stage["sim.reference"]
        _hits, dense_runs = cache.stats.by_stage["sim.dense"]
        assert reference_builds == len(workloads)
        assert dense_runs > reference_builds


class TestDiskStoreIdentity:
    def test_cold_and_warm_runs_pick_identical_winners(self):
        """Two runs sharing one disk-store root (the second answered
        mostly from disk, including the reduced-fidelity rung entries)
        agree row for row and rung for rung."""
        with tempfile.TemporaryDirectory(prefix="stellar-halving-") as root:
            cold = halving_autotune_suite(
                _suite(), jobs=1, cache=persistent_compile_cache(root)
            )
            warm_cache = persistent_compile_cache(root)
            warm = halving_autotune_suite(_suite(), jobs=1, cache=warm_cache)
        assert cold.rows == warm.rows
        assert [s.as_dict() for s in cold.rungs] == [
            s.as_dict() for s in warm.rungs
        ]
        assert warm_cache.store.stats.hits > 0


class TestSchedule:
    def test_rung_tallies_and_ladder(self):
        result = _halve(eta=2)
        assert result.ladder == [2, None]
        assert [s.fidelity for s in result.rungs] == ["cap2", "full"]
        assert result.rungs[0].candidates == len(result.combos) * len(
            result.decisions
        )
        assert result.rungs[-1].candidates == result.full_fidelity_evaluations
        assert result.rungs[-1].survivors == 0
        # Pruning must actually shed work before the exact rung.
        assert result.full_fidelity_evaluations < result.exhaustive_evaluations
        assert result.evaluations_saved > 1.0

    def test_on_rung_events_bracket_every_rung(self):
        events = []
        _halve(on_rung=events.append)
        starts = [e for e in events if e["event"] == "rung_start"]
        finishes = [e for e in events if e["event"] == "rung_finish"]
        assert len(starts) == len(finishes) == 2
        assert [e["fidelity"] for e in starts] == ["cap2", "full"]
        assert finishes[0]["survivors"] > 0

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            _halve(objective="latency")

    def test_result_serializes(self):
        result = _halve(eta=2)
        payload = result.to_dict()
        assert payload["mode"] == "halving"
        assert payload["eta"] == 2
        assert payload["ladder"] == [2, "full"]
        assert payload["constraint"] is None
        assert [r["fidelity"] for r in payload["rungs"]] == ["cap2", "full"]
        assert set(payload["frontiers"]) == {
            d.case.name for d in result.decisions
        }
        for row in payload["rows"]:
            assert {"membuf", "dma", "regfile", "feasible"} <= set(row)
        aggregates = payload["aggregates"]
        assert aggregates["evaluations_saved"] == round(
            result.evaluations_saved, 4
        )
        assert aggregates["full_fidelity_evaluations"] > 0
        json.dumps(payload)  # wire-safe
        assert isinstance(result, HalvingResult)
        assert result.table()


class TestConstraints:
    def test_generous_constraint_keeps_the_winner(self):
        plain = _halve()
        bounded = _halve(constraints="area<=1000000000,cycles<=1000000")
        assert _winner_rows(bounded) == _winner_rows(plain)
        for row in bounded.rows:
            assert row["feasible"] >= 1

    def test_impossible_constraint_raises(self):
        with pytest.raises(SuiteError, match="constraint"):
            _halve(constraints="area<=1")

    def test_binding_area_constraint_changes_feasible_set(self):
        plain = _halve()
        frontier = plain.to_dict()["frontiers"]
        areas = sorted(
            {point["area_um2"] for rows in frontier.values() for point in rows}
        )
        if len(areas) < 2:
            pytest.skip("frontier has a single area point at this cap")
        limit = (areas[0] + areas[1]) / 2
        bounded = _halve(constraints=f"area<={limit}")
        assert all(
            row["area_um2"] <= limit for row in bounded.rows
        )

    def test_constraint_string_is_canonicalized(self):
        result = _halve(constraints=" area<=50000000 , power>=0 ")
        assert result.to_dict()["constraint"] == "area<=50000000,power>=0"


class TestStratifiedBudget:
    def test_sample_is_deterministic(self):
        combos = suite_design_space(_suite(), wide=True).combos()
        first = budgeted_combos(combos, 9, seed=0)
        second = budgeted_combos(combos, 9, seed=0)
        assert [c.key for c in first] == [c.key for c in second]

    def test_small_budgets_touch_every_transform(self):
        """The old prefix truncation kept a transform-major prefix; the
        stratified draw must cover all four transforms by budget 4."""
        combos = suite_design_space(_suite(), wide=True).combos()
        transforms = sorted({c.transform_name for c in combos})
        kept = budgeted_combos(combos, len(transforms))
        assert sorted({c.transform_name for c in kept}) == transforms

    def test_seed_changes_the_draw(self):
        combos = suite_design_space(_suite(), wide=True).combos()
        draws = {
            tuple(c.key for c in budgeted_combos(combos, 8, seed=seed))
            for seed in range(4)
        }
        assert len(draws) > 1

    def test_required_baseline_survives_any_budget(self):
        combos = suite_design_space(_suite(), wide=True).combos()
        baseline = ("output-stationary", "B-csr", "row-shift")
        for budget in (1, 2, 5):
            kept = budgeted_combos(combos, budget, require=baseline)
            assert len(kept) == budget
            assert any(
                c.names == baseline and c.is_default_uarch for c in kept
            )


class TestUarchOverlay:
    def test_neutral_configuration_is_free(self):
        bounds = Bounds({"i": 4, "j": 4, "k": 4})
        assert uarch_overlay(None, None, None, bounds, 16) == (0, 0.0)

    def test_variants_only_add_cycles(self):
        bounds = Bounds({"i": 8, "j": 8, "k": 8})
        extra, _area = uarch_overlay(
            MembufVariant(4, 4), DmaVariant(1), RegfileVariant("crossbar"),
            bounds, 16,
        )
        assert extra > 0

    def test_area_savers_shrink_area(self):
        bounds = Bounds({"i": 8, "j": 8, "k": 8})
        _extra, area = uarch_overlay(
            MembufVariant(4, 4), DmaVariant(1), None, bounds, 16
        )
        assert area < 0

    def test_standard_axes_lead_with_default(self):
        for axis in standard_uarch_axes():
            assert next(iter(axis)) == "default"
            assert axis["default"] is None
