"""The ``tune`` workload: successive-halving autotuning of the three suites.

One operation is one pass: a ``halving_autotune_suite`` call (eta 2,
objective cycles, cap 8) on each of resnet50, alexnet and suitesparse in
that order, serially, with no disk store and a fresh ``CompileCache`` per
suite -- what ``repro sweep <suite> --halving`` does for each suite.
Every process first runs one untimed warm-up pass over suites built from
the default seed, checked against the pinned goldens, so every run checks
every golden and first-use costs stay out of the timed passes.  Timed
passes use suites built from the workload seed and must produce identical
rows on every pass; at the default seed they are also checked against
the goldens.  A timed pass is measured with a ``HostClock`` cut at the
end of every rung (the ``rung_finish`` events of ``on_rung``).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict

from common import SUITES, HostClock, Metrics, Outcome, add_time_metrics, declared, median
from spans import Patches, Recorder, install_engine, install_halving, layer_metrics

POLICY = (
    "serial (jobs=1), no disk store, fresh CompileCache per suite tune;"
    " one untimed warm-up pass (default seed, checked against the goldens) per process"
)

#: What the workload imports before its first operation (timed by ``probe.py``).
SETUP_IMPORT = "repro.exec.halving"
#: The ``HostClock`` reference loop whose slowdown matches this workload's
#: (array-heavy simulation).
REFERENCE_MIX = "mixed"
CAP = 8
ETA = 2


def rows_digest(result) -> str:
    """SHA-256 of the winner rows (every column, canonical JSON)."""
    rows = result.to_dict()["rows"]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def tune_pass(
    suites, outcome: Outcome, label: str, goldens=None, expected=None, on_rung=None
):
    """Tune every suite once, checking each result; returns (results, row
    digests).  ``goldens`` pins cycles and digests per suite name;
    ``expected`` is the digest list every pass must repeat; ``on_rung``
    is passed to every tune."""
    from repro.exec import halving
    from repro.exec.cache import CompileCache

    results, digests = [], []
    for index, suite in enumerate(suites):
        result = halving.halving_autotune_suite(
            suite, objective="cycles", eta=ETA, jobs=1, cache=CompileCache(),
            on_rung=on_rung,
        )
        results.append(result)
        digest = rows_digest(result)
        digests.append(digest)
        aggregates = result.aggregates()
        cycles, fixed = aggregates["total_cycles"], aggregates["fixed_total_cycles"]
        ok = cycles <= fixed
        what = f"{label} {suite.name}: {cycles} cycles (fixed design {fixed}), rows {digest[:12]}"
        if goldens is not None:
            pinned = goldens[suite.name]
            ok = ok and cycles == pinned["total_cycles"] and digest == pinned["rows_sha256"]
            what += f"; golden {pinned['total_cycles']} cycles, rows {pinned['rows_sha256'][:12]}"
        if expected is not None:
            ok = ok and digest == expected[index]
            what += f"; first pass rows {expected[index][:12]}"
        outcome.check(ok, what)
    return results, digests


def run(seed: int, seconds: float, trace: bool, goldens: Dict, tiny: bool):
    from repro.exec.suite import build_suite

    names = ("alexnet",) if tiny else SUITES
    pinned = goldens["tune"]
    suites = [build_suite(name, cap=CAP, seed=seed) for name in names]
    outcome = Outcome()
    warm = [build_suite(name, cap=CAP, seed=pinned["seed"]) for name in names]
    tune_pass(warm, outcome, "warm-up (golden seed)", pinned["suites"])
    timed_goldens = pinned["suites"] if seed == pinned["seed"] else None

    pass_times = {False: [], True: []}
    recorder = Recorder()
    clock = HostClock(REFERENCE_MIX)

    def cut_at_rung_end(event):
        if event["event"] == "rung_finish":
            clock.mark()

    first_digests = None
    halving_counts = {"evals": 0, "full_evals": 0}
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        with Patches() as patches:
            if traced:
                install_engine(patches, recorder)
                install_halving(patches, recorder)
            clock.start()
            results, digests = tune_pass(
                suites, outcome, f"pass {index}", timed_goldens, first_digests,
                on_rung=cut_at_rung_end,
            )
            pass_times[traced].append(clock.stop())
        if traced:
            for result in results:
                halving_counts["evals"] += sum(r.candidates for r in result.rungs)
                halving_counts["full_evals"] += result.full_fidelity_evaluations
        first_digests = first_digests or digests
        index += 1
        if time.perf_counter() - started >= seconds and (not trace or index >= 2):
            break

    metrics = Metrics()
    if trace:
        traced_passes = len(pass_times[True])
        metrics.entries.update(
            layer_metrics(recorder, declared("per_layer"), traced_passes, extra={
                "exec.halving.evals": (halving_counts["evals"] / traced_passes, "count"),
                "exec.halving.full_evals": (halving_counts["full_evals"] / traced_passes, "count"),
                "trace.overhead_frac": (
                    median(t[1] for t in pass_times[True])
                    / median(t[1] for t in pass_times[False]) - 1.0, "ratio"
                ),
            })
        )
        return recorder, metrics, outcome
    add_time_metrics(metrics, pass_times[False], clock)
    return None, metrics, outcome

