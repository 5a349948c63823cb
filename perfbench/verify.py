"""The ``verify`` workload: prove every optimized suite netlist equivalent.

This is ``run_verify([], suites=[resnet50, alexnet, suitesparse], cap=4,
opt_level=2)`` -- 42 targets -- with ``run_verify``'s suite loop written
out so that each ``verify_design`` call can be timed from the call to
its verdict.  One operation is one target.  Every pass starts from a
fresh ``CompileCache``; compiling a target's design is part of the pass
but not of the operation.  Each process first verifies one target per
suite, untimed, as a warm-up.  Every verdict must be equivalent and the
total rewrite count of a pass is pinned.  Each call is timed with a
``HostClock``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import SUITES, HostClock, Metrics, Outcome, add_time_metrics, declared, median
from spans import Patches, Recorder, install_engine, install_rtl, layer_metrics

POLICY = (
    "serial, no disk store, fresh CompileCache per pass; one untimed"
    " warm-up target per suite per process"
)

#: What the workload imports before its first operation (timed by ``probe.py``).
SETUP_IMPORT = "repro.analysis.verify"
#: The ``HostClock`` reference loop whose slowdown matches this workload's
#: (pure-Python RTL simulation).
REFERENCE_MIX = "interpreter"
CAP = 4
OPT_LEVEL = 2

#: A run keeps measuring until it has this many verdicts, so that the
#: 90th percentile has at least ten samples beyond it.
MIN_SAMPLES = 100


def verify_pass(
    targets, seed: int, outcome: Outcome, label: str, clock: HostClock,
    rewrites_total=None,
):
    """Verify every ``(suite, case)`` target once; returns ((wall,
    reference) seconds per verdict, total rewrites)."""
    from repro.analysis.verify import verify_design
    from repro.exec.cache import CompileCache

    cache = CompileCache()
    times: List[Tuple[float, float]] = []
    rewrites = 0
    for suite, case in targets:
        name = f"{suite.name}:{case.name}"
        compiled = cache.compile(
            suite.spec,
            case.bounds,
            suite.transform,
            sparsity=suite.sparsity,
            balancing=suite.balancing,
            element_bits=suite.element_bits,
            check=False,
        )
        clock.start()
        target = verify_design(
            compiled, name, opt_level=OPT_LEVEL, seed=seed, cache=cache
        )
        times.append(clock.stop())
        rewrites += sum(target.rewrites.values())
        codes = [d.code for d in target.diagnostics]
        outcome.check(target.ok, f"{label} {name}: not equivalent {codes}")
    if rewrites_total is not None:
        outcome.check(
            rewrites == rewrites_total,
            f"{label}: {rewrites} rewrites, pinned {rewrites_total}",
        )
    return times, rewrites


def run(seed: int, seconds: float, trace: bool, goldens: Dict, tiny: bool):
    from repro.exec.suite import build_suite

    suites = [build_suite(name, cap=CAP, seed=seed) for name in SUITES]
    targets = [(suite, case) for suite in suites for case in suite.cases]
    pinned = goldens["verify"]["rewrites_total"]
    min_samples = MIN_SAMPLES
    if tiny:
        targets = [(suite, suite.cases[0]) for suite in suites]
        pinned, min_samples = None, 1
    outcome = Outcome()
    clock = HostClock(REFERENCE_MIX)
    verify_pass(
        [(suite, suite.cases[0]) for suite in suites], seed, outcome, "warm-up", clock
    )

    op_times: List[Tuple[float, float]] = []
    pass_times = {False: [], True: []}
    recorder = Recorder()
    rewrites = 0
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        with Patches() as patches:
            if traced:
                install_engine(patches, recorder)
                install_rtl(patches, recorder)
            times, rewrites = verify_pass(
                targets, seed, outcome, f"pass {index}", clock, pinned
            )
            pass_times[traced].append(sum(t[1] for t in times))
        if not traced:
            op_times.extend(times)
        index += 1
        if (
            time.perf_counter() - started >= seconds
            and (index >= 2 if trace else len(op_times) >= min_samples)
        ):
            break

    metrics = Metrics()
    if trace:
        traced_passes = len(pass_times[True])
        metrics.entries.update(
            layer_metrics(recorder, declared("per_layer"), traced_passes, extra={
                "rtl.passes.rewrites": (rewrites, "count"),
                "trace.overhead_frac": (
                    median(pass_times[True]) / median(pass_times[False]) - 1.0, "ratio"
                ),
            })
        )
        return recorder, metrics, outcome
    add_time_metrics(metrics, op_times, clock)
    return None, metrics, outcome
