"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {tune,serve,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of BENCHMARK.json, measured with
no wrappers installed; with ``--trace 1`` they are the ``per_layer`` list,
and the span table and a Chrome trace are written under
``.perfbench-out/``.  The exit code is 0 only when every output checked
was correct.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import (
    BENCH_DIR, OUT, SERVE_LAYER, SETUP_SAMPLES, SRC, HostClock, Metrics, declared,
    finish, median, peak_rss_mb, probe_setup, run_record,
)

WORKLOADS = ("tune", "serve", "verify")

#: Measured and printed, but not declared in BENCHMARK.json.  Wall-clock
#: times follow the shared host's speed, which drifts by about 1.5x over
#: minutes, so their run-to-run spread exceeds the largest bound allowed;
#: the declared times are the same operations at the nominal host speed.
#: The serve layer metrics wait for the serve workload.
REPORTED_ONLY = ("ops_per_s", "op_ms_p50", "op_ms_p90", "host_ref_ms") + tuple(
    entry["name"] for entry in SERVE_LAYER
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="seed the workload's inputs are generated from")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to measure; a started pass always finishes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and fewest samples, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["STELLAR_CACHE_DIR"] = "off"
    with open(BENCH_DIR / "goldens.json") as handle:
        goldens = json.load(handle)

    workload = importlib.import_module(args.workload)
    seed = args.seed % 2**31
    trace = bool(args.trace)
    recorder, measured, outcome = workload.run(
        seed, args.seconds, trace, goldens, args.tiny
    )

    kind = "per_layer" if trace else "end_to_end"
    metrics = Metrics()
    if not trace and "setup_s" not in measured.entries:
        # Set-up is process start, imports and suite building on every
        # workload; the mixed loop tracks it (the interpreter loop does not).
        samples = probe_setup(
            args.workload, seed, 1 if args.tiny else SETUP_SAMPLES, HostClock("mixed")
        )
        measured.add("setup_s", median(samples), "s", len(samples))
        measured.add("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    for entry in declared(kind):
        got = measured.entries[entry["name"]]
        if got["unit"] != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {got['unit']}, declared {entry['unit']}")
        metrics.entries[entry["name"]] = got
    reported = Metrics()
    for name, entry in measured.entries.items():
        if name not in metrics.entries:
            if name not in REPORTED_ONLY:
                raise ValueError(f"metric {name} is not declared in BENCHMARK.json")
            reported.entries[name] = entry

    record = run_record(args.workload, seed, workload.POLICY)
    record.update(trace=trace, seconds=args.seconds, tiny=args.tiny)
    if recorder is not None:
        OUT.mkdir(exist_ok=True)
        recorder.write(
            str(OUT / f"{args.workload}-layers.txt"),
            str(OUT / f"{args.workload}-trace.json"),
        )
        record["spans"] = recorder.span_count()
    return finish(record, metrics, outcome, reported)


if __name__ == "__main__":
    sys.exit(main())
