#!/usr/bin/env python
"""Benchmark the evaluation fast paths against their seed paths.

Thin wrapper over :mod:`repro.exec.bench` so the harness can be run
straight from a checkout::

    PYTHONPATH=src python benchmarks/bench_dse.py [--quick] [--only BENCH]
                                                  [-o BENCH_dse.json]

Equivalent to ``python -m repro bench``.  Runs the DSE wall-clock sweep
plus the membuf/dma/merger micro-sweeps, the kernel-reference bench,
the cold-vs-warm ``suite_resnet50`` disk-cache bench, and the
``autotune_halving`` successive-halving-vs-exhaustive comparison (which
must also be run-to-run identical and never worse than the exhaustive
search), writes/updates the named report
file (default ``BENCH_dse.json`` in the current directory), and exits 1
when any sweep's speedup regressed more than 2x relative to its
committed baseline.
"""

import sys

from repro.exec.bench import main

if __name__ == "__main__":
    sys.exit(main())
