"""Set-up probe: import the package and build one workload's suites, then exit.

``python3 perfbench/probe.py <tune|verify> <seed>``; ``run.py`` times
whole runs of it to measure ``setup_s``.
"""

import importlib
import sys

from common import SUITES

if __name__ == "__main__":
    workload = importlib.import_module(sys.argv[1])
    importlib.import_module(workload.SETUP_IMPORT)
    from repro.exec.suite import build_suite

    for name in SUITES:
        build_suite(name, cap=workload.CAP, seed=int(sys.argv[2]))
