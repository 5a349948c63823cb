"""Pinned results of dense simulation.

Every case compiles a dense design and runs :class:`SpatialArraySim` with
no memo.  For each case the golden file pins ``PerfCounters.as_dict()``,
``schedule_length`` and one SHA-256 per output over its dtype, shape and
bytes.  The cases are:

* every layer of the ``resnet50`` and ``alexnet`` suites (cap 8, seed 7)
  under each standard transform that compiles for it, run on a dense
  design with the layer's own operands;
* the dense cases (``sparsity_name == "dense"``) of the 200-case fuzz
  campaigns at seeds 0-3 whose design compiles.

Regenerate only when a change to simulated results is intended::

    PYTHONPATH=src python tests/sim/test_dense_goldens.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import compile_design
from repro.core.expr import SpecError
from repro.dse.space import standard_transforms
from repro.exec.suite import build_suite
from repro.fuzz.generate import generate_cases
from repro.fuzz.oracles import oracle_names
from repro.sim.spatial_array import SpatialArraySim

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "dense_goldens.json"

SUITES = ("resnet50", "alexnet")
FUZZ_SEEDS = (0, 1, 2, 3)
FUZZ_CASES = 200


def _suite_cases():
    for suite_name in SUITES:
        suite = build_suite(suite_name, cap=8, seed=7)
        for case in suite.cases:
            for transform_name, transform in standard_transforms().items():
                yield (
                    f"{suite_name}/{case.name}/{transform_name}",
                    suite.spec, case.bounds, transform, case.tensors,
                )


def _fuzz_cases():
    for seed in FUZZ_SEEDS:
        for case in generate_cases(seed, FUZZ_CASES, oracle_names()):
            if case.sparsity_name != "dense":
                continue
            try:
                transform = case.build_transform()
            except SpecError:
                continue
            yield (
                f"fuzz/{seed}/{case.index}",
                case.build_spec(), case.build_bounds(), transform,
                case.build_tensors(),
            )


def _designs():
    """``{case id: (design, tensors)}`` for every case that compiles."""
    out = {}
    for case_id, spec, bounds, transform, tensors in (
        *_suite_cases(), *_fuzz_cases()
    ):
        try:
            design = compile_design(spec, bounds, transform)
        except SpecError:
            continue
        out[case_id] = (design, tensors)
    return out


def output_digest(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(repr(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def observe(design, tensors):
    result = SpatialArraySim(design).run(tensors)
    return {
        "counters": result.counters.as_dict(),
        "schedule_length": result.schedule_length,
        "outputs": {
            name: output_digest(array)
            for name, array in sorted(result.outputs.items())
        },
    }


# Missing on regeneration only; ``test_case_set_is_pinned`` fails without it.
GOLDENS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def designs():
    return _designs()


def test_case_set_is_pinned(designs):
    assert sorted(designs) == sorted(GOLDENS)


def test_cover_every_corner():
    assert any(key.startswith("resnet50/") for key in GOLDENS)
    assert any(key.startswith("alexnet/") for key in GOLDENS)
    for seed in FUZZ_SEEDS:
        assert any(key.startswith(f"fuzz/{seed}/") for key in GOLDENS)


@pytest.mark.parametrize("case_id", sorted(GOLDENS))
def test_dense_run_matches_golden(designs, case_id):
    design, tensors = designs[case_id]
    assert observe(design, tensors) == GOLDENS[case_id]


if __name__ == "__main__":
    table = {
        case_id: observe(design, tensors)
        for case_id, (design, tensors) in sorted(_designs().items())
    }
    lines = [
        f"{json.dumps(case_id)}: {json.dumps(entry, sort_keys=True)}"
        for case_id, entry in table.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
