"""Batched evaluation of the paper's workload suites.

The headline experiments (Fig. 15-18, Table III) are not single design
points but *suites*: every distinct ResNet-50 conv shape, the pruned
AlexNet layers, the SuiteSparse-like matrix registry.  This module
routes a whole suite through :func:`repro.exec.engine.evaluate_sweep`
as one candidate list -- each layer becomes a candidate carrying its
own bounds and a ``tensors_key`` into the sweep's shared tensor table
-- so layers share the compile cache (most ResNet shapes collapse onto
a handful of tile configurations), fan out over the process pool (each
task carrying only its own layer's operands), and warm-start from the
persistent disk store on repeat invocations.

Layer shapes are evaluated at a *tile* scale: each matmul dimension is
clipped to ``cap`` (cycle-accurate simulation of a full 12544x64x576
im2col matmul is neither feasible nor needed -- utilization and energy
per MAC are properties of the tile).  Operands are seeded per layer, so
results are reproducible across processes and machines; the
``output_digest`` column is a canonical content hash of the simulated
outputs, which is what the determinism and warm-cache gates compare.
"""

from __future__ import annotations

import csv
import json
import os
import time
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..core import Bounds, matmul_spec
from ..core.balancing import LoadBalancingScheme
from ..core.dataflow import output_stationary
from ..core.sparsity import SparsityStructure, csr_b_matrix
from .cache import CompileCache
from .engine import EngineReport, evaluate_sweep

#: Default tile clip for each matmul dimension.
DEFAULT_CAP = 8

#: Default operand seed.
DEFAULT_SEED = 7


class SuiteError(Exception):
    """A workload table or suite configuration is invalid.

    Raised with a single human-readable message carrying the file and
    row context; the CLI prints it and exits 2 instead of surfacing a
    traceback for what is a user-input problem."""


class SuiteCase:
    """One workload of a suite: a named matmul tile plus its operands.

    ``info`` carries workload-level figures (full-layer MACs, operand
    densities) that ride along into the result rows untouched.
    """

    def __init__(
        self,
        name: str,
        bounds: Bounds,
        tensors: Mapping[str, np.ndarray],
        info: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.bounds = bounds
        self.tensors = dict(tensors)
        self.info = dict(info or {})

    def __repr__(self) -> str:
        dims = {name: self.bounds.size(name) for name in self.bounds.names()}
        return f"SuiteCase({self.name!r}, {dims})"


class Suite:
    """A named workload table bound to one accelerator configuration."""

    def __init__(
        self,
        name: str,
        spec,
        cases: List[SuiteCase],
        sparsity: SparsityStructure,
        sparsity_name: str,
        element_bits: int = 32,
    ):
        self.name = name
        self.spec = spec
        self.cases = cases
        self.sparsity = sparsity
        self.sparsity_name = sparsity_name
        self.element_bits = element_bits
        self.transform = output_stationary()
        self.transform_name = "output-stationary"
        self.balancing = LoadBalancingScheme()
        self.balancing_name = "none"

    def tensor_table(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {case.name: case.tensors for case in self.cases}

    def candidates(self) -> List[Dict[str, object]]:
        return [
            {
                "name": case.name,
                "transform_name": self.transform_name,
                "transform": self.transform,
                "sparsity_name": self.sparsity_name,
                "sparsity": self.sparsity,
                "balancing_name": self.balancing_name,
                "balancing": self.balancing,
                "bounds": case.bounds,
                "tensors_key": case.name,
                "want_energy": True,
                "want_digest": True,
            }
            for case in self.cases
        ]


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------


def _tile_bounds(m: int, k: int, n: int, cap: int) -> Bounds:
    return Bounds({"i": min(m, cap), "j": min(n, cap), "k": min(k, cap)})


def _case_rng(seed: int, index: int) -> np.random.Generator:
    # Seeded per case, never shared: case order and worker scheduling
    # cannot perturb any operand.
    return np.random.default_rng([seed, index])


def _masked(rng: np.random.Generator, shape, density: float) -> np.ndarray:
    values = rng.integers(1, 5, shape)
    if density >= 1.0:
        return values
    return np.where(rng.random(shape) < density, values, 0)


def build_resnet50(cap: int = DEFAULT_CAP, seed: int = DEFAULT_SEED) -> Suite:
    """Every distinct ResNet-50 conv shape as a dense im2col matmul tile."""
    from ..workloads import resnet50_layers

    cases = []
    for index, layer in enumerate(resnet50_layers()):
        bounds = _tile_bounds(layer.matmul_m, layer.matmul_k, layer.matmul_n, cap)
        rng = _case_rng(seed, index)
        i, j, k = (bounds.size("i"), bounds.size("j"), bounds.size("k"))
        cases.append(
            SuiteCase(
                layer.name,
                bounds,
                {"A": rng.integers(1, 5, (i, k)), "B": rng.integers(1, 5, (k, j))},
                info={
                    "macs": layer.macs,
                    "matmul": (layer.matmul_m, layer.matmul_k, layer.matmul_n),
                },
            )
        )
    spec = matmul_spec()
    return Suite(
        "resnet50", spec, cases,
        sparsity=SparsityStructure(), sparsity_name="dense",
        element_bits=8,
    )


def build_alexnet(cap: int = DEFAULT_CAP, seed: int = DEFAULT_SEED) -> Suite:
    """Pruned AlexNet: weight/activation densities thin the operands and
    the design skips zero B columns (Listing 5's CSR-B sparsity)."""
    from ..workloads import alexnet_pruned_layers

    spec = matmul_spec()
    cases = []
    for index, layer in enumerate(alexnet_pruned_layers()):
        m = layer.output_size * layer.output_size
        k = layer.in_channels * layer.filter_size * layer.filter_size
        n = layer.out_channels
        bounds = _tile_bounds(m, k, n, cap)
        rng = _case_rng(seed, index)
        i, j, kk = (bounds.size("i"), bounds.size("j"), bounds.size("k"))
        cases.append(
            SuiteCase(
                layer.name,
                bounds,
                {
                    "A": _masked(rng, (i, kk), layer.activation_density),
                    "B": _masked(rng, (kk, j), layer.weight_density),
                },
                info={
                    "macs": layer.effective_macs,
                    "weight_density": layer.weight_density,
                    "activation_density": layer.activation_density,
                },
            )
        )
    return Suite(
        "alexnet", spec, cases,
        sparsity=csr_b_matrix(spec), sparsity_name="B-csr",
        element_bits=8,
    )


def build_suitesparse(cap: int = DEFAULT_CAP, seed: int = DEFAULT_SEED) -> Suite:
    """The SuiteSparse-like registry as A (dense) x B (sparse) tiles."""
    from ..workloads import info as matrix_info
    from ..workloads import matrix_names, synthesize

    spec = matmul_spec()
    cases = []
    for index, name in enumerate(matrix_names()):
        matrix = synthesize(name, max_rows=cap, seed=seed + index)
        dense_b = matrix.to_dense()
        rows, cols = dense_b.shape
        rng = _case_rng(seed, index)
        bounds = Bounds({"i": rows, "j": cols, "k": rows})
        meta = matrix_info(name)
        cases.append(
            SuiteCase(
                name,
                bounds,
                {"A": rng.integers(1, 5, (rows, rows)), "B": dense_b},
                info={
                    "density": round(meta.nnz / (meta.rows * meta.rows), 6),
                    "class": meta.kind,
                    "nnz": int(np.count_nonzero(dense_b)),
                },
            )
        )
    return Suite(
        "suitesparse", spec, cases,
        sparsity=csr_b_matrix(spec), sparsity_name="B-csr",
        element_bits=32,
    )


# ---------------------------------------------------------------------------
# User workload tables (JSON / CSV)
# ---------------------------------------------------------------------------

#: Columns every workload-table row must provide.
REQUIRED_COLUMNS = ("name", "m", "k", "n")

#: Optional per-row operand densities, both defaulting to 1.0 (dense).
DENSITY_COLUMNS = ("a_density", "b_density")


def _parse_dim(raw: object, column: str, context: str) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise SuiteError(
            f"{context}: column {column!r} must be an integer, got {raw!r}"
        ) from None
    if isinstance(raw, float) and raw != value:
        raise SuiteError(
            f"{context}: column {column!r} must be an integer, got {raw!r}"
        )
    if value < 1:
        raise SuiteError(
            f"{context}: column {column!r} must be positive, got {value}"
        )
    return value


def _parse_density(raw: object, column: str, context: str) -> float:
    if raw is None or raw == "":
        return 1.0
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise SuiteError(
            f"{context}: column {column!r} must be a number in [0, 1],"
            f" got {raw!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise SuiteError(
            f"{context}: column {column!r} must be within [0, 1], got {value}"
        )
    return value


def _parse_table_row(row: Mapping[str, object], context: str) -> Dict[str, object]:
    if not isinstance(row, Mapping):
        raise SuiteError(f"{context}: expected an object, got {type(row).__name__}")
    if row.get("name") not in (None, ""):
        context = f"{context} ({str(row['name'])!r})"
    missing = [col for col in REQUIRED_COLUMNS if row.get(col) in (None, "")]
    if missing:
        raise SuiteError(
            f"{context}: missing required column(s) {', '.join(missing)}"
            f" (need {', '.join(REQUIRED_COLUMNS)})"
        )
    name = str(row["name"])
    parsed: Dict[str, object] = {"name": name}
    for column in ("m", "k", "n"):
        parsed[column] = _parse_dim(row[column], column, context)
    for column in DENSITY_COLUMNS:
        parsed[column] = _parse_density(row.get(column), column, context)
    return parsed


def _read_table_json(path: str) -> Dict[str, object]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as err:
        raise SuiteError(f"{path}: cannot read workload table: {err}") from None
    except ValueError as err:
        raise SuiteError(f"{path}: malformed JSON: {err}") from None
    if isinstance(payload, list):
        payload = {"layers": payload}
    if not isinstance(payload, dict):
        raise SuiteError(
            f"{path}: workload table must be a JSON array of rows or an"
            " object with a 'layers' array"
        )
    if not isinstance(payload.get("layers"), list):
        raise SuiteError(f"{path}: workload table needs a 'layers' array")
    return payload


def _read_table_csv(path: str) -> Dict[str, object]:
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            fields = reader.fieldnames
            if fields is None:
                raise SuiteError(f"{path}: empty CSV workload table")
            missing = [col for col in REQUIRED_COLUMNS if col not in fields]
            if missing:
                raise SuiteError(
                    f"{path}: CSV header is missing column(s)"
                    f" {', '.join(missing)} (need {', '.join(REQUIRED_COLUMNS)})"
                )
            layers = [dict(row) for row in reader]
    except OSError as err:
        raise SuiteError(f"{path}: cannot read workload table: {err}") from None
    except csv.Error as err:
        raise SuiteError(f"{path}: malformed CSV: {err}") from None
    return {"layers": layers}


def read_workload_table(path: str) -> Dict[str, object]:
    """Read a workload table file into its parsed payload form.

    Returns the ``{"layers": [...], ...}`` dict that
    :func:`build_table_suite` accepts, with the file's basename folded
    in as the default suite ``name``.  This is what ``repro sweep
    --server`` ships inline in a request body -- the daemon never needs
    filesystem access to the client's table.
    """
    if not os.path.exists(path):
        raise SuiteError(f"{path}: no such workload table")
    if path.endswith(".csv"):
        payload = _read_table_csv(path)
    else:
        payload = _read_table_json(path)
    payload.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    return payload


def load_workload_table(
    path: str, cap: int = DEFAULT_CAP, seed: int = DEFAULT_SEED
) -> Suite:
    """Build a :class:`Suite` from a user workload table on disk.

    The table is a JSON array (or an object with ``layers`` plus
    optional ``name`` / ``element_bits`` / ``sparsity`` fields) or a
    CSV with header columns ``name,m,k,n[,a_density][,b_density]``.
    Each row is one layer-shaped matmul ``m x k x n`` with optional
    operand densities in ``[0, 1]`` (default dense).  The suite's
    sparsity wiring defaults to Listing 5's CSR-B structure when any
    row thins its B operand, else dense; an explicit ``sparsity`` of
    ``"dense"`` or ``"b-csr"`` overrides.

    Every malformed input -- unreadable file, bad JSON/CSV, missing
    columns, non-positive dims, out-of-range densities -- raises a
    single :class:`SuiteError` naming the file and row.
    """
    payload = read_workload_table(path)
    return build_table_suite(payload, cap=cap, seed=seed, source=path)


def build_table_suite(
    payload: object,
    cap: int = DEFAULT_CAP,
    seed: int = DEFAULT_SEED,
    source: str = "workload table",
    default_name: str = "table",
) -> Suite:
    """Build a :class:`Suite` from an already-parsed workload table.

    ``payload`` follows the JSON table shape: a list of rows or an
    object with a ``layers`` array plus optional ``name`` /
    ``element_bits`` / ``sparsity``.  This is the declarative entry
    the evaluation service uses for inline tables shipped in a request
    body; :func:`load_workload_table` is the file-path wrapper.
    ``source`` labels every :class:`SuiteError` so the caller's context
    (file path, ``"request"``) survives into the message.
    """
    if isinstance(payload, list):
        payload = {"layers": payload}
    if not isinstance(payload, dict) or not isinstance(
        payload.get("layers"), list
    ):
        raise SuiteError(
            f"{source}: workload table must be an array of rows or an"
            " object with a 'layers' array"
        )

    rows = [
        _parse_table_row(row, f"{source}: row {index + 1}")
        for index, row in enumerate(payload["layers"])
    ]
    if not rows:
        raise SuiteError(f"{source}: workload table has no layers")
    seen: Dict[str, int] = {}
    for index, row in enumerate(rows):
        first = seen.setdefault(str(row["name"]), index)
        if first != index:
            raise SuiteError(
                f"{source}: row {index + 1}: duplicate layer name"
                f" {row['name']!r} (first used in row {first + 1})"
            )

    table_name = str(payload.get("name") or default_name)
    element_bits = payload.get("element_bits", 8)
    if not isinstance(element_bits, int) or element_bits < 1:
        raise SuiteError(
            f"{source}: element_bits must be a positive integer,"
            f" got {element_bits!r}"
        )

    spec = matmul_spec()
    cases = []
    for index, row in enumerate(rows):
        bounds = _tile_bounds(row["m"], row["k"], row["n"], cap)
        rng = _case_rng(seed, index)
        i, j, k = (bounds.size("i"), bounds.size("j"), bounds.size("k"))
        cases.append(
            SuiteCase(
                str(row["name"]),
                bounds,
                {
                    "A": _masked(rng, (i, k), row["a_density"]),
                    "B": _masked(rng, (k, j), row["b_density"]),
                },
                info={
                    "matmul": (row["m"], row["k"], row["n"]),
                    "a_density": row["a_density"],
                    "b_density": row["b_density"],
                },
            )
        )

    sparse = any(row["b_density"] < 1.0 for row in rows)
    sparsity_name = payload.get("sparsity", "b-csr" if sparse else "dense")
    if sparsity_name == "dense":
        sparsity = SparsityStructure()
    elif sparsity_name == "b-csr":
        sparsity = csr_b_matrix(spec)
    else:
        raise SuiteError(
            f"{source}: unknown sparsity {sparsity_name!r}"
            " (choose 'dense' or 'b-csr')"
        )
    return Suite(
        table_name, spec, cases,
        sparsity=sparsity, sparsity_name=str(sparsity_name),
        element_bits=element_bits,
    )


SUITES: Dict[str, Callable[..., Suite]] = {
    "resnet50": build_resnet50,
    "alexnet": build_alexnet,
    "suitesparse": build_suitesparse,
}


def suite_names() -> List[str]:
    return sorted(SUITES)


def is_table_path(name: str) -> bool:
    """Whether a ``repro sweep`` argument names a workload-table file
    rather than a registered suite."""
    return (
        name.endswith((".json", ".csv"))
        or os.sep in name
        or (os.altsep is not None and os.altsep in name)
    )


def build_suite(name: str, cap: int = DEFAULT_CAP, seed: int = DEFAULT_SEED) -> Suite:
    """A registered suite by name, or a user workload table by path."""
    if is_table_path(name):
        return load_workload_table(name, cap=cap, seed=seed)
    try:
        builder = SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())},"
            " or a path to a workload table (.json/.csv)"
        ) from None
    return builder(cap=cap, seed=seed)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class SuiteResult:
    """Per-layer rows plus suite aggregates and the engine report."""

    def __init__(
        self,
        suite: Suite,
        rows: List[Dict[str, object]],
        report: EngineReport,
        elapsed_s: float,
        cache: Optional[CompileCache],
    ):
        self.suite = suite
        self.rows = rows
        self.report = report
        self.elapsed_s = elapsed_s
        self.cache = cache

    # -- aggregates ------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(int(row["cycles"]) for row in self.rows)

    @property
    def total_energy_pj(self) -> float:
        return sum(float(row.get("energy_pj", 0.0)) for row in self.rows)

    @property
    def total_area_um2(self) -> float:
        # One accelerator serves the whole suite: its area is the
        # largest tile configuration's, not the sum over layers.
        return max((float(row["area_um2"]) for row in self.rows), default=0.0)

    @property
    def mean_utilization(self) -> float:
        if not self.rows:
            return 0.0
        return sum(float(row["utilization"]) for row in self.rows) / len(self.rows)

    def aggregates(self) -> Dict[str, object]:
        return {
            "cases": len(self.rows),
            "total_cycles": self.total_cycles,
            "mean_utilization": round(self.mean_utilization, 4),
            "area_um2": self.total_area_um2,
            "total_energy_pj": round(self.total_energy_pj, 3),
            "elapsed_s": round(self.elapsed_s, 4),
        }

    # -- presentation ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "suite": self.suite.name,
            "transform": self.suite.transform_name,
            "sparsity": self.suite.sparsity_name,
            "rows": self.rows,
            "aggregates": self.aggregates(),
            "engine": self.report.as_dict(),
        }
        if self.cache is not None and self.cache.store is not None:
            payload["store"] = self.cache.store.stats.as_dict()
        return payload

    def table(self) -> str:
        return format_rows(self.rows)


def format_rows(rows: List[Dict[str, object]]) -> str:
    """The per-layer text table for a list of suite result rows.

    Shared by the in-process :class:`SuiteResult` view and the serve
    client, which re-renders rows streamed over the wire.
    """
    headers = ("case", "bounds", "cycles", "util", "energy/pJ", "digest")
    body = []
    for row in rows:
        bounds = row.get("bounds_str", "")
        body.append(
            (
                str(row["name"]),
                str(bounds),
                str(row["cycles"]),
                f"{float(row['utilization']):.3f}",
                f"{float(row.get('energy_pj', 0.0)):.1f}",
                str(row.get("output_digest", ""))[:12],
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


def evaluate_suite(
    suite: Suite,
    jobs: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    on_row: Optional[Callable[[int, Dict[str, object]], None]] = None,
    pool=None,
) -> SuiteResult:
    """Run every case of ``suite`` through the sweep engine.

    ``skip_illegal`` is off: a suite layer that fails to compile is a
    configuration bug, not a design-space point to prune.

    ``on_row(index, row)`` streams each finished per-layer row (case
    info and bounds merged in, identical to the row in the returned
    result) in case order before the call returns -- the serve daemon's
    streaming hook.  ``pool`` routes the fan-out through a long-lived
    :class:`~repro.exec.engine.ResidentPool` instead of one opened for
    this call.
    """
    candidates = suite.candidates()
    rows: List[Optional[Dict[str, object]]] = [None] * len(candidates)

    def _finish_row(index: int, outcome: Dict[str, object]) -> None:
        case = suite.cases[index]
        row = dict(outcome)
        row.update(case.info)
        row["bounds_str"] = "x".join(
            str(case.bounds.size(name)) for name in ("i", "j", "k")
        )
        rows[index] = row
        if on_row is not None:
            on_row(index, row)

    started = time.perf_counter()
    _outcomes, report = evaluate_sweep(
        suite.spec,
        None,
        None,
        candidates,
        element_bits=suite.element_bits,
        skip_illegal=False,
        jobs=jobs,
        cache=cache,
        tensor_table=suite.tensor_table(),
        on_outcome=_finish_row,
        pool=pool,
    )
    elapsed = time.perf_counter() - started
    return SuiteResult(suite, list(rows), report, elapsed, cache)
