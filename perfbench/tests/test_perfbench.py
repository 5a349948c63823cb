"""The benchmark's own tests: smoke runs, declared metric names, wrapper
restoration and the correctness gate."""

import json
import random
import resource
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from common import BENCH_DIR, REFERENCE_S, ROOT, HostClock, declared
from spans import Patches, Recorder, install_engine, install_halving, install_rtl


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["tune", "serve", "verify"])
def test_tiny_run_emits_declared_metrics(workload, trace):
    code, result, proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", trace, "--tiny",
    )
    assert code == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared(kind)]
    units = {m["name"]: m["unit"] for m in declared(kind)}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_default_seed_matches_every_golden():
    code, result, proc = run_bench("--workload", "tune", "--seed", "7", "--seconds", "0.1")
    assert code == 0, proc.stdout + proc.stderr
    # The warm-up and the one timed pass each check all three suites.
    assert result["correct"] is True and result["attempted"] == 6


def copy_bench(tmp_path):
    """A copy of the benchmark's files and BENCHMARK.json under ``tmp_path``."""
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("tests", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")


def run_copy(tmp_path, *args, timeout=60):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=timeout,
    )


def test_wrong_golden_fails_the_run(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text())
    goldens["tune"]["suites"]["alexnet"]["total_cycles"] += 1
    path.write_text(json.dumps(goldens))
    proc = run_copy(
        tmp_path, "--workload", "tune", "--seconds", "0.5", "--tiny", timeout=300
    )
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_run_outside_a_checkout_prints_no_result(tmp_path):
    copy_bench(tmp_path)
    proc = run_copy(
        tmp_path, "--workload", "tune", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_restores_every_patched_attribute():
    import tune
    import verify

    with Patches() as probe:
        recorder = Recorder()
        install_engine(probe, recorder)
        install_halving(probe, recorder)
        install_rtl(probe, recorder)
        targets = [(owner, attr) for owner, attr, _ in probe.saved]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}
    assert len(originals) == len(targets) >= 10
    goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
    for workload in (tune, verify):
        recorder, metrics, outcome = workload.run(3, 0.1, True, goldens, True)
        assert not outcome.failures
        assert recorder.span_count() > 0
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_host_clock_scales_each_segment_by_its_reference_times(monkeypatch):
    nominal = REFERENCE_S["mixed"]
    references = iter([nominal, 3 * nominal, 2 * nominal])
    monkeypatch.setattr(HostClock, "_reference", lambda self: next(references))
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr("common.time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    clock = HostClock("mixed")
    clock.start()
    clock.mark()
    # 1 s between references of 1x and 3x, then 2 s between 3x and 2x.
    assert clock.stop() == pytest.approx((3.0, 1.0 / 2.0 + 2.0 / 2.5))


def test_self_time_excludes_children_and_recursion():
    recorder = Recorder()
    outer = recorder.open("a")
    inner = recorder.open("b")
    nested = recorder.open("a")
    recorder.close(nested)
    recorder.close(inner)
    recorder.close(outer)
    spans = recorder._lists[0]
    spans[0][1:3] = [0.0, 10.0]
    spans[1][1:3] = [1.0, 7.0]
    spans[2][1:3] = [2.0, 4.0]
    layers = recorder.layers()
    assert layers["a"] == {"calls": 2, "inclusive_s": 10.0, "self_s": 6.0}
    assert layers["b"] == {"calls": 1, "inclusive_s": 6.0, "self_s": 4.0}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="resident pool workers keep every attached shared-memory segment open"
    " (repro.exec.shm pins them for the life of the process), so a long-running"
    " daemon runs out of file descriptors; serve stays out of BENCHMARK.json"
    " until this passes",
)
def test_serve_block_survives_a_low_descriptor_limit(tmp_path):
    from serve import Daemon, make_block, run_block

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, hard), hard))
    try:
        daemon = Daemon(str(tmp_path))
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    try:
        results = run_block(daemon, make_block(random.Random(1)))
    finally:
        daemon.stop()
    errors = [r["terminal"].get("message") for r in results if r["terminal"]["type"] != "result"]
    assert errors == []
