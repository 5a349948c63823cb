"""The ``serve`` workload: a closed loop of clients against ``repro serve``.

The daemon runs as a subprocess, ``python -m repro serve --port 0 --jobs
2 --cache-dir <fresh dir>``, so requests cross the socket, the resident
worker pool and the disk store.  Two clients each send their next
request only when the previous one has ended.  Requests are plain
``sweep``s that arrive in blocks of 36: four operand seeds drawn fresh
for the block, times the three suites, times three repeats, shuffled.
So a third of each block is first-seen (full simulation) and the rest
are repeats (cache lookups, or riders on an in-flight evaluation).  One
block is an untimed warm-up.  One operation is one request, timed from
sending it to its terminal message.  Every served row's cycles and
output digest must equal an untimed in-process ``evaluate_suite`` of the
same (suite, seed).
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Tuple

from common import (
    OUT, SERVE_LAYER, SETUP_SAMPLES, SUITES, HostClock, Metrics, Outcome, add_time_metrics,
    child_env, declared, median, peak_rss_mb, percentile,
)
from spans import Recorder, layer_metrics

POLICY = (
    "daemon with --jobs 2 and a fresh --cache-dir per run; closed loop of 2"
    " clients; blocks of 36 requests (4 fresh seeds x 3 suites x 3 repeats);"
    " one untimed warm-up block per run"
)

#: The ``HostClock`` reference loop for the blocks and daemon start-up;
#: first-seen requests run the array-heavy simulation in the daemon.
REFERENCE_MIX = "mixed"
CAP = 8
JOBS = 2
CLIENTS = 2
BLOCK_SEEDS = 4
REPEATS = 3

#: Daemon metrics the traced run reports as per-block deltas.
DAEMON_COUNTERS = (
    "exec.store.hits",
    "exec.store.misses",
    "exec.store.writes",
    "exec.store.bytes_read",
    "exec.store.bytes_written",
    "exec.cache.disk_hits",
    "serve.evaluations",
    "serve.dedup_hits",
)


class Daemon:
    """One ``repro serve`` subprocess, ready once it prints "listening"."""

    def __init__(self, cache_dir: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(JOBS), "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.address = line.split("listening on", 1)[1].strip()

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.address, timeout=120.0)

    def metrics(self) -> Dict[str, object]:
        reply = list(self.client().request({"type": "metrics"}))[-1]
        return reply["metrics"]

    def stop(self) -> None:
        """Ask the daemon to drain and exit; kill it if it does not."""
        if self.proc.poll() is not None:
            return
        try:
            list(self.client().request({"type": "shutdown"}))
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def make_block(rng: random.Random):
    seeds = [rng.randrange(2**31) for _ in range(BLOCK_SEEDS)]
    requests = [(suite, seed) for suite in SUITES for seed in seeds] * REPEATS
    rng.shuffle(requests)
    return requests


def run_block(daemon: Daemon, requests, recorder=None):
    """Serve one block through the closed loop; returns per-request dicts
    in request order."""
    results: List[Dict[str, object]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        connection = daemon.client()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            suite, seed = requests[index]
            span = recorder.open("serve.request") if recorder else None
            started = time.perf_counter()
            first_row = None
            rows, terminal = {}, None
            try:
                for message in connection.request(
                    {"type": "sweep", "suite": suite, "seed": seed, "cap": CAP}
                ):
                    if message["type"] == "row":
                        if first_row is None:
                            first_row = time.perf_counter() - started
                        rows[message["index"]] = message["row"]
                    elif message["type"] != "trace":
                        terminal = message
            except Exception as error:  # noqa: BLE001 -- a failed request is counted
                terminal = {"type": "error", "message": repr(error)}
            latency = time.perf_counter() - started
            if span is not None:
                recorder.close(span)
            results[index] = {
                "suite": suite, "seed": seed, "latency": latency,
                "first_row": first_row, "rows": rows, "terminal": terminal,
            }

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def oracle_rows(suite: str, seeds) -> Dict[int, List[tuple]]:
    """(cycles, output digest) per row of an in-process ``evaluate_suite``
    for each seed, sharing one compile cache."""
    from repro.exec.cache import CompileCache
    from repro.exec.suite import build_suite, evaluate_suite

    cache = CompileCache()
    expected = {}
    for seed in seeds:
        result = evaluate_suite(build_suite(suite, cap=CAP, seed=seed), jobs=1, cache=cache)
        expected[seed] = [(row["cycles"], row["output_digest"]) for row in result.rows]
    return expected


def check_served(served, outcome: Outcome) -> None:
    """Compare every served row with an in-process ``evaluate_suite`` of
    the same (suite, seed).  The daemon has stopped by now, so the
    reference runs on two spawned processes, each taking half of every
    suite's seeds."""
    seeds: Dict[str, List[int]] = {}
    for response in served:
        listed = seeds.setdefault(response["suite"], [])
        if response["seed"] not in listed:
            listed.append(response["seed"])
    tasks = [
        (suite, listed[half::2]) for suite, listed in seeds.items() for half in (0, 1)
    ]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [
            (suite, pool.submit(oracle_rows, suite, chunk)) for suite, chunk in tasks if chunk
        ]
        expected = {}
        for suite, future in futures:
            for seed, rows in future.result().items():
                expected[suite, seed] = rows
    for response in served:
        key = (response["suite"], response["seed"])
        rows = response["rows"]
        got = [(rows[i]["cycles"], rows[i]["output_digest"]) for i in sorted(rows)]
        terminal = response["terminal"] or {}
        outcome.check(
            terminal.get("type") == "result" and got == expected[key],
            f"{key[0]} seed {key[1]}: {terminal.get('type')} {terminal.get('message', '')}"
            f" rows {len(got)} vs {len(expected[key])}, equal={got == expected[key]}",
        )


def _sum_latency(snapshot) -> float:
    return float(snapshot.get("serve.latency_s", {}).get("sum", 0.0))


def run(seed: int, seconds: float, trace: bool, goldens: Dict, tiny: bool):
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="serve-", dir=OUT)
    setups: List[float] = []
    served: List[Dict[str, object]] = []
    outcome = Outcome()
    recorder = Recorder()
    clock = HostClock(REFERENCE_MIX)
    daemon = None
    try:
        samples = 1 if (trace or tiny) else SETUP_SAMPLES
        for _ in range(samples):
            if daemon is not None:
                daemon.stop()
            clock.start()
            daemon = Daemon(tempfile.mkdtemp(prefix="store-", dir=work))
            setups.append(clock.stop()[1])
        make = (lambda: make_block(rng)[:6]) if tiny else (lambda: make_block(rng))
        warm = run_block(daemon, make())
        served.extend(warm)

        latencies: List[Tuple[float, float]] = []
        first_rows: List[float] = []
        block_times = {False: [], True: []}
        deltas = {name: 0.0 for name in DAEMON_COUNTERS}
        transport = 0.0
        started = time.perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            before = daemon.metrics() if traced else None
            clock.start()
            results = run_block(daemon, make(), recorder if traced else None)
            wall, ref = clock.stop()
            block_times[traced].append((wall, ref))
            served.extend(results)
            if traced:
                after = daemon.metrics()
                for name in DAEMON_COUNTERS:
                    deltas[name] += after.get(name, 0) - before.get(name, 0)
                server_s = _sum_latency(after) - _sum_latency(before)
                transport += sum(r["latency"] for r in results) - server_s
                first_rows.extend(r["first_row"] for r in results if r["first_row"] is not None)
            else:
                latencies.extend((r["latency"], r["latency"] * ref / wall) for r in results)
            index += 1
            if time.perf_counter() - started >= seconds and (not trace or index >= 2):
                break
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
    # The daemon tree has been reaped; the reference processes come next.
    daemon_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    check_served(served, outcome)

    metrics = Metrics()
    if trace:
        blocks = len(block_times[True])
        extra = {name: (value / blocks, "count") for name, value in deltas.items()}
        extra["exec.store.bytes_read"] = (deltas["exec.store.bytes_read"] / blocks, "B")
        extra["exec.store.bytes_written"] = (deltas["exec.store.bytes_written"] / blocks, "B")
        extra["serve.first_row_ms_p50"] = (percentile(first_rows, 50) * 1e3, "ms")
        extra["serve.first_row_ms_p90"] = (percentile(first_rows, 90) * 1e3, "ms")
        extra["serve.transport_s"] = (transport / blocks, "s")
        extra["trace.overhead_frac"] = (
            median(t[1] for t in block_times[True])
            / median(t[1] for t in block_times[False]) - 1.0, "ratio"
        )
        metrics.entries.update(
            layer_metrics(recorder, declared("per_layer") + SERVE_LAYER, blocks, extra)
        )
        return recorder, metrics, outcome
    metrics.add("setup_s", median(setups), "s", len(setups))
    metrics.add("peak_rss_mb", daemon_rss, "MiB", 1)
    busy = tuple(sum(t[i] for t in block_times[False]) for i in (0, 1))
    add_time_metrics(metrics, latencies, clock, busy)
    return None, metrics, outcome
