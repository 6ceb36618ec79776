"""The repository's benchmark: `repro serve` on the ACS workload, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Each invocation samples an ACS-like dataset from ``--seed`` (not timed),
writes it as CSV, and starts ``python -m repro.cli serve`` on it at the
paper's parameters (k=50, γ=4, ε0=1, ω=9) with a budget journal.  It then
drives one workload over HTTP for ``--seconds`` seconds, checks every
response, and prints one line per metric followed by a JSON result line.

``--trace 0`` reports the end-to-end metrics.  The server is launched
``SETUP_LAUNCHES`` times; ``setup_s`` is the median launch-to-first-release
time, and the last launch runs the workload.

``--trace 1`` reports the per-layer metrics: one untraced launch runs the
workload for the baseline latency, then the traced launcher
(``launch_traced.py``) runs it again with every layer's entry points timed.

The exit code is 0 when every check passed, 1 when an output check failed,
2 when the checkout has no program to measure, and 3 when the run is
invalid because the load generator itself fell behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
from pathlib import Path

from layers import LAYER_METRICS, layer_metrics, percentile, read_spans, setup_spans
from loadgen import (
    GENERATE, NUM_TENANTS, READS, WORKLOADS, Client, Op, Run, Tenants, execute, schedule,
)
from server import ServerProcess, host_cpu_ticks, serve_argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RAW_RECORDS = 170_000  # ≈142k clean records, ≈78k seeds: k=50 releases ~all
PAPER_CONFIG = {"k": 50, "gamma": 4.0, "epsilon0": 1.0, "omega": 9}
SETUP_LAUNCHES = 3
CANARY_ROWS = 16
SESSION_BUDGET = {"max_rows": 1_000_000_000}
MIN_TAIL_SAMPLES = 10  # samples beyond a reported percentile
CHUNK_TRACES = 40  # /trace/<id> fetches for engine.chunks_per_request


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _declared_metrics(kind: str) -> set[str] | None:
    """The metric names BENCHMARK.json declares under ``kind``, if it exists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {metric["name"] for metric in json.loads(path.read_text())[kind]}


def make_inputs(seed: int, directory: Path) -> dict:
    """The generated CSV, metadata and config the server is started on."""
    from repro.datasets.acs import load_acs
    from repro.datasets.metadata import write_metadata

    dataset = load_acs(num_records=RAW_RECORDS, seed=seed)
    inputs = {
        "csv": directory / "acs.csv",
        "metadata": directory / "metadata.json",
        "config": directory / "config.json",
    }
    dataset.to_csv(inputs["csv"])
    write_metadata(dataset.schema, inputs["metadata"])
    inputs["config"].write_text(json.dumps(PAPER_CONFIG))
    return inputs


def stamp(args) -> dict:
    """What the numbers were measured on."""
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "host": socket.gethostname(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Launch:
    """One server launch: sessions created and each tenant's first release."""

    def __init__(self, inputs: dict, workload, workdir: Path, span_dir: Path | None = None):
        workdir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.server = ServerProcess(
            serve_argv(inputs, workload.server_workers, span_dir), workdir, env
        )
        try:
            self.client = Client(self.server.port)
            self.tenants = Tenants([])
            self.canaries = []
            for tenant in range(NUM_TENANTS):
                info = self.client.json(
                    "POST", "/sessions",
                    {"model": "acs", "tenant": f"t{tenant:02d}", "budget": SESSION_BUDGET},
                    expect=201,
                )
                self.tenants.sessions.append(info["session_id"])
                self.canaries.append(
                    execute(self.client, self.tenants, Op(GENERATE, tenant, rows=CANARY_ROWS))
                )
                if tenant == 0:
                    first = self.canaries[0]
                    self.setup_s = first.end - self.server.launched_at
                    self.first_request_s = first.end - first.send
        except BaseException:
            self.server.stop()
            raise
        self.ops = []
        self.window = (0.0, 0.0)

    def drive(self, workload, seed: int, seconds: float) -> None:
        run = Run(self.client, self.tenants, workload, schedule(workload, seed, seconds))
        cpu, rss = self.server.cpu_seconds(), self.server.rss_mb()
        ticks, stolen = host_cpu_ticks()
        self.ops = run.run(seconds)
        self.window = (run.start, max(op.end for op in self.ops))
        ticks_after, stolen_after = host_cpu_ticks()
        self.steal_share = (stolen_after - stolen) / max(1, ticks_after - ticks)
        self.cpu_s = self.server.cpu_seconds() - cpu
        self.rss_growth_mb = self.server.rss_mb() - rss
        self.peak_rss_mb = self.server.peak_rss_mb()

    def check(self) -> list[str]:
        """Every output check; call before :meth:`stop`."""
        # `checks` imports repro, which is importable once main() set the path.
        from checks import check_op, reconcile_budgets

        problems = []
        received = [0] * len(self.tenants)
        for op in self.canaries + self.ops:
            problem = check_op(op)
            if problem is not None:
                problems.append(problem)
            elif op.kind == GENERATE:
                received[op.tenant] += op.rows
        problems += reconcile_budgets(self.client, self.tenants, received)
        return problems

    def canary_digests(self) -> list[str | None]:
        from checks import rows_digest

        return [rows_digest(op) if op.ok else None for op in self.canaries]

    def stop(self) -> None:
        self.server.stop()


def end_to_end(launch: Launch, workload, setup_times: list[float]) -> dict:
    """Every end-to-end figure: name -> (value, unit, what it was taken over)."""
    ops = launch.ops
    generates = [op for op in ops if op.kind == GENERATE]
    latencies = [op.latency * 1000 for op in generates if op.ok]
    reads = [op.latency * 1000 for op in ops if op.kind in READS and op.ok]
    start, end = launch.window
    within = sum(1 for op in generates if op.ok and op.latency * 1000 <= workload.slo_ms)
    released = sum(op.rows for op in generates if op.ok)
    samples = f"n={len(latencies)}"
    figures = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} launches"),
        # CPU time is not charged while the hypervisor runs other guests, so
        # this cost holds steadier on a shared host than any wall-clock rate.
        "cpu_ms_per_krow": (
            # A run that released nothing has failed its output checks.
            launch.cpu_s * 1e6 / max(released, 1), "ms",
            f"server and workers, {released} rows, {launch.cpu_s:.2f} CPU-s",
        ),
    }
    if workload.generators:
        # In the open loop the rate is the schedule's, not the server's.
        figures["rows_per_s"] = (released / (end - start), "rows/s", samples)
    figures["latency_p50_ms"] = (percentile(latencies, 50), "ms", samples)
    # A percentile is reported only with enough samples beyond it.
    tail = workload.tail_percentile
    if len(latencies) * (100 - tail) / 100 >= MIN_TAIL_SAMPLES:
        figures["latency_tail_ms"] = (percentile(latencies, tail), "ms", f"p{tail:g}, {samples}")
    if reads:
        figures["read_latency_p50_ms"] = (percentile(reads, 50), "ms", f"n={len(reads)}")
    return figures | {
        "peak_rss_mb": (launch.peak_rss_mb, "MB", "server and workers"),
        "slo_attainment": (
            within / len(generates), "share",
            f"within {workload.slo_ms:g} ms, n={len(generates)}",
        ),
        "error_rate": (
            sum(1 for op in ops if not op.ok) / len(ops), "share", f"n={len(ops)} ops"
        ),
    }


def lag_p99_ms(launch: Launch) -> float:
    return percentile([op.lag * 1000 for op in launch.ops], 99)


def traced_extras(launch: Launch) -> dict:
    """What the traced run reads from the server's own endpoints."""
    health = launch.client.json("GET", "/healthz")
    restarts = sum(
        model["worker_restarts"] for model in health["engines"]["models"].values()
    )
    request_ids = [
        op.header["request_id"] for op in launch.ops if op.kind == GENERATE and op.ok
    ][-CHUNK_TRACES:]
    chunks = []
    for request_id in request_ids:
        trace = launch.client.json("GET", f"/trace/{request_id}")
        chunks.append(sum(1 for span in trace["spans"] if span["name"] == "engine_chunk"))
    return {
        "worker_restarts": restarts,
        "chunks_per_request": statistics.mean(chunks) if chunks else float("nan"),
    }


def main(argv: list[str] | None = None) -> int:
    # A terminated benchmark still stops its servers (see the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing", 2)
    sys.path.insert(0, str(SRC))  # repro, for the inputs and the checks
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
    workload = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    if workload.senders > cores:
        # The load generator never runs more threads than there are cores.
        workload = dataclasses.replace(
            workload, senders=cores, generators=min(workload.generators, cores)
        )
    tmp = ROOT / ".perfbench_tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    launches: list[Launch] = []
    try:
        return _measure(args, workload, tmp, launches)
    finally:
        for launch in launches:
            launch.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _measure(args, workload, tmp: Path, launches: list) -> int:
    record = stamp(args)
    print(f"perfbench {json.dumps(record)}")
    inputs = make_inputs(args.seed, tmp)

    def start(label: str, span_dir: Path | None = None) -> Launch:
        launch = Launch(inputs, workload, tmp / label, span_dir)
        launches.append(launch)
        return launch

    problems: list[str] = []
    probes = SETUP_LAUNCHES - 1 if args.trace == 0 else 0
    for index in range(probes):
        probe = start(f"probe{index}")
        problems += probe.check()
        probe.stop()
    main_launch = start("main")
    main_launch.drive(workload, args.seed, args.seconds)
    problems += main_launch.check()
    main_launch.stop()
    e2e = end_to_end(main_launch, workload, [launch.setup_s for launch in launches])
    lag = lag_p99_ms(main_launch)

    if args.trace:
        span_dir = tmp / "spans"
        span_dir.mkdir()
        traced = start("traced", span_dir)
        traced.drive(workload, args.seed, args.seconds)
        problems += traced.check()
        extras = traced_extras(traced)
        traced.stop()
        spans = read_spans(span_dir)
        load_s, fit_s = setup_spans(spans)
        released = sum(op.rows for op in traced.ops if op.kind == GENERATE and op.ok)
        extras.update(
            load_s=load_s,
            fit_s=fit_s,
            first_request_s=traced.first_request_s,
            cpu_s=traced.cpu_s,
            rss_growth_mb=traced.rss_growth_mb,
            released_rows=released,
            traced_cpu_ms_per_krow=end_to_end(traced, workload, [traced.setup_s])[
                "cpu_ms_per_krow"
            ][0],
            untraced_cpu_ms_per_krow=e2e["cpu_ms_per_krow"][0],
            lag_p99_ms=lag_p99_ms(traced),
        )
        kernel = json.loads((span_dir / "kernel.json").read_text())
        lag = max(lag, extras["lag_p99_ms"])

    digests = [launch.canary_digests() for launch in launches]
    for tenant, first in enumerate(digests[0]):
        if any(other[tenant] != first for other in digests[1:]):
            problems.append(f"tenant {tenant}'s first release differs between launches")

    attempted = sum(len(launch.canaries) + len(launch.ops) for launch in launches)
    failed = sum(
        1 for launch in launches for op in launch.canaries + launch.ops if not op.ok
    )
    print(f"{workload.name}  host_steal_share  {main_launch.steal_share:.4f}  "
          "(CPU time the hypervisor gave to other guests during the window)")
    print(f"{workload.name}  loadgen.lag_p99_ms  {lag:.3f} ms  "
          f"(limit {workload.slo_ms:g} ms)")
    if args.trace:
        values = layer_metrics(spans, traced.ops, traced.window, kernel, extras)
        figures = {}
        for name, (unit, moves) in LAYER_METRICS.items():
            # A layer the program no longer has reads 0, marked as such.
            measured = math.isfinite(values[name])
            figures[name] = (
                values[name] if measured else 0.0,
                unit,
                f"-> {moves}" if measured else "not measured: no spans for this layer",
            )
    else:
        figures = e2e
    gated = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if not args.trace and "latency_tail_ms" not in figures:
        print(f"{workload.name}  latency_tail_ms  not reported: fewer than "
              f"{MIN_TAIL_SAMPLES} samples beyond p{workload.tail_percentile:g}")
    for name, (value, unit, note) in figures.items():
        mark = "" if gated is None or name in gated else "  [printed, not gated]"
        print(f"{workload.name}  {name}  {value:.6g} {unit}  ({note}){mark}")
    if gated is not None and not gated <= set(figures):
        _fail(f"BENCHMARK.json declares metrics the run does not compute: "
              f"{sorted(gated - set(figures))}", 2)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _note) in figures.items()
        if gated is None or name in gated
    }
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if lag > workload.slo_ms:
        _fail(
            f"run invalid: the load generator ran {lag:.1f} ms late at p99, past "
            f"the {workload.slo_ms:g} ms latency limit, so its latencies measure "
            "the generator, not the server",
            3,
        )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
