"""Per-layer metrics of a traced run, computed from spans and client ops.

A span is ``{"name", "start", "end", ...}`` in ``time.monotonic()`` seconds.
A layer's self time is its span minus the part of that interval its child
spans cover.  Only spans that start inside the timed window count.

``LAYER_METRICS`` names every per-layer metric with the end-to-end metric it
should move and on which workloads; the report prints it beside each value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from loadgen import GENERATE, HEALTHZ

# The per-request bookkeeping of the service layer, which the 4,096-row bulk
# requests amortise.
_SERVICE_PATH = "interactive.latency_p50_ms, saturated.rows_per_s, cpu_ms_per_krow; not bulk"

_QUEUE_PATH = "saturated.latency_tail_ms, rows_per_s; ~0 on interactive"

# name -> (unit, the end-to-end metrics it should move, on which workloads)
LAYER_METRICS = {
    "http.self_ms_p50": ("ms", "interactive.latency_p50_ms"),
    "http.response_bytes_p50": ("bytes", "interactive.latency_p50_ms, bulk.rows_per_s"),
    "api.release_decode_ms_per_krow": ("ms", "bulk.rows_per_s, bulk.cpu_ms_per_krow"),
    "service.self_ms_p50": ("ms", _SERVICE_PATH),
    "session.reserve_ms_p50": ("ms", _SERVICE_PATH),
    "session.commit_ms_p50": ("ms", _SERVICE_PATH),
    "journal.append_ms_p50": ("ms", _SERVICE_PATH),
    "journal.appends_per_request": ("count", _SERVICE_PATH),
    "obs.metrics_text_ms_p50": ("ms", "interactive.read_latency_p50_ms, latency_tail_ms"),
    "service.healthz_ms_p50": ("ms", "interactive.read_latency_p50_ms, latency_tail_ms"),
    "scheduler.queue_wait_ms_p50": ("ms", _QUEUE_PATH),
    "scheduler.queue_wait_ms_p99": ("ms", _QUEUE_PATH),
    "scheduler.fold_factor": ("count", "saturated.rows_per_s; ~1 on interactive"),
    "engine_pool.checkout_ms_p50": ("ms", "all latency metrics"),
    "engine_pool.worker_restarts": ("count", "bulk.rows_per_s"),
    "engine.job_ms_p50": ("ms", "interactive.latency_p50_ms, bulk.rows_per_s"),
    "engine.self_ms_p50": ("ms", "bulk.rows_per_s (dispatch, IPC, merge)"),
    "engine.chunks_per_request": ("count", "interactive.latency_p50_ms"),
    "engine.yield": ("share", "saturated.rows_per_s, interactive.latency_p50_ms; ~0.9 on bulk"),
    "mechanism.propose_batch_ms_p50": ("ms", "cpu_ms_per_krow on every workload"),
    "mechanism.calls_per_request": ("count", "interactive.latency_p50_ms"),
    "mechanism.candidates_per_request": ("count", "saturated.rows_per_s"),
    "generative.generate_batch_share": ("share", "bulk.rows_per_s"),
    "privacy.results_share": ("share", "bulk.rows_per_s"),
    "mechanism.cands_per_s.b256": ("1/s", "interactive.latency_p50_ms (a little)"),
    "mechanism.cands_per_s.b4096": ("1/s", "bulk.rows_per_s"),
    "setup.load_s": ("s", "setup_s"),
    "setup.fit_s": ("s", "setup_s"),
    "setup.first_request_s": ("s", "setup_s"),
    "server.cpu_s_per_krow": ("s", "cpu_ms_per_krow (traced run), saturated/bulk rows_per_s"),
    "server.rss_growth_mb": ("MB", "peak_rss_mb"),
    "trace.overhead": ("share", "(validity of the per-layer split)"),
    "loadgen.lag_p99_ms": ("ms", "(validity of the run)"),
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else float("nan")


def read_spans(span_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(span_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total, cursor = 0.0, start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def _duration_ms(spans: list[dict]) -> list[float]:
    return [(span["end"] - span["start"]) * 1000 for span in spans]


def layer_metrics(
    spans: list[dict],
    ops: list,
    window: tuple[float, float],
    kernel: dict,
    extra: dict,
) -> dict:
    """Every per-layer metric of one traced run (see ``LAYER_METRICS``).

    ``extra`` carries what the caller measured outside the spans: worker
    restarts and chunk counts from the server's endpoints, setup timings, CPU
    and RSS deltas, released rows and the untraced run's CPU per row.
    """
    start, end = window
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        if start <= span["start"] <= end:
            by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    generates = [op for op in ops if op.kind == GENERATE and op.ok]
    requests = len(named("service.generate")) or 1
    service = {s["request_id"]: s["end"] - s["start"] for s in named("service.generate")}
    waits = {s["request_id"]: s for s in named("scheduler.wait")}
    checkouts: dict[str, float] = {}
    for span in sorted(named("engine_pool.checkout"), key=lambda s: s["start"]):
        for request_id in span.get("request_ids") or ():
            checkouts.setdefault(request_id, span["start"])
    queue_waits = [
        (checkouts[rid] - waits[rid]["start"]) * 1000 for rid in checkouts if rid in waits
    ]
    http_self = [
        (op.end - op.send - service[op.header["request_id"]]) * 1000
        for op in generates
        if op.header.get("request_id") in service
    ]
    service_self = [
        (duration - (waits[rid]["end"] - waits[rid]["start"])) * 1000
        for rid, duration in service.items()
        if rid in waits
    ]
    proposals = named("mechanism.propose_batch")
    kernel_intervals = [(s["start"], s["end"]) for s in proposals]
    jobs = named("engine.job")
    propose_s = sum(s["end"] - s["start"] for s in proposals) or float("nan")
    candidates = sum(s["candidates"] for s in proposals)
    decodes = named("api.decode")
    decoded_rows = sum(s["rows"] for s in decodes) or float("nan")
    folds = named("scheduler.fold")
    released = extra["released_rows"]

    metrics = {
        "http.self_ms_p50": percentile(http_self, 50),
        "http.response_bytes_p50": percentile([len(op.body) for op in generates], 50),
        "api.release_decode_ms_per_krow": sum(_duration_ms(decodes)) / (decoded_rows / 1000),
        "service.self_ms_p50": percentile(service_self, 50),
        "session.reserve_ms_p50": percentile(_duration_ms(named("session.reserve")), 50),
        "session.commit_ms_p50": percentile(_duration_ms(named("session.commit")), 50),
        "journal.append_ms_p50": percentile(_duration_ms(named("journal.append")), 50),
        "journal.appends_per_request": len(named("journal.append")) / requests,
        "obs.metrics_text_ms_p50": percentile(_duration_ms(named("obs.metrics_text")), 50),
        "service.healthz_ms_p50": percentile(
            [(op.end - op.send) * 1000 for op in ops if op.kind == HEALTHZ and op.ok], 50
        ),
        "scheduler.queue_wait_ms_p50": percentile(queue_waits, 50),
        "scheduler.queue_wait_ms_p99": percentile(queue_waits, 99),
        "scheduler.fold_factor": (
            sum(len(s["request_ids"]) for s in folds) / len(folds) if folds else float("nan")
        ),
        "engine_pool.checkout_ms_p50": percentile(_duration_ms(named("engine_pool.checkout")), 50),
        "engine_pool.worker_restarts": extra["worker_restarts"],
        "engine.job_ms_p50": percentile(_duration_ms(jobs), 50),
        "engine.self_ms_p50": percentile(
            [
                (s["end"] - s["start"] - _covered(s["start"], s["end"], kernel_intervals)) * 1000
                for s in jobs
            ],
            50,
        ),
        "engine.chunks_per_request": extra["chunks_per_request"],
        "engine.yield": released / candidates if candidates else float("nan"),
        "mechanism.propose_batch_ms_p50": percentile(_duration_ms(proposals), 50),
        "mechanism.calls_per_request": len(proposals) / requests,
        "mechanism.candidates_per_request": candidates / requests,
        "generative.generate_batch_share": sum(
            s["end"] - s["start"] for s in named("generative.generate_batch")
        ) / propose_s,
        "privacy.results_share": sum(
            s["end"] - s["start"] for s in named("privacy.results_from_counts")
        ) / propose_s,
        "mechanism.cands_per_s.b256": kernel.get("b256", float("nan")),
        "mechanism.cands_per_s.b4096": kernel.get("b4096", float("nan")),
        "setup.load_s": extra["load_s"],
        "setup.fit_s": extra["fit_s"],
        "setup.first_request_s": extra["first_request_s"],
        "server.cpu_s_per_krow": extra["cpu_s"] / (released / 1000),
        "server.rss_growth_mb": extra["rss_growth_mb"],
        # CPU per row, not latency: on a shared host the median latency of two
        # launches differs by more than the wrappers cost.
        "trace.overhead": extra["traced_cpu_ms_per_krow"] / extra["untraced_cpu_ms_per_krow"] - 1,
        "loadgen.lag_p99_ms": extra["lag_p99_ms"],
    }
    return metrics


def setup_spans(spans: list[dict]) -> tuple[float, float]:
    """Seconds in ``Dataset.from_csv`` and in ``ServiceApp.publish_model``."""

    def first(name):
        matching = [s for s in spans if s["name"] == name]
        return matching[0]["end"] - matching[0]["start"] if matching else float("nan")

    return first("setup.load"), first("setup.fit")
