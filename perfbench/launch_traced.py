"""Run ``repro serve`` with the public entry points of every layer timed.

Usage::

    python perfbench/launch_traced.py SPAN_DIR serve [serve options...]

The launcher replaces a fixed set of public functions with timing wrappers
and then calls ``repro.cli.main(["serve", ...])``.  Each wrapper records one
span (name, start, end and a few attributes such as the request id) in
memory; the spans are written to ``SPAN_DIR/server.jsonl`` once the server
has stopped.  After that the launcher times ``SynthesisMechanism.propose_batch``
directly on the published model and writes ``SPAN_DIR/kernel.json``.

Engine workers are started with the ``spawn`` method, which re-imports this
file as ``__mp_main__`` in every worker.  There the kernel wrappers are
installed too and write each span straight to ``SPAN_DIR/worker-<pid>.jsonl``,
because a worker's memory is gone when it exits.  All times are
``time.monotonic()``, which is one clock for every process on the host.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
KERNEL_BATCHES = (256, 4096)
KERNEL_SECONDS = 1.0


class SpanLog:
    """The spans of one process: kept in memory, or written through to a file."""

    def __init__(self, path: Path | None = None):
        self.spans: list[dict] = []
        self._fd = (
            os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            if path is not None
            else None
        )

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        span = {"name": name, "start": start, "end": end, "pid": os.getpid(), **attrs}
        if self._fd is None:
            self.spans.append(span)  # list.append is atomic across threads
        else:
            os.write(self._fd, (json.dumps(span) + "\n").encode())

    def dump(self, path: Path) -> None:
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _wrap(log: SpanLog, owner, attr: str, name: str, describe=None) -> None:
    """Replace ``owner.attr`` with a wrapper that records one span per call.

    ``describe(args, kwargs, result)`` returns extra span attributes.  A
    function the program no longer has is left out, and the metrics built on
    it read as not measured.
    """
    original = owner.__dict__.get(attr)
    if original is None:
        print(f"perfbench: {owner.__name__}.{attr} not found; not traced", file=sys.stderr)
        return

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = time.monotonic()
        result = original(*args, **kwargs)
        end = time.monotonic()
        log.add(name, start, end, **(describe(args, kwargs, result) if describe else {}))
        return result

    setattr(owner, attr, timed)


def install_kernel(log: SpanLog) -> None:
    """Time Mechanism 1's batch step and its two main parts."""
    from repro.core.mechanism import SynthesisMechanism
    from repro.generative.bayesian_network import BayesianNetworkSynthesizer
    from repro.privacy.plausible_deniability import (
        DeterministicPrivacyTest,
        RandomizedPrivacyTest,
    )

    def candidates(args, kwargs, result):
        return {"candidates": len(result)}

    _wrap(log, SynthesisMechanism, "propose_batch", "mechanism.propose_batch", candidates)
    _wrap(log, BayesianNetworkSynthesizer, "generate_batch", "generative.generate_batch")
    for test in (DeterministicPrivacyTest, RandomizedPrivacyTest):
        _wrap(log, test, "results_from_counts", "privacy.results_from_counts")


class _ServerTrace:
    """Wrappers for the HTTP, service, scheduler, pool and engine layers."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.app = None
        self.model_name: str | None = None
        # Request ids of the fold the current dispatcher thread executes.
        self._fold = threading.local()

    def fold_ids(self) -> list[str] | None:
        return getattr(self._fold, "ids", None)

    def install(self) -> None:
        from repro.core.engine import SynthesisEngine
        from repro.datasets.dataset import Dataset
        from repro.service.api import ReleaseRecord, ServiceApp
        from repro.service.engine_pool import EnginePool
        from repro.service.journal import BudgetJournal
        from repro.service.scheduler import RequestScheduler
        from repro.service.session import TenantSession

        log = self.log
        from_csv = Dataset.__dict__["from_csv"].__func__

        def timed_from_csv(cls, *args, **kwargs):
            start = time.monotonic()
            dataset = from_csv(cls, *args, **kwargs)
            log.add("setup.load", start, time.monotonic())
            return dataset

        Dataset.from_csv = classmethod(timed_from_csv)

        def published(args, kwargs, result):
            self.app, self.model_name = args[0], args[1]
            return {}

        _wrap(log, ServiceApp, "publish_model", "setup.fit", published)
        _wrap(
            log, ServiceApp, "generate", "service.generate",
            lambda args, kwargs, record: {"request_id": record.request_id},
        )
        _wrap(log, ServiceApp, "metrics_text", "obs.metrics_text")
        _wrap(
            log, ReleaseRecord, "decoded_rows", "api.decode",
            lambda args, kwargs, rows: {"rows": len(rows)},
        )
        _wrap(
            log, TenantSession, "reserve", "session.reserve",
            lambda args, kwargs, reservation: {"request_id": reservation.request_id},
        )
        _wrap(
            log, TenantSession, "commit", "session.commit",
            lambda args, kwargs, result: {"request_id": args[1].request_id},
        )
        _wrap(log, BudgetJournal, "append", "journal.append")
        _wrap(
            log, EnginePool, "checkout", "engine_pool.checkout",
            lambda args, kwargs, lease: {"request_ids": self.fold_ids()},
        )
        _wrap(
            log, SynthesisEngine, "generate_folded", "engine.job",
            lambda args, kwargs, reports: {"request_ids": self.fold_ids()},
        )

        submit = RequestScheduler.submit

        @functools.wraps(submit)
        def timed_submit(scheduler, request):
            start = time.monotonic()
            future = submit(scheduler, request)
            future.add_done_callback(
                lambda _future: log.add(
                    "scheduler.wait", start, time.monotonic(), request_id=request.request_id
                )
            )
            return future

        RequestScheduler.submit = timed_submit

        init = RequestScheduler.__init__

        @functools.wraps(init)
        def traced_init(scheduler, *args, fold_executor=None, **kwargs):
            if fold_executor is not None:
                fold_executor = self._traced_fold(fold_executor)
            init(scheduler, *args, fold_executor=fold_executor, **kwargs)

        RequestScheduler.__init__ = traced_init

    def _traced_fold(self, executor):
        """The scheduler's fold executor, marking the fold on its thread."""

        def fold(model_id, requests):
            ids = [request.request_id for request in requests]
            self._fold.ids = ids
            start = time.monotonic()
            try:
                return executor(model_id, requests)
            finally:
                self._fold.ids = None
                self.log.add("scheduler.fold", start, time.monotonic(), request_ids=ids)

        return fold


def kernel_rates(app, model_name: str) -> dict:
    """Candidates per second of ``propose_batch`` at each kernel batch size."""
    import numpy as np

    from repro.core.mechanism import SynthesisMechanism

    pipeline = app.registry.get(model_name).pipeline
    mechanism = SynthesisMechanism(
        pipeline.model, pipeline.splits.seeds, pipeline.config.privacy
    ).prepare()
    rng = np.random.default_rng(0)
    rates = {}
    for size in KERNEL_BATCHES:
        mechanism.propose_batch(size, rng)
        proposed = 0
        start = time.monotonic()
        while True:
            proposed += len(mechanism.propose_batch(size, rng))
            elapsed = time.monotonic() - start
            if elapsed >= KERNEL_SECONDS and proposed >= 3 * size:
                break
        rates[f"b{size}"] = proposed / elapsed
    return rates


def main(argv: list[str]) -> int:
    span_dir = Path(argv[0])
    # Inherited by the spawned engine workers (see the module docstring).
    os.environ[SPAN_DIR_ENV] = str(span_dir)
    log = SpanLog()
    trace = _ServerTrace(log)
    trace.install()
    install_kernel(log)
    from repro.cli import main as cli_main

    try:
        code = cli_main(argv[1:])
    finally:
        log.dump(span_dir / "server.jsonl")
    rates = {}
    if trace.app is not None:
        try:
            rates = kernel_rates(trace.app, trace.model_name)
        except Exception:  # the server's own result stands; report, then go on
            traceback.print_exc()
    (span_dir / "kernel.json").write_text(json.dumps(rates))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
elif __name__ == "__mp_main__" and os.environ.get(SPAN_DIR_ENV):
    install_kernel(SpanLog(Path(os.environ[SPAN_DIR_ENV]) / f"worker-{os.getpid()}.jsonl"))
