"""The load generator: operations, arrival schedules and sender threads.

Every operation is one HTTP request on a fresh connection (the server speaks
HTTP/1.0 and closes each connection after its response), so "two connections"
means two sender threads, each with at most one request in flight.

Two kinds of operation exist in a run:

* *scheduled* operations carry a due time, fixed before the run from the
  workload seed (the open-loop arrivals of ``interactive``, and the
  monitoring scrapes that ride along in every workload);
* *closed-loop* operations are ``/generate`` requests a sender issues as soon
  as its previous operation finished (``saturated`` and ``bulk``).

Each operation records when it became ready to send (its due time, or the
moment its sender became free), when it was sent and when its response was
read in full.  ``send - ready`` is the generator's own lateness.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

GENERATE = "generate"
PAGE = "page"
BUDGET = "budget"
METRICS = "metrics"
HEALTHZ = "healthz"
READS = (PAGE, BUDGET)

_EXPECTED_STATUS = {GENERATE: 200, PAGE: 200, BUDGET: 200, METRICS: 200, HEALTHZ: 200}
_PAGE_LIMIT = 100
_REQUEST_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One request: what to send, and what happened."""

    kind: str
    tenant: int = 0
    due: float | None = None  # absolute monotonic time; None = closed loop
    rows: int = 0
    stream: bool = False
    timed_from_due: bool = False
    ready: float = 0.0
    send: float = 0.0
    end: float = 0.0
    status: int = 0
    error: str | None = None
    body: bytes = b""
    header: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == _EXPECTED_STATUS[self.kind]

    @property
    def latency(self) -> float:
        """Seconds from due time (open loop) or send time to the full response."""
        return self.end - (self.due if self.timed_from_due else self.send)

    @property
    def lag(self) -> float:
        return self.send - self.ready


class Client:
    """A minimal JSON-over-HTTP client for the service API."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self.host = host
        self.port = port

    def request(self, method: str, path: str, payload: dict | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=_REQUEST_TIMEOUT_S
        )
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def json(self, method: str, path: str, payload: dict | None = None, expect: int = 200) -> dict:
        status, body = self.request(method, path, payload)
        if status != expect:
            raise RuntimeError(f"{method} {path} returned {status}: {body[:300]!r}")
        return json.loads(body)


class Tenants:
    """The pre-created sessions and each tenant's latest release."""

    def __init__(self, sessions: list[str]):
        self.sessions = sessions
        self._latest: dict[int, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.sessions)

    def latest(self, tenant: int) -> str | None:
        with self._lock:
            return self._latest.get(tenant)

    def released(self, tenant: int, release_id: str) -> None:
        with self._lock:
            self._latest[tenant] = release_id


def execute(client: Client, tenants: Tenants, op: Op) -> Op:
    """Send ``op`` and record its outcome; bodies are checked later."""
    session = tenants.sessions[op.tenant]
    if op.kind == GENERATE:
        method, path = "POST", "/generate"
        payload = {"session": session, "rows": op.rows}
        if op.stream:
            payload["stream"] = True
    elif op.kind == PAGE:
        release = tenants.latest(op.tenant)
        method, path, payload = "GET", f"/releases/{release}?limit={_PAGE_LIMIT}", None
    elif op.kind == BUDGET:
        method, path, payload = "GET", f"/budget?session={session}", None
    elif op.kind == METRICS:
        method, path, payload = "GET", "/metrics", None
    else:
        method, path, payload = "GET", "/healthz", None
    op.send = time.monotonic()
    try:
        op.status, op.body = client.request(method, path, payload)
    except (OSError, http.client.HTTPException) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.end = time.monotonic()
    if op.kind == GENERATE and op.status == 200:
        # Only the small header is parsed inside the timed window; rows are
        # checked after it.
        head = op.body.split(b"\n", 1)[0] if op.stream else op.body
        try:
            op.header = json.loads(head)
        except ValueError as exc:
            op.error = f"unparsable /generate response: {exc}"
        else:
            tenants.released(op.tenant, op.header.get("release_id"))
    return op


@dataclass(frozen=True)
class Workload:
    """A traffic mix; see ``BENCHMARK.json`` for why each one exists."""

    name: str
    rows: int  # rows per /generate
    stream: bool  # NDJSON streaming responses
    generators: int  # closed-loop /generate senders (0 = open loop)
    senders: int  # sender threads (= client connections)
    server_workers: int | None  # `serve --workers`; None = in-process engine
    open_loop_rate: float = 0.0  # ops/s of the open-loop mix
    read_share: float = 0.0  # share of open-loop ops that are reads
    slo_ms: float = 100.0  # latency limit of one /generate
    # Percentile of `latency_tail_ms`: the highest that keeps at least ten
    # samples beyond it at the benchmark's run length.
    tail_percentile: float = 90.0


WORKLOADS = {
    "interactive": Workload(
        "interactive", rows=16, stream=False, generators=0, senders=2,
        server_workers=None, open_loop_rate=20.0, read_share=0.2,
    ),
    "saturated": Workload(
        "saturated", rows=16, stream=False, generators=2, senders=2, server_workers=None,
    ),
    "bulk": Workload(
        "bulk", rows=4096, stream=True, generators=1, senders=1,
        server_workers=2, slo_ms=1000.0, tail_percentile=75.0,
    ),
}
NUM_TENANTS = 32


def schedule(workload: Workload, seed: int, seconds: float) -> list[Op]:
    """The scheduled operations of one run, as offsets from its start.

    The open-loop mix has exactly ``rate * seconds`` arrivals placed
    uniformly at random (a Poisson process conditioned on its count), of which
    exactly ``read_share`` are reads, so the offered load is the same for
    every seed.  Every workload also scrapes ``/metrics`` and ``/healthz``
    once per second, as a monitoring system would.
    """
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []
    if workload.open_loop_rate:
        count = round(workload.open_loop_rate * seconds)
        reads = round(workload.read_share * count)
        kinds = [PAGE if i % 2 == 0 else BUDGET for i in range(reads)]
        kinds += [GENERATE] * (count - reads)
        rng.shuffle(kinds)
        times = np.sort(rng.uniform(0.0, seconds, size=count))
        tenants = rng.integers(NUM_TENANTS, size=count)
        for due, kind, tenant in zip(times, kinds, tenants):
            ops.append(Op(kind, int(tenant), due=float(due), rows=workload.rows))
    for second in range(int(seconds)):
        ops.append(Op(METRICS, due=second + 0.25))
        ops.append(Op(HEALTHZ, due=second + 0.75))
    ops.sort(key=lambda op: op.due)
    return ops


class Run:
    """Sender threads driving one workload for one timed window."""

    def __init__(self, client: Client, tenants: Tenants, workload: Workload, scheduled: list[Op]):
        self._client = client
        self._tenants = tenants
        self._workload = workload
        self._scheduled = scheduled
        self._next_scheduled = 0
        self._next_tenant = 0
        self._lock = threading.Lock()
        self.start = 0.0
        self.stop = 0.0

    def _take_scheduled(self, now: float, wait: bool) -> Op | None:
        """The next scheduled op if due (or, with ``wait``, whatever is next)."""
        with self._lock:
            if self._next_scheduled >= len(self._scheduled):
                return None
            op = self._scheduled[self._next_scheduled]
            if not wait and op.due > now:
                return None
            self._next_scheduled += 1
            return op

    def _closed_loop_op(self) -> Op:
        with self._lock:
            tenant = self._next_tenant % len(self._tenants)
            self._next_tenant += 1
        return Op(GENERATE, tenant, rows=self._workload.rows, stream=self._workload.stream)

    def _sender(self, generator: bool, done: list[Op]) -> None:
        # Closed-loop senders slot the scheduled ops that are due in between
        # their own.
        free_at = time.monotonic()
        while True:
            now = time.monotonic()
            if generator and now >= self.stop:
                return
            op = self._take_scheduled(now, wait=not generator)
            if op is not None:
                op.ready = max(op.due, free_at)
                op.timed_from_due = not generator
                pause = op.due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
            elif generator:
                op = self._closed_loop_op()
                op.ready = free_at
            else:
                return
            done.append(execute(self._client, self._tenants, op))
            free_at = time.monotonic()

    def run(self, seconds: float) -> list[Op]:
        """Drive the workload for ``seconds``; returns every op, in send order."""
        self.start = time.monotonic() + 0.05
        self.stop = self.start + seconds
        for op in self._scheduled:
            op.due += self.start
        results: list[list[Op]] = [[] for _ in range(self._workload.senders)]
        threads = [
            threading.Thread(
                target=self._sender,
                args=(index < self._workload.generators, results[index]),
                name=f"perfbench-sender-{index}",
            )
            for index in range(self._workload.senders)
        ]
        while time.monotonic() < self.start:
            time.sleep(0.001)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = [op for ops in results for op in ops]
        ops.sort(key=lambda op: op.send)
        return ops
