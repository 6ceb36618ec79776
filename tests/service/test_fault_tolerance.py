"""Admission control, deadlines and shutdown: every refusal refunds its hold.

The scheduler-level tests use ``autostart=False`` to shape the queue
deterministically; the service-level tests inject a
:class:`~repro.testing.faults.DispatchDelayFault` so overload and deadline
expiry happen by construction, not by racing the dispatcher.
"""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.service import ModelRegistry, ServiceApp, ServiceError, build_server
from repro.service.scheduler import (
    DeadlineExceededError,
    GenerateRequest,
    QueueFullError,
    RequestScheduler,
    SchedulerStoppedError,
)
from repro.testing import DispatchDelayFault
from repro.testing.scenarios import get_scenario

pytestmark = [pytest.mark.service, pytest.mark.chaos]

SCENARIO = get_scenario("tiny-n")


def request(number: int, deadline: float | None = None) -> GenerateRequest:
    return GenerateRequest(
        request_id=f"r{number:03d}",
        model_id="m",
        num_rows=1,
        base_seed=number,
        deadline=deadline,
    )


def make_app(**kwargs) -> ServiceApp:
    app = ServiceApp(ModelRegistry(), num_workers=1, **kwargs)
    app.publish_model("tiny", SCENARIO.dataset(0), SCENARIO.config(), seed=5)
    return app


# --------------------------------------------------------------------------- #
# Scheduler admission / deadline / shutdown semantics
# --------------------------------------------------------------------------- #
class TestSchedulerFaults:
    def test_queue_beyond_max_depth_is_refused(self):
        scheduler = RequestScheduler(
            lambda req: None, max_queue_depth=2, autostart=False
        )
        futures = [scheduler.submit(request(0)), scheduler.submit(request(1))]
        with pytest.raises(QueueFullError, match="max_queue_depth=2"):
            scheduler.submit(request(2))
        assert scheduler.queue_depth() == 2
        assert scheduler.stats().rejected == 1
        scheduler.close()
        for future in futures:
            with pytest.raises(SchedulerStoppedError):
                future.result(timeout=5)

    def test_expired_deadline_is_dropped_undispatched(self):
        executed = []
        scheduler = RequestScheduler(executed.append, autostart=False)
        late = scheduler.submit(request(0, deadline=time.monotonic() - 1.0))
        fresh = scheduler.submit(request(1, deadline=time.monotonic() + 30.0))
        scheduler.start()
        with pytest.raises(DeadlineExceededError):
            late.result(timeout=10)
        fresh.result(timeout=10)
        assert [req.request_id for req in executed] == ["r001"]
        assert scheduler.stats().expired == 1
        scheduler.close()

    def test_closed_scheduler_refuses_new_work(self):
        scheduler = RequestScheduler(lambda req: None)
        scheduler.close()
        with pytest.raises(SchedulerStoppedError):
            scheduler.submit(request(0))
        with pytest.raises(SchedulerStoppedError):
            scheduler.start()

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestScheduler(lambda req: None, max_queue_depth=0, autostart=False)


# --------------------------------------------------------------------------- #
# Service-level refusal paths (every one refunds the reservation)
# --------------------------------------------------------------------------- #
class TestServiceRefunds:
    def test_deadline_miss_maps_to_504_and_refunds(self):
        # The fault stalls only the first request past its 50 ms deadline.
        with make_app(
            dispatch_hook=DispatchDelayFault(
                seconds=0.25, only_request_ids=("s00001-r00001",)
            ),
            deadline_ms=50.0,
        ) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            with pytest.raises(ServiceError) as excinfo:
                app.generate(session_id, rows=3, seed=1)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
            budget = app.budget(session_id)
            assert budget["reserved"]["rows"] == 0
            assert budget["spent"]["rows"] == 0
            assert budget["remaining"]["rows"] == 8
            assert app.scheduler.stats().expired == 1
            # The budget is fully restored: the same session can still spend.
            assert app.generate(session_id, rows=2, seed=2).num_released > 0

    def test_queue_overload_maps_to_503_with_retry_after(self):
        # One request holds the dispatcher inside the delay hook, the second
        # fills the single queue slot, so the third is refused at admission.
        with make_app(
            dispatch_hook=DispatchDelayFault(seconds=0.6), max_queue_depth=1
        ) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 20})[
                "session_id"
            ]
            results = []
            threads = [
                threading.Thread(
                    target=lambda seed=seed: results.append(
                        app.generate(session_id, rows=2, seed=seed)
                    )
                )
                for seed in (1, 2)
            ]
            threads[0].start()
            time.sleep(0.2)  # first request picked up, sleeping in the hook
            threads[1].start()
            time.sleep(0.2)  # second request admitted and queued
            with pytest.raises(ServiceError) as excinfo:
                app.generate(session_id, rows=2, seed=3)
            for thread in threads:
                thread.join(timeout=30)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.headers() == {"Retry-After": "1"}
            assert app.scheduler.stats().rejected == 1
            # Both admitted requests completed; the refused one left no hold.
            assert len(results) == 2
            budget = app.budget(session_id)
            assert budget["reserved"]["rows"] == 0
            assert budget["spent"]["rows"] == sum(r.num_released for r in results)

    def test_replay_under_a_full_queue_maps_to_503_and_spends_nothing(
        self, tmp_path
    ):
        # A restart empties the release history, so an idempotent retry has
        # to regenerate its rows through the scheduler, whose queue is full.
        journal = tmp_path / "journal.jsonl"
        with make_app(journal=journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 20})[
                "session_id"
            ]
            app.generate(session_id, rows=2, seed=1, idempotency_key="k1")
            spent = app.budget(session_id)["spent"]

        entered, release = threading.Event(), threading.Event()

        def hold_dispatch(request):
            entered.set()
            release.wait(timeout=30)

        with make_app(
            journal=journal, dispatch_hook=hold_dispatch, max_queue_depth=1
        ) as app:
            other = app.create_session("tiny", budget={"max_rows": 20})["session_id"]
            threads = [
                threading.Thread(
                    target=app.generate, args=(other,), kwargs={"rows": 1, "seed": seed}
                )
                for seed in (2, 3)
            ]
            threads[0].start()
            assert entered.wait(timeout=30)  # the dispatcher is held
            threads[1].start()
            deadline = time.monotonic() + 30
            while app.scheduler.queue_depth() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    app.generate(session_id, rows=2, seed=1, idempotency_key="k1")
            finally:
                release.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.headers() == {"Retry-After": "1"}
            budget = app.budget(session_id)
            assert budget["spent"] == spent
            assert budget["reserved"]["rows"] == 0

    def test_shutdown_refuses_with_503(self):
        with make_app() as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            app.scheduler.close()
            with pytest.raises(ServiceError) as excinfo:
                app.generate(session_id, rows=2, seed=1)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "shutting_down"
            assert app.budget(session_id)["reserved"]["rows"] == 0


# --------------------------------------------------------------------------- #
# Dropped connection mid-stream + idempotent HTTP retry
# --------------------------------------------------------------------------- #
class TestDroppedConnectionRetry:
    @pytest.fixture()
    def service(self, tmp_path):
        app = make_app(journal=tmp_path / "journal.jsonl")
        server = build_server(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield app, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        app.close()

    def test_client_drop_mid_stream_then_idempotent_retry(self, service):
        app, url = service
        status, session = self._post(f"{url}/sessions", {"model": "tiny"})
        assert status == 201
        session_id = session["session_id"]

        # Start a streaming generate with an Idempotency-Key, read the first
        # header bytes, then drop the connection mid-response.
        host, port = url.removeprefix("http://").split(":")
        body = json.dumps(
            {"session": session_id, "rows": 3, "seed": 4, "stream": True}
        ).encode()
        with socket.create_connection((host, int(port)), timeout=30) as raw:
            raw.sendall(
                b"POST /generate HTTP/1.1\r\n"
                b"Host: service\r\n"
                b"Content-Type: application/json\r\n"
                b"Idempotency-Key: dropped-1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            raw.recv(64)  # the response has started; now vanish mid-stream

        # Wait for the server to finish (and commit) the original request.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if app.budget(session_id)["spent"]["rows"] > 0:
                break
            time.sleep(0.05)
        spent = app.budget(session_id)["spent"]
        assert spent["rows"] > 0

        # The retry replays the recorded release: full rows, zero new spend.
        status, page = self._post(
            f"{url}/generate",
            {"session": session_id, "rows": 3, "seed": 4},
            headers={"Idempotency-Key": "dropped-1"},
        )
        assert status == 200
        assert page["released_rows"] == spent["rows"]
        assert app.budget(session_id)["spent"] == spent

    @staticmethod
    def _post(url, body, headers=None):
        req = urllib.request.Request(
            url,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, json.load(response)
