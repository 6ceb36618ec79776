"""Worker supervision: crash detection, deterministic chunk retry, pool health.

The chaos tests SIGKILL a live worker at a chosen chunk (via the
:mod:`repro.testing.faults` harness) and assert the recovered run is
*bit-identical* to the undisturbed serial reference — chunk content is a pure
function of ``(base_seed, chunk_index)``, so a retry can never change the
released output, only the wall clock.
"""

import dataclasses
import os
import time

import pytest

from repro.core.engine import (
    ChunkRetryExhaustedError,
    EngineBrokenError,
    FoldSpec,
    SynthesisEngine,
)
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing import KillWorkerAtChunk
from repro.testing.invariants import assert_reports_identical

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def params():
    return PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0)


@dataclasses.dataclass(frozen=True)
class RaiseAtChunk:
    """Fault point: the worker raises (and survives) on one chunk."""

    chunk_index: int

    def fire(self, chunk_index: int) -> None:
        if chunk_index == self.chunk_index:
            raise ValueError(f"injected failure at chunk {chunk_index}")


@dataclasses.dataclass(frozen=True)
class DelayAtChunk:
    """Fault point: the worker sleeps before one chunk, so it is still busy
    when the job around it is abandoned."""

    chunk_index: int
    seconds: float = 0.5

    def fire(self, chunk_index: int) -> None:
        if chunk_index == self.chunk_index:
            time.sleep(self.seconds)


@dataclasses.dataclass(frozen=True)
class FaultChain:
    """Fault point firing several faults in turn."""

    faults: tuple

    def fire(self, chunk_index: int) -> None:
        for fault in self.faults:
            fault.fire(chunk_index)


def serial_report(unnoised_model, acs_splits, params, **run):
    with SynthesisEngine(
        unnoised_model, acs_splits.seeds, params, chunk_size=16, batch_size=8
    ) as engine:
        if "num_released" in run:
            return engine.generate(
                run["num_released"],
                base_seed=run["base_seed"],
                max_attempts=run.get("max_attempts"),
            )
        return engine.run_attempts(run["num_attempts"], base_seed=run["base_seed"])


class TestCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_run_is_bit_identical(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=1, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            report = engine.run_attempts(48, base_seed=11)
            health = engine.pool_health()
        assert fault.kills_fired() == 1
        assert health["worker_restarts"] == 1
        assert health["chunk_retries"] == {1: 1}
        assert health["workers_alive"] == health["num_workers"] == 2
        assert not health["broken"]
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=48, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_until_n_run_survives_a_crash_and_matches_serial(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=0, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            report = engine.generate(10, base_seed=3, max_attempts=2000)
        assert fault.kills_fired() == 1
        assert report.num_released == 10
        expected = serial_report(
            unnoised_model,
            acs_splits,
            params,
            num_released=10,
            base_seed=3,
            max_attempts=2000,
        )
        assert_reports_identical(expected, report)

    def test_folded_lanes_met_mid_chunk_survive_a_crash(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # Global chunk 6 of the round-robin plan is lane 2's second chunk,
        # which its 21-row target always needs.  Killed once, it is requeued
        # and resent with the need recomputed from the lane's prefix; every
        # lane still matches the undisturbed serial fold bit for bit.
        specs = [
            FoldSpec(num_released=released, base_seed=80 + released, max_attempts=160)
            for released in (5, 13, 21, 40)
        ]
        fault = KillWorkerAtChunk(chunk_index=6, marker_dir=str(tmp_path), times=1)
        events = []
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            folded = engine.generate_folded(specs, progress=events.append)
            health = engine.pool_health()
        assert fault.kills_fired() == 1
        assert health["chunk_retries"] == {6: 1}
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, batch_size=8
        ) as serial:
            expected = serial.generate_folded(specs)
        for lane in range(len(specs)):
            assert_reports_identical(expected[lane], folded[lane], context=f"lane {lane}")
        assert any(event.chunk_attempts < 16 for event in events)

    def test_pool_stays_usable_across_jobs_after_a_crash(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=2, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            first = engine.run_attempts(48, base_seed=7)
            second = engine.run_attempts(48, base_seed=7)
        assert fault.kills_fired() == 1  # only the first job saw the fault
        assert_reports_identical(first, second)


class TestRetryExhaustion:
    def test_repeated_crashes_fail_the_job_but_not_the_engine(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # times = max_chunk_retries + 1 kills the original execution and every
        # allowed retry of chunk 1; the job must fail cleanly and name the
        # chunk, and the repaired pool must serve the next job bit-exactly.
        fault = KillWorkerAtChunk(chunk_index=1, marker_dir=str(tmp_path), times=2)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            max_chunk_retries=1,
            fault_injector=fault,
        ) as engine:
            with pytest.raises(ChunkRetryExhaustedError) as excinfo:
                engine.run_attempts(48, base_seed=11)
            assert excinfo.value.chunk_indices == (1,)
            health = engine.pool_health()
            assert health["worker_restarts"] == 2
            assert not health["broken"]
            # Fault markers are spent: the same job now runs to completion.
            report = engine.run_attempts(48, base_seed=11)
        assert fault.kills_fired() == 2
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=48, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_zero_retries_means_any_crash_fails_the_job(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=0, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            max_chunk_retries=0,
            fault_injector=fault,
        ) as engine:
            with pytest.raises(ChunkRetryExhaustedError):
                engine.run_attempts(32, base_seed=5)


class TestBrokenEngine:
    def test_unstartable_pool_raises_engine_broken(
        self, unnoised_model, acs_splits, params
    ):
        # A spawn failure (here: an unpicklable fault injector) has no chunk
        # to retry deterministically — the pool is marked broken for good.
        engine = SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            fault_injector=lambda index: None,
        )
        try:
            with pytest.raises(EngineBrokenError):
                engine.run_attempts(16, base_seed=1)
            assert engine.pool_health()["broken"]
            with pytest.raises(EngineBrokenError):
                engine.run_attempts(16, base_seed=1)
            with pytest.raises(EngineBrokenError):
                engine.start()
        finally:
            engine.close()

    def test_validation_and_serial_health(self, unnoised_model, acs_splits, params):
        with pytest.raises(ValueError):
            SynthesisEngine(
                unnoised_model, acs_splits.seeds, params, max_chunk_retries=-1
            )
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            engine.run_attempts(8, base_seed=0)
            health = engine.pool_health()
        assert health["workers_alive"] == 0  # serial path has no pool
        assert health["worker_restarts"] == 0
        assert not health["broken"]


class TestPromptSupervision:
    """The parent waits on every worker's pipe and process sentinel, so a
    death is handled the moment it happens, busy or idle."""

    def test_crash_is_detected_while_the_other_worker_delivers(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # The fault writes its marker file just before the SIGKILL.
        restarts: list[float] = []

        def sink(kind, payload):
            if kind == "worker_restart":
                restarts.append(time.time())

        fault = KillWorkerAtChunk(chunk_index=6, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
            event_sink=sink,
        ) as engine:
            engine.start()
            report = engine.run_attempts(320, base_seed=4)
        assert fault.kills_fired() == 1
        assert len(restarts) == 1
        killed_at = os.stat(tmp_path / "kill.0").st_mtime
        assert restarts[0] - killed_at < 0.5
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=320, base_seed=4
        )
        assert_reports_identical(expected, report)


    def test_more_workers_than_cores_survive_two_crashes(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        kill_early = tmp_path / "early"
        kill_late = tmp_path / "late"
        kill_early.mkdir()
        kill_late.mkdir()
        faults = (
            KillWorkerAtChunk(chunk_index=2, marker_dir=str(kill_early), times=1),
            KillWorkerAtChunk(chunk_index=9, marker_dir=str(kill_late), times=1),
        )
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=3,
            chunk_size=16,
            batch_size=8,
            fault_injector=FaultChain(faults),
        ) as engine:
            report = engine.run_attempts(240, base_seed=8)
            health = engine.pool_health()
        assert [fault.kills_fired() for fault in faults] == [1, 1]
        assert health["worker_restarts"] == 2
        assert health["chunk_retries"] == {2: 1, 9: 1}
        assert health["workers_alive"] == 3
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=240, base_seed=8
        )
        assert_reports_identical(expected, report)

    def test_idle_worker_death_is_respawned_without_a_retry(
        self, unnoised_model, acs_splits, params
    ):
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
        ) as engine:
            engine.start()
            victim = engine._processes[0]
            victim.kill()
            victim.join(timeout=10)
            assert not victim.is_alive()
            report = engine.run_attempts(48, base_seed=11)
            health = engine.pool_health()
        assert health["worker_restarts"] == 1
        assert health["chunk_retries"] == {}
        assert health["workers_alive"] == 2
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=48, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_worker_start_failure_breaks_the_engine(
        self, unnoised_model, acs_splits, params, monkeypatch
    ):
        # A worker that cannot attach its segment reports the error instead of
        # "ready": the engine is broken for good (an EnginePool then evicts it)
        # rather than closed behind a plain RuntimeError.
        build = SynthesisEngine._build_worker_spec
        monkeypatch.setattr(
            SynthesisEngine,
            "_build_worker_spec",
            lambda engine: dataclasses.replace(
                build(engine), seed_segment="repro_missing_segment"
            ),
        )
        engine = SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, num_workers=2, chunk_size=16
        )
        try:
            with pytest.raises(EngineBrokenError, match="failed to start"):
                engine.start()
            assert engine.pool_health()["broken"]
            with pytest.raises(EngineBrokenError):
                engine.run_attempts(16, base_seed=1)
        finally:
            engine.close()


class TestAbandonedJobs:
    """A job that fails or is interrupted leaves workers busy; the next job
    discards their replies and still matches the serial reference."""

    def test_worker_exception_fails_the_job_but_not_the_engine(
        self, unnoised_model, acs_splits, params
    ):
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=RaiseAtChunk(chunk_index=1),
        ) as engine:
            with pytest.raises(RuntimeError, match="injected failure at chunk 1"):
                engine.run_attempts(96, base_seed=11)
            report = engine.run_attempts(16, base_seed=11)  # chunk 0 only
            health = engine.pool_health()
        assert health["worker_restarts"] == 0
        assert not health["broken"]
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=16, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_interrupted_job_leaves_no_stale_chunks(
        self, unnoised_model, acs_splits, params
    ):
        class Interrupt(Exception):
            pass

        def interrupt(progress):
            raise Interrupt

        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=DelayAtChunk(chunk_index=1),
        ) as engine:
            with pytest.raises(Interrupt):
                engine.run_attempts(96, base_seed=5, progress=interrupt)
            # Same chunk indices, different streams: a stale reply merged into
            # this job would show up as a mismatch against the serial run.
            report = engine.run_attempts(96, base_seed=6)
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=96, base_seed=6
        )
        assert_reports_identical(expected, report)

    def test_close_stops_busy_workers_cleanly(
        self, unnoised_model, acs_splits, params
    ):
        def interrupt(progress):
            raise KeyboardInterrupt

        engine = SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=DelayAtChunk(chunk_index=1),
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run_attempts(96, base_seed=5, progress=interrupt)
        processes = list(engine._processes)
        engine.close()
        # Each worker left its loop on its own (exit code 0), none needed
        # the terminate() fallback.
        assert [process.exitcode for process in processes] == [0, 0]


class TestKillFaultHarness:
    def test_fault_only_fires_on_its_chunk(self, tmp_path):
        fault = KillWorkerAtChunk(chunk_index=3, marker_dir=str(tmp_path), times=1)
        fault.fire(0)  # wrong chunk: no kill, no marker
        assert fault.kills_fired() == 0

    def test_marker_claims_are_exclusive(self, tmp_path):
        fault = KillWorkerAtChunk(chunk_index=0, marker_dir=str(tmp_path), times=2)
        (tmp_path / "kill.0").touch()
        (tmp_path / "kill.1").touch()
        fault.fire(0)  # both kills already spent elsewhere: survives
        assert fault.kills_fired() == 2
