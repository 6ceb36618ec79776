"""Bounded per-model pool of supervised synthesis engines.

Before PR 8 the service held exactly one lazily built
:class:`~repro.core.engine.SynthesisEngine` per model, forever: a broken
engine stayed broken, idle models pinned their worker processes, and a hot
model could never run two folds at once.  :class:`EnginePool` replaces that
dictionary with an owned pool:

* **Bounded spin-up.**  At most ``engines_per_model`` engines exist per model
  and — when ``worker_budget`` is set — at most that many worker processes
  are reserved across *all* models.  Engines are built lazily on first
  checkout (and the engine itself spawns its workers lazily on first run),
  so publishing N models costs nothing until they serve traffic.

* **Health-aware checkout.**  :meth:`checkout` hands out an idle healthy
  engine, builds a new one when allowed, or blocks until a lease returns.
  An engine whose supervision gave up (PR 7's sticky
  :class:`~repro.core.engine.EngineBrokenError`) is evicted — closed, its
  worker budget freed — and a replacement is built on demand, so one
  unrecoverable pool never bricks a model.

* **LRU idle reaping.**  When the worker budget blocks a build for one model,
  the least-recently-used *idle* engines of other (or the same) model are
  closed to free budget — cold models give their workers back to hot ones.

The pool never runs jobs itself; callers check out an engine, run on it, and
return the lease via :meth:`release` (healthy) or :meth:`discard` (broken).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import SynthesisEngine

__all__ = ["EngineLease", "EnginePool", "WorkerBudgetError"]

_logger = logging.getLogger("repro.service.engine_pool")


class WorkerBudgetError(RuntimeError):
    """The worker budget cannot fit even one engine — a configuration error.

    Raised at checkout rather than silently deadlocking: with
    ``worker_budget < workers_per_engine`` no engine could ever be built.
    """


@dataclass
class _PooledEngine:
    """One pool slot: the engine plus its checkout bookkeeping."""

    model_id: str
    engine: SynthesisEngine
    busy: bool = False
    last_used: float = field(default_factory=time.monotonic)


class EngineLease:
    """An exclusively checked-out engine.

    ``lease.engine`` is yours alone until the lease goes back through
    :meth:`EnginePool.release` (healthy) or :meth:`EnginePool.discard`
    (broken or otherwise unwanted: the engine is closed and its worker
    budget freed).
    """

    __slots__ = ("model_id", "engine", "_entry")

    def __init__(self, entry: _PooledEngine):
        self.model_id = entry.model_id
        self.engine = entry.engine
        self._entry = entry


class EnginePool:
    """Builds, leases, reaps and retires per-model synthesis engines.

    Parameters
    ----------
    builder:
        ``builder(model_id) -> SynthesisEngine`` constructs a fresh engine
        for a model; called outside the pool lock (building may fit shared
        memory segments).
    engines_per_model:
        Upper bound on concurrently existing engines per model.
    workers_per_engine:
        How many worker processes one engine reserves against the budget
        (the service passes its ``num_workers``).
    worker_budget:
        Global bound on reserved workers across all models (``None`` = no
        bound).  Builds that would exceed it first reap idle engines
        least-recently-used-first, then block until a lease returns.
    """

    def __init__(
        self,
        builder: Callable[[str], SynthesisEngine],
        *,
        engines_per_model: int = 1,
        workers_per_engine: int = 1,
        worker_budget: int | None = None,
        telemetry=None,
    ):
        if engines_per_model < 1:
            raise ValueError("engines_per_model must be positive")
        if workers_per_engine < 1:
            raise ValueError("workers_per_engine must be positive")
        if worker_budget is not None and worker_budget < 1:
            raise ValueError("worker_budget must be positive when provided")
        self._builder = builder
        self._engines_per_model = engines_per_model
        self._workers_per_engine = workers_per_engine
        self._worker_budget = worker_budget
        # Optional repro.obs.Telemetry; checkout waits land in a histogram
        # so engine contention is visible on /metrics.
        self._obs = telemetry
        self._lock = threading.Lock()
        self._leases_changed = threading.Condition(self._lock)
        self._entries: dict[str, list[_PooledEngine]] = {}  # repro: guarded-by[_lock]
        self._building: dict[str, int] = {}  # repro: guarded-by[_lock]
        self._workers_reserved = 0  # repro: guarded-by[_lock]
        self._closed = False  # repro: guarded-by[_lock]
        self._builds = 0  # repro: guarded-by[_lock]
        self._evictions = 0  # repro: guarded-by[_lock]
        self._reaped = 0  # repro: guarded-by[_lock]

    # ------------------------------------------------------------------ #
    # Checkout / return
    # ------------------------------------------------------------------ #
    def checkout(self, model_id: str, timeout: float | None = None) -> EngineLease:
        """Lease an engine for ``model_id``, building or waiting as needed.

        Broken idle engines found on the shelf are evicted on the spot.
        Raises :class:`TimeoutError` if ``timeout`` elapses while every
        allowed engine is leased out, and :class:`WorkerBudgetError` if the
        budget can never fit one engine.
        """
        requested_at = time.monotonic()
        deadline = None if timeout is None else requested_at + timeout
        while True:
            doomed: list[SynthesisEngine] = []
            build = False
            with self._leases_changed:
                if self._closed:
                    raise RuntimeError("the engine pool has been closed")
                entry = self._claim_idle_locked(model_id, doomed)
                if entry is None and self._may_build_locked(model_id, doomed):
                    self._building[model_id] = self._building.get(model_id, 0) + 1
                    self._workers_reserved += self._workers_per_engine
                    build = True
                elif entry is None and not doomed:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(
                            f"no engine for model {model_id!r} became available "
                            f"within {timeout:.1f}s"
                        )
                    self._leases_changed.wait(timeout=remaining)
                    continue
            for engine in doomed:
                engine.close()
            if not build:
                if doomed:
                    continue  # evicted a broken engine; try the shelf again
                self._observe_checkout_wait(requested_at)
                return EngineLease(entry)
            self._observe_checkout_wait(requested_at)
            return self._build_lease(model_id)

    def _observe_checkout_wait(self, requested_at: float) -> None:
        if self._obs is not None:
            self._obs.engine_checkout_wait_seconds.observe(
                max(0.0, time.monotonic() - requested_at)
            )

    def release(self, lease: EngineLease) -> None:
        """Return a healthy lease; a broken engine is evicted instead.

        Returning a lease to an already closed pool closes the engine rather
        than reshelving it — the shutdown path only closes shelved engines,
        so the last holder cleans up its own.
        """
        if lease.engine.pool_health()["broken"]:
            self.discard(lease)
            return
        close_engine = False
        with self._leases_changed:
            if self._closed:
                entries = self._entries.get(lease.model_id, [])
                if lease._entry in entries:
                    entries.remove(lease._entry)
                self._workers_reserved -= self._workers_per_engine
                close_engine = True
            else:
                lease._entry.busy = False
                lease._entry.last_used = time.monotonic()
            self._leases_changed.notify_all()
        if close_engine:
            lease.engine.close()

    def discard(self, lease: EngineLease) -> None:
        """Evict a leased engine: close it and free its worker budget."""
        with self._leases_changed:
            entries = self._entries.get(lease.model_id, [])
            if lease._entry in entries:
                entries.remove(lease._entry)
            self._workers_reserved -= self._workers_per_engine
            self._evictions += 1
            self._leases_changed.notify_all()
        _logger.warning(
            "evicted a broken engine for model %s (will rebuild on demand)",
            lease.model_id,
        )
        lease.engine.close()

    # ------------------------------------------------------------------ #
    # Internals (all called with the pool lock held)
    # ------------------------------------------------------------------ #
    def _claim_idle_locked(self, model_id, doomed):  # repro: requires-lock[_lock]
        """The most recently used healthy idle engine, marking it busy.

        Broken idle engines encountered on the way are unshelved into
        ``doomed`` (closed by the caller outside the lock).
        """
        entries = self._entries.get(model_id, [])
        for entry in sorted(
            (e for e in entries if not e.busy),
            key=lambda e: e.last_used,
            reverse=True,
        ):
            if entry.engine.pool_health()["broken"]:
                entries.remove(entry)
                self._workers_reserved -= self._workers_per_engine
                self._evictions += 1
                doomed.append(entry.engine)
                continue
            entry.busy = True
            return entry
        return None

    def _may_build_locked(self, model_id, doomed):  # repro: requires-lock[_lock]
        """Whether a new engine for ``model_id`` may be built right now.

        Reaps least-recently-used idle engines into ``doomed`` when the
        worker budget is the only obstacle.
        """
        existing = len(self._entries.get(model_id, [])) + self._building.get(
            model_id, 0
        )
        if existing >= self._engines_per_model:
            return False
        if self._worker_budget is None:
            return True
        if self._worker_budget < self._workers_per_engine:
            raise WorkerBudgetError(
                f"worker_budget={self._worker_budget} cannot fit one engine of "
                f"{self._workers_per_engine} worker(s)"
            )
        while (
            self._workers_reserved + self._workers_per_engine > self._worker_budget
        ):
            victim = self._lru_idle_locked()
            if victim is None:
                return False  # everything is busy; the caller waits for a lease
            self._entries[victim.model_id].remove(victim)
            self._workers_reserved -= self._workers_per_engine
            self._reaped += 1
            doomed.append(victim.engine)
            _logger.info(
                "reaped idle engine of model %s to free worker budget",
                victim.model_id,
            )
        return True

    def _lru_idle_locked(self):  # repro: requires-lock[_lock]
        """The least recently used idle engine across all models, if any."""
        idle = [
            entry
            for entries in self._entries.values()
            for entry in entries
            if not entry.busy
        ]
        return min(idle, key=lambda entry: entry.last_used, default=None)

    def _build_lease(self, model_id: str) -> EngineLease:
        """Build an engine outside the lock against a budget reservation."""
        try:
            engine = self._builder(model_id)
        except BaseException:
            with self._leases_changed:
                self._building[model_id] -= 1
                self._workers_reserved -= self._workers_per_engine
                self._leases_changed.notify_all()
            raise
        entry = _PooledEngine(model_id=model_id, engine=engine, busy=True)
        with self._leases_changed:
            self._building[model_id] -= 1
            self._builds += 1
            closed = self._closed
            if closed:
                self._workers_reserved -= self._workers_per_engine
            else:
                self._entries.setdefault(model_id, []).append(entry)
            self._leases_changed.notify_all()
        if closed:
            engine.close()
            raise RuntimeError("the engine pool has been closed")
        return EngineLease(entry)

    # ------------------------------------------------------------------ #
    # Health / lifecycle
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Per-model engine supervision counters plus pool-global totals.

        Each model reports its engine count, how many are leased out, the sum
        of live worker processes and supervised restarts across its engines,
        and how many are broken-but-not-yet-evicted.  Pool-global counters
        cover builds, evictions, budget reaping and the worker budget.
        """
        with self._lock:
            models = {}
            for model_id, entries in self._entries.items():
                healths = [entry.engine.pool_health() for entry in entries]
                models[model_id] = {
                    "engines": len(entries),
                    "busy": sum(1 for entry in entries if entry.busy),
                    "workers_alive": sum(h["workers_alive"] for h in healths),
                    "worker_restarts": sum(h["worker_restarts"] for h in healths),
                    "broken": sum(1 for h in healths if h["broken"]),
                }
            return {
                "models": models,
                "builds": self._builds,
                "evictions": self._evictions,
                "reaped": self._reaped,
                "workers_reserved": self._workers_reserved,
                "worker_budget": self._worker_budget,
                "engines_per_model": self._engines_per_model,
                "workers_per_engine": self._workers_per_engine,
            }

    def close(self) -> None:
        """Close every engine; waiting checkouts fail, leases stay valid.

        An engine still leased out is closed by its holder's
        :meth:`release`/:meth:`discard` path finding the pool closed — the
        pool only closes what is on the shelf.
        """
        with self._leases_changed:
            if self._closed:
                return
            self._closed = True
            doomed = [
                entry.engine
                for entries in self._entries.values()
                for entry in entries
                if not entry.busy
            ]
            for entries in self._entries.values():
                entries[:] = [entry for entry in entries if entry.busy]
            self._leases_changed.notify_all()
        for engine in doomed:
            engine.close()

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
