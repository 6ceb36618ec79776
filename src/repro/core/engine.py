"""Persistent shared-memory parallel synthesis engine.

The paper generates millions of plausibly-deniable synthetics by running many
tool instances in parallel (Section 5, Figure 5).  :class:`SynthesisEngine`
reproduces that with a long-lived execution layer:

* **Shared memory instead of per-task pickling.**  The seed matrix — and the
  Bayesian-network conditional tables where feasible — live in
  ``multiprocessing.shared_memory`` segments created once per engine; workers
  attach zero-copy read-only views at startup.  Only a small skeleton spec
  (schema, structure, array offsets) is pickled, once, when the pool starts.

* **Parent-scheduled until-N dispatch.**  Each worker owns one duplex pipe
  and holds at most one fixed-size chunk at a time; the parent hands the
  next chunk to whichever worker replies first, so fast workers take more
  load instead of idling behind a static split.  The parent also counts the
  releases each request has received and stops handing out its chunks once
  the target is met, so an until-N run stops within about one chunk per
  worker of the target instead of burning a static attempt budget.  Each
  until-N chunk itself runs the mechanism's until-N loop with the lane's
  target minus the releases of its contiguous received prefix, so it ends at
  the batch that holds the lane's Nth release; fixed-budget chunks run in
  full.

* **Deterministic chunk streams.**  Chunk ``i`` always uses the RNG stream
  ``SeedSequence(base_seed, spawn_key=(i,))`` (exactly the ``i``-th spawned
  child of ``SeedSequence(base_seed)``), so a chunk's content depends only on
  its index — never on which worker ran it or on scheduling order.  The
  merged report is the in-order concatenation of the chunk reports truncated
  at the Nth release, which makes every worker count produce the *identical*
  release and accounting as the serial in-process run on the same chunks.
  A chunk that stopped early is a prefix of the full chunk that reaches past
  the point where the merge truncates, so stopping early changes no row.
  Chunks a speculating worker completes beyond that point are discarded
  without being recorded; like the unrecorded remainder of the final batch in
  the mechanism's until-N loop, they are i.i.d. proposals whose omission
  introduces no bias.

* **Request folding.**  :meth:`SynthesisEngine.generate_folded` fuses many
  until-N requests into ONE pool job: each request becomes a *lane* with its
  own base seed, attempt budget, release target and lane-local chunk grid,
  and the lanes' chunk plans are round-robin interleaved into a single
  dispatch.  Because a chunk's content is a pure function of (lane seed,
  local index), every lane's merged report is bit-identical to running that
  request alone — folding changes only *when* chunks run, never what they
  contain.  The serving layer uses this to turn K queued requests for one
  model into one fused scan instead of K convoyed runs.

* **Streaming columnar reports and checkpoints.**  Chunk reports arrive
  incrementally (``progress`` callback) as the columns of
  :meth:`~repro.core.results.SynthesisReport.to_arrays` and can be
  checkpointed to a :class:`~repro.core.run_store.RunStore` under the same
  keys, so a crashed or repeated run resumes from its completed chunks
  instead of regenerating them.

* **Worker supervision with deterministic chunk retry.**  The parent knows
  which chunk each worker holds, and it waits on the pipes and the process
  sentinels together, so a worker death is seen the moment it happens.  The
  parent respawns a replacement against the *existing* shared-memory
  segments and requeues exactly the chunk the dead worker held — the rerun
  is bit-identical because a chunk's content is a pure function of its
  index.  Retries are bounded by ``max_chunk_retries``; past the bound the
  job fails with :class:`ChunkRetryExhaustedError` while the pool (already
  repaired) stays usable.  An unrepairable pool — a worker that cannot start,
  or a respawn that itself fails — marks the engine broken and every
  subsequent call raises :class:`EngineBrokenError`.
  :meth:`SynthesisEngine.pool_health` exposes the restart and per-chunk
  retry counters next to :meth:`SynthesisEngine.workload_fingerprint`.

The serial reference loop (``num_workers=1``, which runs fully in-process
with no subprocesses or shared memory) is the equivalence oracle for the
parallel path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait
from multiprocessing.shared_memory import SharedMemory
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport
from repro.obs.profile import phase as obs_phase
from repro.core.run_store import RunStore, dataset_fingerprint
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.generative.base import GenerativeModel
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = [
    "ChunkProgress",
    "ChunkRetryExhaustedError",
    "EngineBrokenError",
    "FoldSpec",
    "SynthesisEngine",
    "chunk_rng",
]

class EngineBrokenError(RuntimeError):
    """The worker pool is unrecoverable; the engine refuses further work.

    Raised when a worker cannot start (it fails to rebuild its mechanism or
    dies before reporting ready) or a supervised respawn itself fails.  The
    broken flag is sticky: every subsequent run call fails fast with this
    error.  Build a fresh engine to continue.
    """


class ChunkRetryExhaustedError(RuntimeError):
    """A chunk's crash-retry budget (``max_chunk_retries``) ran out.

    The failing *job* is abandoned cleanly, but the pool has already been
    repaired — every dead worker respawned — so the engine itself remains
    usable for subsequent runs.
    """

    def __init__(self, message: str, chunk_indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.chunk_indices = chunk_indices


def chunk_rng(base_seed: int, chunk_index: int) -> np.random.Generator:
    """The deterministic RNG stream of one dispatch chunk.

    ``SeedSequence(base_seed, spawn_key=(i,))`` is precisely the ``i``-th
    child ``SeedSequence(base_seed).spawn(...)`` would produce, constructed
    statelessly so any worker can derive any chunk's stream independently.
    """
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(chunk_index,)))


@dataclass(frozen=True)
class ChunkProgress:
    """One incremental progress event: a chunk report arrived at the parent.

    ``lane_index`` identifies which fold lane (request) owns the chunk —
    always 0 for unfolded single-request jobs — so the serving layer can
    attribute per-chunk telemetry spans to the right request.
    ``chunk_attempts`` counts the attempts the chunk proposed: fewer than
    its size when an until-N chunk stopped early.
    """

    chunk_index: int
    chunk_attempts: int
    chunk_released: int
    total_attempts: int
    total_released: int
    from_checkpoint: bool = False
    lane_index: int = 0


# --------------------------------------------------------------------------- #
# Shared-memory packing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside a shared-memory segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


def _pack_arrays(arrays: Sequence[np.ndarray]) -> tuple[SharedMemory, list[_ArraySpec]]:
    """Copy arrays into one freshly created shared-memory segment."""
    contiguous = [np.ascontiguousarray(array) for array in arrays]
    specs: list[_ArraySpec] = []
    offset = 0
    for array in contiguous:
        offset = (offset + 63) & ~63  # 64-byte alignment for clean vector loads
        specs.append(_ArraySpec(offset, array.shape, array.dtype.str))
        offset += array.nbytes
    segment = SharedMemory(create=True, size=max(offset, 1))
    for array, spec in zip(contiguous, specs):
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf, offset=spec.offset)
        view[...] = array
    return segment, specs


def _attach_segment(name: str) -> SharedMemory:
    """Attach an existing segment without adopting its lifetime.

    On POSIX Pythons before 3.13 *attaching* also registers the segment with
    the resource tracker.  Spawned workers share the parent's tracker
    process, whose cache is a per-name set, so the duplicate registration is
    a no-op and the parent's ``unlink()`` unregisters exactly once; an
    explicit worker-side unregister would instead delete the parent's entry
    and make the final unlink double-unregister.  (If the parent dies
    without cleanup, the shared tracker unlinks the leaked segment — which
    is the behaviour we want.)
    """
    return SharedMemory(name=name)


def _attach_array(segment: SharedMemory, spec: _ArraySpec) -> np.ndarray:
    view = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf, offset=spec.offset
    )
    view.flags.writeable = False
    return view


# --------------------------------------------------------------------------- #
# Worker-side state
# --------------------------------------------------------------------------- #
@dataclass
class _WorkerSpec:
    """Everything a worker needs to rebuild its mechanism and run chunks,
    pickled once."""

    schema_attributes: tuple
    params: PlausibleDeniabilityParams
    batch_size: int | None
    seed_segment: str
    seed_spec: _ArraySpec
    # Bayesian-network fast path: tables live in shared memory.
    table_segment: str | None = None
    structure: object | None = None
    omegas: tuple[int, ...] | None = None
    tables_meta: list[tuple[int, tuple[int, ...], tuple[int, ...], _ArraySpec, _ArraySpec, _ArraySpec]] | None = None
    # Fallback for arbitrary models: pickled once per worker (not per task).
    fallback_model: GenerativeModel | None = None


@dataclass(frozen=True)
class FoldSpec:
    """One request of a folded :meth:`SynthesisEngine.generate_folded` call.

    Mirrors the corresponding :meth:`SynthesisEngine.generate` arguments.
    The folded run's report for this spec is bit-identical to the standalone
    ``generate(num_released, base_seed=..., max_attempts=...)`` call, because
    each spec becomes its own *lane* with its own chunk-local RNG streams.
    """

    num_released: int
    base_seed: int = 0
    max_attempts: int | None = None


@dataclass(frozen=True)
class _Lane:
    """One request's share of a (possibly fused) job.

    A lane owns a standalone attempt budget, base seed and release target;
    its chunk-local indices ``0..num_chunks-1`` are seeded exactly as an
    unfolded run of the same request, so a lane's output never depends on
    which other lanes shared the job.
    """

    limit: int
    base_seed: int
    target_released: int | None

    def num_chunks(self, chunk_size: int) -> int:
        return -(-self.limit // chunk_size) if self.limit > 0 else 0

    def chunk_attempts(self, local_index: int, chunk_size: int) -> int:
        return min(chunk_size, self.limit - local_index * chunk_size)


def _fold_plan(lane_chunks: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Round-robin interleaving of the lanes' chunk plans.

    Round ``r`` visits every lane that still has an ``r``-th chunk, in lane
    order, so dispatch stays close to *every* lane's release frontier:
    until-N lanes stop within about one chunk of their target instead of
    speculating deep into one request while another starves.  Within a lane
    the plan preserves local order — the parent's skip rule relies on a
    lane's chunks going out in lane-local order.
    """
    plan: list[tuple[int, int]] = []
    for round_index in range(max(lane_chunks, default=0)):
        for lane_index, count in enumerate(lane_chunks):
            if round_index < count:
                plan.append((lane_index, round_index))
    return tuple(plan)


def _lane_globals(job: "_Job") -> list[list[int]]:
    """Per lane, the global chunk indices of its local chunks, in local order."""
    if job.plan is None:
        return [list(range(job.num_chunks))]
    table: list[list[int]] = [[] for _ in job.lanes]
    for index, (lane_index, _local_index) in enumerate(job.plan):
        table[lane_index].append(index)
    return table


@dataclass(frozen=True)
class _Job:
    """One dispatched run: one or more request lanes over a shared chunk plan.

    ``plan`` maps global chunk index to ``(lane, lane-local chunk)``; ``None``
    is the identity plan of a single-lane job (the common, unfolded case),
    kept implicit so the per-chunk hot path pays no table lookup.
    ``completed`` holds *global* indices adopted from a checkpoint.
    """

    chunk_size: int
    batch_size: int | None
    lanes: tuple[_Lane, ...]
    plan: tuple[tuple[int, int], ...] | None
    completed: frozenset[int]

    @property
    def num_chunks(self) -> int:
        if self.plan is not None:
            return len(self.plan)
        return self.lanes[0].num_chunks(self.chunk_size)

    def entry(self, index: int) -> tuple[int, int]:
        """``(lane index, lane-local chunk index)`` of global chunk ``index``."""
        return self.plan[index] if self.plan is not None else (0, index)

    def chunk_attempts(self, index: int) -> int:
        lane_index, local_index = self.entry(index)
        return self.lanes[lane_index].chunk_attempts(local_index, self.chunk_size)

    # Single-lane accessors: checkpoint signatures and resume metadata address
    # the unfolded case through these (folded jobs never checkpoint).
    @property
    def limit(self) -> int:
        return self.lanes[0].limit

    @property
    def base_seed(self) -> int:
        return self.lanes[0].base_seed

    @property
    def target_released(self) -> int | None:
        return self.lanes[0].target_released


def _build_worker_mechanism(spec: _WorkerSpec, segments: list[SharedMemory]) -> SynthesisMechanism:
    schema = Schema(list(spec.schema_attributes))
    seed_segment = _attach_segment(spec.seed_segment)
    segments.append(seed_segment)
    seeds = Dataset(schema, _attach_array(seed_segment, spec.seed_spec))

    if spec.fallback_model is not None:
        model: GenerativeModel = spec.fallback_model
    else:
        from repro.generative.bayesian_network import BayesianNetworkSynthesizer
        from repro.generative.parameters import ConditionalParameters

        assert spec.table_segment is not None and spec.tables_meta is not None
        table_segment = _attach_segment(spec.table_segment)
        segments.append(table_segment)
        tables = []
        for attribute_index, parents, cardinalities, table_spec, counts_spec, prior_spec in spec.tables_meta:
            tables.append(
                ConditionalParameters(
                    attribute_index=attribute_index,
                    parents=tuple(parents),
                    parent_cardinalities=tuple(cardinalities),
                    table=_attach_array(table_segment, table_spec),
                    counts=_attach_array(table_segment, counts_spec),
                    prior=_attach_array(table_segment, prior_spec),
                )
            )
        model = BayesianNetworkSynthesizer(schema, spec.structure, tables, spec.omegas)
    return SynthesisMechanism(model, seeds, spec.params).prepare()


class _ChunkTask(NamedTuple):
    """One chunk sent to a worker: its lane's RNG stream, its size and, for
    an until-N lane, the releases the chunk may stop at (``None``: run all
    attempts)."""

    index: int
    base_seed: int
    local_index: int
    attempts: int
    need: int | None


def _run_chunk(
    mechanism: SynthesisMechanism, task: _ChunkTask, batch_size: int | None
) -> SynthesisReport:
    """One chunk's report: the mechanism's loop on the chunk's RNG stream.

    An until-N chunk stops at the batch that holds its ``need``-th release.
    Its report is then a prefix of the full chunk's, and since ``need`` never
    falls below what the lane still lacks, the merge truncates inside that
    prefix: the merged rows are those of a full-chunk run.
    """
    rng = chunk_rng(task.base_seed, task.local_index)
    if task.need is None:
        return mechanism.run_attempts(task.attempts, rng, batch_size=batch_size)
    return mechanism.generate(
        task.need, rng, max_attempts=task.attempts, batch_size=batch_size
    )


def _worker_main(spec: _WorkerSpec, conn, fault) -> None:
    """Worker entry point: build the mechanism once, then run chunks forever.

    The first message on ``conn`` is ``("ready", None)``, or ``("broken",
    traceback)`` when the mechanism cannot be rebuilt.  After that every
    request is one :class:`_ChunkTask` and gets exactly one reply:
    ``("chunk", report arrays)`` or ``("error", traceback)``.  A closed pipe
    ends the worker.  ``fault`` is an optional :mod:`repro.testing.faults`
    injection point fired before each chunk.
    """
    segments: list[SharedMemory] = []
    try:
        try:
            mechanism = _build_worker_mechanism(spec, segments)
        except Exception:
            conn.send(("broken", traceback.format_exc()))
            return
        conn.send(("ready", None))
        while True:
            task = conn.recv()
            try:
                if fault is not None:
                    fault.fire(task.index)
                reply = ("chunk", _run_chunk(mechanism, task, spec.batch_size).to_arrays())
            except Exception:
                reply = ("error", traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent closed its end of the pipe


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class SynthesisEngine:
    """Chunk-dispatching synthesis executor with a persistent worker pool.

    Parameters
    ----------
    model:
        The fitted generative model.  Bayesian-network synthesizers have
        their conditional tables placed in shared memory; other models are
        pickled once per worker at pool startup.
    seed_dataset:
        The seed split DS; its matrix is placed in shared memory.
    params:
        Plausible-deniability test parameters.
    num_workers:
        ``1`` (default) runs every chunk in-process — the serial reference
        path.  Larger values start that many spawn-context worker processes
        the first time a run method is called; the pool then persists across
        calls until :meth:`close`.
    chunk_size:
        Attempts per dispatched chunk.  Smaller chunks balance load better
        and tighten the until-N stopping window; larger chunks amortize
        dispatch overhead.  The chunk grid is part of a run's RNG layout, so
        reproducing or resuming a run requires the same chunk size.
    batch_size:
        Vectorized proposal batch size used inside each chunk (``None``/1
        selects the single-record reference loop).
    run_store:
        Optional :class:`~repro.core.run_store.RunStore`; run methods given a
        ``run_id`` checkpoint completed chunks there and resume from them.
    max_chunk_retries:
        How many times a chunk lost to a *crashed* worker may be re-executed
        before the job fails with :class:`ChunkRetryExhaustedError`.  ``0``
        disables retry (any crash mid-chunk fails the job) while still
        respawning the dead worker so the engine stays usable.
    fault_injector:
        Optional :mod:`repro.testing.faults` fault point fired by each worker
        before executing a chunk (chaos tests only; must be picklable).

    Use as a context manager (or call :meth:`close`) so worker processes and
    shared-memory segments are released deterministically.
    """

    def __init__(
        self,
        model: GenerativeModel,
        seed_dataset: Dataset,
        params: PlausibleDeniabilityParams,
        *,
        num_workers: int = 1,
        chunk_size: int = 512,
        batch_size: int | None = 256,
        run_store: RunStore | None = None,
        max_chunk_retries: int = 2,
        fault_injector=None,
        event_sink=None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when provided")
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be non-negative")
        # Constructing the mechanism validates the schema and seed count, for
        # every worker count and before any process is spawned.
        self._local_mechanism = SynthesisMechanism(model, seed_dataset, params)
        self._model = model
        self._seeds = seed_dataset
        self._schema = seed_dataset.schema
        self._params = params
        self._num_workers = num_workers
        self._chunk_size = chunk_size
        self._batch_size = batch_size
        self._run_store = run_store
        self._max_chunk_retries = max_chunk_retries
        self._fault_injector = fault_injector
        # Optional supervision-event callback ``(kind, payload)`` with kind
        # in {"worker_restart", "chunk_retry"}.  Telemetry only: it must not
        # raise, and it never influences execution.
        self._event_sink = event_sink
        self._workload_digest: str | None = None
        # Pool state (populated by start() when num_workers > 1): per slot,
        # the worker process, the parent's end of its pipe and the chunk it
        # holds (None when idle).
        self._started = False
        self._closed = False
        self._broken = False
        self._worker_spec: _WorkerSpec | None = None
        self._processes: list = []
        self._conns: list = []
        self._held: list[int | None] = []
        self._segments: list[SharedMemory] = []
        # Supervision bookkeeping.
        self._worker_restarts = 0
        self._chunk_retries: dict[int, int] = {}  # chunk -> crash re-executions (current job)

    @property
    def num_workers(self) -> int:
        """Number of worker processes (1 = serial in-process reference path)."""
        return self._num_workers

    @property
    def chunk_size(self) -> int:
        """Attempts per dispatched chunk."""
        return self._chunk_size

    @property
    def batch_size(self) -> int | None:
        """Vectorized proposal batch size inside each chunk (None/1 = reference loop)."""
        return self._batch_size

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _check_usable(self) -> None:
        if self._broken:
            raise EngineBrokenError("the engine pool is broken; build a fresh engine")
        if self._closed:
            raise RuntimeError("the engine has been closed")

    def start(self) -> "SynthesisEngine":
        """Start the worker pool eagerly (otherwise started on first run).

        Blocks until every worker has attached the shared-memory segments,
        rebuilt its mechanism and reported ready, so subsequent run calls
        (and their timings) contain no startup cost.  A worker that cannot
        start breaks the engine (:class:`EngineBrokenError`).  A no-op for
        ``num_workers=1`` and for an already started pool.
        """
        self._check_usable()
        if self._num_workers == 1 or self._started:
            return self
        self._started = True
        self._worker_spec = self._build_worker_spec()
        self._processes = [None] * self._num_workers
        self._conns = [None] * self._num_workers
        self._held = [None] * self._num_workers
        for slot in range(self._num_workers):
            self._spawn_worker(slot)
        for slot, conn in enumerate(self._conns):
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                kind, payload = "died", "the worker exited before reporting ready"
            if kind != "ready":
                raise self._break(f"engine worker {slot} failed to start:\n{payload}")
        return self

    def _spawn_worker(self, slot: int) -> None:
        """(Re)start the worker of ``slot`` on a fresh pipe, against the
        existing shared-memory segments."""
        context = get_context("spawn")
        conn, child_conn = context.Pipe()
        try:
            process = context.Process(
                target=_worker_main,
                args=(self._worker_spec, child_conn, self._fault_injector),
                daemon=True,
            )
            process.start()
        except Exception as exc:
            conn.close()
            raise self._break(
                f"failed to (re)spawn engine worker {slot}: {exc}"
            ) from exc
        finally:
            # Only the worker may hold its end: its death must read as EOF.
            child_conn.close()
        self._processes[slot] = process
        self._conns[slot] = conn
        self._held[slot] = None

    def _break(self, message: str) -> EngineBrokenError:
        """Mark the engine broken for good, stop the pool, return the error."""
        self._broken = True
        self.close()
        return EngineBrokenError(message)

    def close(self) -> None:
        """Stop the workers and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is not None:
                conn.close()  # the worker reads EOF (or a busy one EPIPE) and exits
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        self._segments.clear()
        self._processes.clear()
        self._conns.clear()
        self._held.clear()

    def _build_worker_spec(self) -> _WorkerSpec:
        seed_segment, (seed_spec,) = _pack_arrays([self._seeds.data])
        self._segments.append(seed_segment)
        common = dict(
            schema_attributes=tuple(self._schema.attributes),
            params=self._params,
            batch_size=self._batch_size,
            seed_segment=seed_segment.name,
            seed_spec=seed_spec,
        )
        from repro.generative.bayesian_network import BayesianNetworkSynthesizer

        if not isinstance(self._model, BayesianNetworkSynthesizer):
            return _WorkerSpec(fallback_model=self._model, **common)
        arrays: list[np.ndarray] = []
        for table in self._model.tables:
            arrays.extend([table.table, table.counts, table.prior])
        table_segment, specs = _pack_arrays(arrays)
        self._segments.append(table_segment)
        tables_meta = [
            (
                table.attribute_index,
                table.parents,
                table.parent_cardinalities,
                specs[3 * index],
                specs[3 * index + 1],
                specs[3 * index + 2],
            )
            for index, table in enumerate(self._model.tables)
        ]
        return _WorkerSpec(
            table_segment=table_segment.name,
            structure=self._model.structure,
            omegas=self._model.omegas,
            tables_meta=tables_meta,
            **common,
        )

    # ------------------------------------------------------------------ #
    # Run modes
    # ------------------------------------------------------------------ #
    def run_attempts(
        self,
        num_attempts: int,
        base_seed: int = 0,
        *,
        progress: Callable[[ChunkProgress], None] | None = None,
        run_id: str | None = None,
    ) -> SynthesisReport:
        """Propose exactly ``num_attempts`` candidates across the pool.

        The result is identical for every worker count: it equals the
        concatenation of the deterministic per-chunk reports in chunk order.
        ``base_seed`` selects the family of chunk streams — reuse it to
        reproduce a run, vary it to draw fresh candidates.
        """
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        return self._execute(
            limit=num_attempts,
            target_released=None,
            base_seed=base_seed,
            progress=progress,
            run_id=run_id,
        )

    def generate(
        self,
        num_released: int,
        base_seed: int = 0,
        *,
        max_attempts: int | None = None,
        progress: Callable[[ChunkProgress], None] | None = None,
        run_id: str | None = None,
    ) -> SynthesisReport:
        """Propose candidates until ``num_released`` pass the privacy test.

        The parent stops handing out chunks once the releases it has received
        meet the target, so generation stops within about one chunk per
        worker of the target instead of running out a static attempt budget.
        ``max_attempts`` (default: 100 per requested record, as in the serial
        mechanism) still bounds the run when the parameters are too strict to
        reach the target.  The released records and the merged accounting are
        identical for every worker count.
        """
        if num_released < 0:
            raise ValueError("num_released must be non-negative")
        limit = max_attempts if max_attempts is not None else 100 * max(1, num_released)
        if limit < 0:
            raise ValueError("max_attempts must be non-negative")
        return self._execute(
            limit=limit,
            target_released=num_released,
            base_seed=base_seed,
            progress=progress,
            run_id=run_id,
        )

    def generate_folded(
        self,
        specs: Sequence[FoldSpec],
        *,
        progress: Callable[[ChunkProgress], None] | None = None,
    ) -> list[SynthesisReport]:
        """Run several :meth:`generate` requests as one fused job.

        Each spec becomes its own *lane*: an independent attempt budget,
        release target and family of chunk RNG streams, exactly as a
        standalone ``generate`` call would lay them out.  The lanes' chunk
        plans are concatenated (round-robin interleaved) into one global
        dispatch over the shared worker pool, so the pool works on all
        requests concurrently instead of convoying one request at a time;
        afterwards the merged results are split back per lane by chunk
        ownership.  The ``i``-th returned report is bit-identical — rows,
        attempts, accounting — to ``generate(specs[i].num_released,
        base_seed=specs[i].base_seed, max_attempts=specs[i].max_attempts)``
        run on its own, for every worker count.

        Folded jobs do not checkpoint (no ``run_id``): they are the serving
        layer's fast path, where per-request idempotency already provides
        replay.
        """
        lanes: list[_Lane] = []
        for spec in specs:
            if spec.num_released < 0:
                raise ValueError("num_released must be non-negative")
            limit = (
                spec.max_attempts
                if spec.max_attempts is not None
                else 100 * max(1, spec.num_released)
            )
            if limit < 0:
                raise ValueError("max_attempts must be non-negative")
            lanes.append(
                _Lane(
                    limit=limit,
                    base_seed=spec.base_seed,
                    target_released=spec.num_released,
                )
            )
        if not lanes:
            return []
        plan = None
        if len(lanes) > 1:
            plan = _fold_plan(
                [lane.num_chunks(self._chunk_size) for lane in lanes]
            )
        return self._execute_lanes(tuple(lanes), plan, progress, run_id=None)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        limit: int,
        target_released: int | None,
        base_seed: int,
        progress: Callable[[ChunkProgress], None] | None,
        run_id: str | None,
    ) -> SynthesisReport:
        lanes = (
            _Lane(limit=limit, base_seed=base_seed, target_released=target_released),
        )
        return self._execute_lanes(lanes, None, progress, run_id)[0]

    def _execute_lanes(
        self,
        lanes: tuple[_Lane, ...],
        plan: tuple[tuple[int, int], ...] | None,
        progress: Callable[[ChunkProgress], None] | None,
        run_id: str | None,
    ) -> list[SynthesisReport]:
        self._check_usable()
        job = _Job(
            chunk_size=self._chunk_size,
            batch_size=self._batch_size,
            lanes=lanes,
            plan=plan,
            completed=frozenset(),
        )
        # Only the contiguous prefix of checkpointed chunks is adopted: a
        # post-gap chunk's releases would count toward the lane's target and
        # could stop dispatch before the gap is ever filled, silently
        # under-delivering.  Gap and post-gap chunks are simply regenerated —
        # chunk content is a pure function of the chunk index, so the rerun
        # is bit-identical to the checkpoint it replaces.
        loaded = self._load_checkpoint(job, run_id)
        reports: dict[int, SynthesisReport] = {}
        index = 0
        while index in loaded:
            reports[index] = loaded[index]
            index += 1
        if reports:
            job = dataclasses.replace(job, completed=frozenset(reports))
        tracker = _ProgressTracker(progress, job)
        for index in sorted(reports):
            tracker.emit(index, reports[index], from_checkpoint=True)

        if self._num_workers == 1:
            self._run_in_process(job, reports, tracker, run_id)
        else:
            self.start()
            self._run_on_pool(job, reports, tracker, run_id)
        return self._finalize(job, reports)

    def _run_in_process(
        self,
        job: _Job,
        reports: dict[int, SynthesisReport],
        tracker: "_ProgressTracker",
        run_id: str | None,
    ) -> None:
        mechanism = self._local_mechanism.prepare()
        lane_globals = _lane_globals(job)
        # Lanes run one after the other — literally the K serial unfolded
        # requests — which is exactly what the pool path must be bit-identical
        # to (chunk content is a pure function of (lane seed, local index), so
        # execution order never matters).
        for lane_index, lane in enumerate(job.lanes):
            released = 0
            for local_index, index in enumerate(lane_globals[lane_index]):
                target = lane.target_released
                if target is not None and released >= target:
                    break
                report = reports.get(index)
                if report is None:
                    task = _ChunkTask(
                        index,
                        lane.base_seed,
                        local_index,
                        lane.chunk_attempts(local_index, job.chunk_size),
                        None if target is None else target - released,
                    )
                    report = _run_chunk(mechanism, task, job.batch_size)
                    reports[index] = report
                    self._save_checkpoint(run_id, index, report.to_arrays())
                    tracker.emit(index, report)
                released += report.num_released

    def _run_on_pool(
        self,
        job: _Job,
        reports: dict[int, SynthesisReport],
        tracker: "_ProgressTracker",
        run_id: str | None,
    ) -> None:
        """Schedule the job's chunks over the worker pipes until every lane
        is satisfied.

        Each idle worker gets one chunk: a requeued chunk first, otherwise the
        next one in plan order, skipping the chunks of a lane whose received
        releases already meet its target.  The plan keeps lane-local order,
        so every chunk below a skipped one is received or held by a worker
        (and requeued if that worker dies): skipping never opens a gap in a
        lane's merged prefix.  A requeued chunk is dropped instead once its
        lane's prefix is satisfied.  An until-N chunk may stop at the lane's
        target minus the releases of its contiguous received prefix, a bound
        the chunk's final share of the merge never exceeds.
        """
        while any(held is not None for held in self._held):
            self._next_replies()  # replies to a returned or failed job: discard
        self._chunk_retries = {}  # fresh crash-retry budget per job
        prefix = _FoldPrefix(job, reports)
        received = [0] * len(job.lanes)
        for index in job.completed:
            received[job.entry(index)[0]] += reports[index].num_released
        requeued: deque[int] = deque()
        fresh = iter(range(job.num_chunks))

        def next_chunk() -> int | None:
            while requeued:
                index = requeued.popleft()
                if not prefix.lane_satisfied(job.entry(index)[0]):
                    return index
            for index in fresh:
                lane_index, _local_index = job.entry(index)
                target = job.lanes[lane_index].target_released
                if index not in job.completed and (
                    target is None or received[lane_index] < target
                ):
                    return index
            return None

        while not prefix.all_satisfied():
            for slot, held in enumerate(self._held):
                if held is None and (index := next_chunk()) is not None:
                    need = prefix.need(job.entry(index)[0])
                    self._send_chunk(slot, job, index, need)
            if all(held is None for held in self._held):
                break  # nothing left to run; _finalize reports any shortfall
            for kind, index, payload in self._next_replies():
                if kind == "died":
                    if index is not None:
                        self._requeue_chunk(index, requeued)
                elif kind == "error":
                    raise RuntimeError(f"engine worker failed:\n{payload}")
                else:
                    report = SynthesisReport.from_arrays(self._schema, payload)
                    reports[index] = report
                    lane_index = job.entry(index)[0]
                    received[lane_index] += report.num_released
                    self._save_checkpoint(run_id, index, payload)
                    tracker.emit(index, report)
                    prefix.advance(lane_index)

    def _send_chunk(self, slot: int, job: _Job, index: int, need: int | None) -> None:
        """Hand chunk ``index`` to the idle worker of ``slot``."""
        lane_index, local_index = job.entry(index)
        task = _ChunkTask(
            index,
            job.lanes[lane_index].base_seed,
            local_index,
            job.chunk_attempts(index),
            need,
        )
        try:
            self._conns[slot].send(task)
        except OSError:
            # The worker died idle and never got the chunk: the replacement
            # takes it, uncharged (its pipe buffers the task until it is up).
            self._replace_worker(slot)
            self._conns[slot].send(task)
        self._held[slot] = index

    def _next_replies(self) -> list[tuple[str, int | None, object]]:
        """Block until some worker replies or dies; one event per such worker.

        Events are ``(kind, chunk, payload)``: ``"chunk"`` (payload: the
        report arrays) or ``"error"`` (payload: the traceback) answers the
        chunk the worker held, and ``"died"`` names the chunk a dead worker
        held (None when idle) after a replacement has been spawned.  A dead
        worker's pipe still yields every message it sent before EOF, so no
        delivered chunk is ever rerun.  The ``"ready"`` of a respawned worker
        answers no chunk and is skipped.
        """
        sentinels = [process.sentinel for process in self._processes]
        ready = set(wait([*self._conns, *sentinels]))
        events: list[tuple[str, int | None, object]] = []
        for slot, conn in enumerate(self._conns):
            if conn not in ready and sentinels[slot] not in ready:
                continue
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                events.append(("died", self._replace_worker(slot), None))
                continue
            if kind == "broken":
                raise self._break(f"engine worker {slot} failed to restart:\n{payload}")
            if kind != "ready":
                events.append((kind, self._held[slot], payload))
                self._held[slot] = None
        return events

    def _emit_event(self, kind: str, payload: dict) -> None:
        """Forward one supervision event to the telemetry sink, if any."""
        if self._event_sink is not None:
            self._event_sink(kind, payload)

    def _replace_worker(self, slot: int) -> int | None:
        """Respawn the dead worker of ``slot``; return the chunk it held."""
        lost = self._held[slot]
        self._worker_restarts += 1
        self._emit_event(
            "worker_restart", {"slot": slot, "lost_chunk": -1 if lost is None else lost}
        )
        self._conns[slot].close()
        process = self._processes[slot]
        process.kill()  # EOF can precede the exit by a moment
        process.join()
        self._spawn_worker(slot)  # raises EngineBrokenError on failure
        return lost

    def _requeue_chunk(self, index: int, requeued: deque) -> None:
        """Queue a crashed chunk for re-execution, charging its retry budget."""
        retries = self._chunk_retries.get(index, 0)
        if retries >= self._max_chunk_retries:
            raise ChunkRetryExhaustedError(
                f"chunk {index} crashed more than max_chunk_retries="
                f"{self._max_chunk_retries} times; the job was abandoned but the "
                "pool has been repaired and the engine remains usable",
                chunk_indices=(index,),
            )
        self._chunk_retries[index] = retries + 1
        self._emit_event("chunk_retry", {"chunk": index, "retries": retries + 1})
        requeued.append(index)

    def _finalize(
        self, job: _Job, reports: dict[int, SynthesisReport]
    ) -> list[SynthesisReport]:
        """Per lane, merge the in-order chunk prefix truncated at its target."""
        lane_globals = _lane_globals(job)
        merged: list[SynthesisReport] = []
        with obs_phase("merge"):
            for lane_index, lane in enumerate(job.lanes):
                ordered: list[SynthesisReport] = []
                released = 0
                for index in lane_globals[lane_index]:
                    if lane.target_released is not None and released >= lane.target_released:
                        break
                    report = reports.get(index)
                    if report is None:
                        if lane.target_released is None:
                            raise RuntimeError(f"chunk {index} was never completed")
                        break
                    ordered.append(report)
                    released += report.num_released
                merged.append(
                    SynthesisReport.merged(
                        self._schema, ordered, stop_after_released=lane.target_released
                    )
                )
        return merged

    # ------------------------------------------------------------------ #
    # Pool health
    # ------------------------------------------------------------------ #
    def pool_health(self) -> dict:
        """Supervision counters next to the workload identity.

        ``worker_restarts`` counts every supervised respawn over the engine's
        lifetime; ``chunk_retries`` maps chunk index to
        crash re-executions for the most recent pool job; ``workers_alive``
        is the live process count (0 on the serial path, which has no pool
        to supervise).
        """
        return {
            "num_workers": self._num_workers,
            "workers_alive": sum(
                1 for p in self._processes if p is not None and p.is_alive()
            ),
            "worker_restarts": self._worker_restarts,
            "chunk_retries": dict(self._chunk_retries),
            "max_chunk_retries": self._max_chunk_retries,
            "broken": self._broken,
        }

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def workload_fingerprint(self) -> str:
        """Content hash of the model and seed dataset driving this engine.

        Part of every run's checkpoint signature: resuming a run id against a
        refitted model or a different seed split would otherwise silently
        merge chunks generated from different distributions into one report.
        The serving layer also uses it to prove two engines serve the same
        published workload.
        """
        if self._workload_digest is None:
            from repro.generative.bayesian_network import BayesianNetworkSynthesizer

            digest = hashlib.sha256()
            digest.update(dataset_fingerprint(self._seeds).encode())
            if isinstance(self._model, BayesianNetworkSynthesizer):
                digest.update(repr(self._model.structure.parents).encode())
                digest.update(repr(self._model.structure.order).encode())
                digest.update(repr(self._model.omegas).encode())
                for table in self._model.tables:
                    digest.update(np.ascontiguousarray(table.table).tobytes())
            else:
                import pickle

                digest.update(pickle.dumps(self._model, protocol=4))
            self._workload_digest = digest.hexdigest()
        return self._workload_digest

    def _job_signature(self, job: _Job) -> dict:
        return {
            "limit": job.limit,
            "chunk_size": job.chunk_size,
            "base_seed": job.base_seed,
            "batch_size": job.batch_size,
            "target_released": job.target_released,
            "k": self._params.k,
            "gamma": self._params.gamma,
            "epsilon0": self._params.epsilon0,
            "max_plausible": self._params.max_plausible,
            "max_check_plausible": self._params.max_check_plausible,
            "workload": self.workload_fingerprint(),
        }

    def _load_checkpoint(self, job: _Job, run_id: str | None) -> dict[int, SynthesisReport]:
        if self._run_store is None or run_id is None:
            return {}
        signature = self._job_signature(job)
        stored = self._run_store.load_run_meta(run_id)
        if stored is None:
            self._run_store.save_run_meta(run_id, signature)
            return {}
        if stored != signature:
            raise ValueError(
                f"run {run_id!r} was checkpointed with a different job signature "
                f"({stored}) than requested ({signature}); use a fresh run id or "
                "matching parameters"
            )
        return {
            index: SynthesisReport.from_arrays(self._schema, arrays)
            for index, arrays in self._run_store.load_chunks(run_id).items()
            if index < job.num_chunks
        }

    def _save_checkpoint(self, run_id: str | None, index: int, arrays: dict) -> None:
        if self._run_store is not None and run_id is not None:
            self._run_store.save_chunk(run_id, index, arrays)


class _FoldPrefix:
    """Per-lane contiguous-prefix release tracking for the collection loop.

    A lane is *satisfied* once the releases over its contiguous lane-local
    chunk prefix meet its target (or all its chunks have been received, for
    fixed-budget lanes).  The pool may stop — without losing bit-identity —
    exactly when every lane is satisfied: each lane's merged report is a
    function of its prefix alone.
    """

    def __init__(self, job: _Job, reports: dict[int, SynthesisReport]):
        self._job = job
        self._reports = reports
        self._lane_globals = _lane_globals(job)
        self._released = [0] * len(job.lanes)
        self._local = [0] * len(job.lanes)
        for lane_index in range(len(job.lanes)):
            self.advance(lane_index)

    def advance(self, lane_index: int) -> None:
        """Extend one lane's prefix over newly received chunk reports."""
        lane_order = self._lane_globals[lane_index]
        local = self._local[lane_index]
        while local < len(lane_order) and lane_order[local] in self._reports:
            self._released[lane_index] += self._reports[lane_order[local]].num_released
            local += 1
        self._local[lane_index] = local

    def need(self, lane_index: int) -> int | None:
        """Releases an unreceived chunk of the lane may stop at: the target
        minus the prefix's releases (``None`` for a fixed-budget lane)."""
        target = self._job.lanes[lane_index].target_released
        return None if target is None else target - self._released[lane_index]

    def lane_satisfied(self, lane_index: int) -> bool:
        lane = self._job.lanes[lane_index]
        if (
            lane.target_released is not None
            and self._released[lane_index] >= lane.target_released
        ):
            return True
        return self._local[lane_index] >= len(self._lane_globals[lane_index])

    def all_satisfied(self) -> bool:
        return all(
            self.lane_satisfied(lane_index)
            for lane_index in range(len(self._job.lanes))
        )


class _ProgressTracker:
    """Accumulates totals and forwards :class:`ChunkProgress` events.

    Holding the job lets every emission carry the owning fold lane, so the
    serving layer can attribute chunk telemetry to the right request.
    """

    def __init__(
        self,
        callback: Callable[[ChunkProgress], None] | None,
        job: "_Job | None" = None,
    ):
        self._callback = callback
        self._job = job
        self._total_attempts = 0
        self._total_released = 0

    def emit(self, index: int, report: SynthesisReport, from_checkpoint: bool = False) -> None:
        self._total_attempts += report.num_attempts
        self._total_released += report.num_released
        if self._callback is not None:
            lane_index = self._job.entry(index)[0] if self._job is not None else 0
            self._callback(
                ChunkProgress(
                    chunk_index=index,
                    chunk_attempts=report.num_attempts,
                    chunk_released=report.num_released,
                    total_attempts=self._total_attempts,
                    total_released=self._total_released,
                    from_checkpoint=from_checkpoint,
                    lane_index=lane_index,
                )
            )
