"""Disk-backed experiment artifact store and run checkpoints.

Benchmark sessions and repeated CLI invocations kept refitting the same DP
models and regenerating the same released datasets from scratch.  Following
the work-sharing theme of the related systems literature (PAPERS.md), a
:class:`RunStore` persists two kinds of state under one root directory:

``artifacts/``
    Content-addressed artifacts: any picklable object (fitted models,
    released datasets, whole pipeline fits) stored under the SHA-256 of a
    canonical-JSON *key payload* describing everything the artifact depends
    on — configuration, seeds, data fingerprint and a store schema version.
    Two processes that build the same payload share the artifact; a payload
    that differs in any field hashes to a different key, so stale reuse is
    structurally impossible (as long as payloads name their inputs honestly).

``runs/<run_id>/``
    Chunk-level synthesis checkpoints written by the parallel engine: one
    ``chunk_<index>.npz`` per completed chunk (the compact array form of a
    :class:`~repro.core.results.SynthesisReport`) plus a ``meta.json`` with
    the job signature.  A crashed or repeated run resumes from the completed
    chunks instead of regenerating them; a signature mismatch (different
    chunk size, base seed, budget, ...) is rejected rather than silently
    mixing incompatible chunks.

Writes are atomic (temp file + ``os.replace``) so a crash mid-write never
leaves a truncated artifact or chunk behind.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
import zipfile
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.datasets.dataset import Dataset

__all__ = [
    "RunStore",
    "RunStoreCorruptionError",
    "canonical_payload",
    "dataset_fingerprint",
]


class RunStoreCorruptionError(RuntimeError):
    """A stored artifact or checkpoint exists but could not be decoded.

    Raised instead of the underlying pickle / zip / json error so callers can
    distinguish "the store is damaged (delete the entry and regenerate)" from
    programming errors.  Atomic writes mean a *crash* never produces this —
    seeing it indicates external corruption (disk fault, manual edit,
    truncated copy).
    """

#: Bump when the stored artifact formats or the fitting algorithms change in a
#: way that invalidates previously stored artifacts.
STORE_VERSION = 1

_RUN_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")
_CHUNK_PATTERN = re.compile(r"^chunk_(\d{8})\.npz$")


def canonical_payload(payload: Any) -> str:
    """Canonical JSON for hashing: sorted keys, tuples as lists, no floats lost.

    Only plain JSON-able values (plus tuples and numpy scalars) are accepted;
    anything else raises so a non-deterministic ``repr`` can never silently
    enter an artifact key.
    """

    def _normalize(value: Any) -> Any:
        if isinstance(value, dict):
            return {str(key): _normalize(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [_normalize(item) for item in value]
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, np.ndarray):
            return [_normalize(item) for item in value.tolist()]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        raise TypeError(
            f"artifact key payloads must be plain JSON-able values, got "
            f"{type(value).__name__}"
        )

    return json.dumps(_normalize(payload), sort_keys=True, separators=(",", ":"))


def dataset_fingerprint(dataset: Dataset) -> str:
    """SHA-256 fingerprint of a dataset's schema and encoded contents."""
    digest = hashlib.sha256()
    for attribute in dataset.schema:
        digest.update(attribute.name.encode())
        digest.update(str(attribute.cardinality).encode())
    matrix = np.ascontiguousarray(dataset.data)
    digest.update(str(matrix.shape).encode())
    digest.update(matrix.tobytes())
    return digest.hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_bytes(data)
    os.replace(temporary, path)


class RunStore:
    """Content-hashed artifacts plus chunk-level run checkpoints on disk."""

    def __init__(self, root: str | Path):
        self._root = Path(root)
        self._artifacts_dir = self._root / "artifacts"
        self._runs_dir = self._root / "runs"
        self._artifacts_dir.mkdir(parents=True, exist_ok=True)
        self._runs_dir.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    # ------------------------------------------------------------------ #
    # Content-addressed artifacts
    # ------------------------------------------------------------------ #
    @staticmethod
    def artifact_key(kind: str, payload: Any) -> str:
        """Content hash of a key payload (plus the store schema version)."""
        body = canonical_payload(
            {"kind": kind, "store_version": STORE_VERSION, "payload": payload}
        )
        return hashlib.sha256(body.encode()).hexdigest()

    def _artifact_path(self, key: str) -> Path:
        if not re.fullmatch(r"[0-9a-f]{64}", key):
            raise ValueError(f"artifact keys are sha-256 hex digests, got {key!r}")
        return self._artifacts_dir / f"{key}.pkl"

    def has_artifact(self, key: str) -> bool:
        """Whether an artifact is stored under ``key``."""
        return self._artifact_path(key).exists()

    def save_artifact(self, key: str, obj: Any) -> None:
        """Pickle ``obj`` under ``key`` (atomic; overwrites an existing entry)."""
        _atomic_write(self._artifact_path(key), pickle.dumps(obj, protocol=4))

    def load_artifact(self, key: str) -> Any:
        """Unpickle the artifact stored under ``key``.

        Loading marks the artifact as recently used (its mtime is bumped),
        which is what :meth:`gc` orders eviction by.
        """
        path = self._artifact_path(key)
        if not path.exists():
            raise KeyError(f"no artifact stored under key {key}")
        data = path.read_bytes()
        try:
            obj = pickle.loads(data)
        except (pickle.PickleError, EOFError, ValueError, IndexError) as exc:
            # AttributeError / ImportError deliberately propagate unchanged:
            # they mean the stored *code* moved (a renamed class — bump
            # STORE_VERSION), not that the bytes on disk are damaged.
            raise RunStoreCorruptionError(
                f"artifact {path} is corrupted and cannot be unpickled: {exc}"
            ) from exc
        try:
            os.utime(path)
        except OSError:
            pass  # recency tracking is best-effort; the load itself succeeded
        return obj

    def artifact_keys(self) -> list[str]:
        """Keys of every stored artifact (unordered)."""
        return [path.stem for path in self._artifacts_dir.glob("*.pkl")]

    def artifacts_size_bytes(self) -> int:
        """Total on-disk size of the artifact directory."""
        return sum(path.stat().st_size for path in self._artifacts_dir.glob("*.pkl"))

    def gc(self, max_bytes: int, keep: Iterable[str] = ()) -> list[str]:
        """Evict least-recently-used artifacts until the store fits ``max_bytes``.

        Artifacts are deleted oldest-mtime-first (:meth:`load_artifact` bumps
        the mtime, so "oldest" means least recently *used*, not written) until
        the total artifact size is at most ``max_bytes``.  Keys in ``keep``
        (e.g. artifacts a model registry still references) are never evicted,
        even when the pinned set alone exceeds the bound.  Run checkpoints
        under ``runs/`` are never touched.  Returns the evicted keys.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        pinned = set(keep)
        entries = []
        total = 0
        for path in self._artifacts_dir.glob("*.pkl"):
            stat = path.stat()
            total += stat.st_size
            entries.append((stat.st_mtime, path))
        evicted: list[str] = []
        for _mtime, path in sorted(entries):
            if total <= max_bytes:
                break
            if path.stem in pinned:
                continue
            size = path.stat().st_size
            path.unlink()
            total -= size
            evicted.append(path.stem)
        return evicted

    # ------------------------------------------------------------------ #
    # Run checkpoints
    # ------------------------------------------------------------------ #
    def _run_dir(self, run_id: str, create: bool = False) -> Path:
        if not _RUN_ID_PATTERN.fullmatch(run_id):
            raise ValueError(
                "run ids must be short alphanumeric/._- identifiers, "
                f"got {run_id!r}"
            )
        path = self._runs_dir / run_id
        if create:
            path.mkdir(parents=True, exist_ok=True)
        return path

    def save_run_meta(self, run_id: str, meta: dict) -> None:
        """Record the job signature of a run (atomic overwrite)."""
        path = self._run_dir(run_id, create=True) / "meta.json"
        _atomic_write(path, (canonical_payload(meta) + "\n").encode())

    def load_run_meta(self, run_id: str) -> dict | None:
        """The stored job signature, or ``None`` for an unknown run."""
        path = self._run_dir(run_id) / "meta.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise RunStoreCorruptionError(
                f"run metadata {path} is corrupted and cannot be parsed: {exc}"
            ) from exc

    def save_chunk(self, run_id: str, index: int, arrays: dict[str, np.ndarray]) -> None:
        """Checkpoint one completed chunk's report arrays (atomic)."""
        if index < 0:
            raise ValueError("chunk indices must be non-negative")
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        path = self._run_dir(run_id, create=True) / f"chunk_{index:08d}.npz"
        _atomic_write(path, buffer.getvalue())

    def load_chunks(self, run_id: str) -> dict[int, dict[str, np.ndarray]]:
        """All checkpointed chunk arrays of a run, keyed by chunk index."""
        run_dir = self._run_dir(run_id)
        if not run_dir.exists():
            return {}
        chunks: dict[int, dict[str, np.ndarray]] = {}
        for path in sorted(run_dir.iterdir()):
            match = _CHUNK_PATTERN.fullmatch(path.name)
            if match is None:
                continue
            try:
                # The handle gets its own context: np.load can raise on a
                # corrupt archive before its NpzFile owns (and closes) it.
                with path.open("rb") as handle, np.load(handle) as archive:
                    chunks[int(match.group(1))] = {
                        name: archive[name] for name in archive.files
                    }
            except (zipfile.BadZipFile, ValueError, EOFError, KeyError, OSError) as exc:
                raise RunStoreCorruptionError(
                    f"checkpoint chunk {path} is corrupted and cannot be "
                    f"loaded: {exc}"
                ) from exc
        return chunks

    def completed_chunks(self, run_id: str) -> set[int]:
        """Indices of the chunks already checkpointed for a run."""
        run_dir = self._run_dir(run_id)
        if not run_dir.exists():
            return set()
        return {
            int(match.group(1))
            for path in run_dir.iterdir()
            if (match := _CHUNK_PATTERN.fullmatch(path.name)) is not None
        }
