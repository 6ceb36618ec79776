"""Bookkeeping structures for synthesis runs (attempts, pass rates, releases)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.privacy.plausible_deniability import PrivacyTestResult

__all__ = ["SynthesisAttempt", "SynthesisReport"]


@dataclass(frozen=True)
class SynthesisAttempt:
    """One proposed candidate synthetic and its privacy-test outcome."""

    seed_index: int
    candidate: np.ndarray
    test: PrivacyTestResult

    @property
    def released(self) -> bool:
        """Whether the candidate passed the test and may be released."""
        return self.test.passed


@dataclass
class SynthesisReport:
    """Aggregated outcome of a synthesis run.

    The release count is maintained incrementally by :meth:`record` so the
    mechanism's until-n-released loop stays O(attempts) overall instead of
    re-scanning the attempt list on every iteration.  Append attempts via
    :meth:`record` (or pass them to the constructor) — mutating ``attempts``
    directly would leave the counter stale.
    """

    schema: Schema
    attempts: list[SynthesisAttempt] = field(default_factory=list)
    _num_released: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._num_released = sum(1 for attempt in self.attempts if attempt.released)

    def record(self, attempt: SynthesisAttempt) -> None:
        """Append one attempt to the report."""
        self.attempts.append(attempt)
        if attempt.released:
            self._num_released += 1

    @property
    def num_attempts(self) -> int:
        """Total number of candidates proposed."""
        return len(self.attempts)

    @property
    def num_released(self) -> int:
        """Number of candidates that passed the privacy test."""
        return self._num_released

    @property
    def pass_rate(self) -> float:
        """Fraction of candidates that passed the privacy test (Figure 6)."""
        if not self.attempts:
            return 0.0
        return self.num_released / self.num_attempts

    @property
    def mean_plausible_seeds(self) -> float:
        """Average plausible-seed count over all attempts."""
        if not self.attempts:
            return 0.0
        return float(np.mean([attempt.test.plausible_seeds for attempt in self.attempts]))

    def released_dataset(self) -> Dataset:
        """The released synthetic records as a dataset."""
        released = [attempt.candidate for attempt in self.attempts if attempt.released]
        if not released:
            return Dataset(self.schema, np.empty((0, len(self.schema)), dtype=np.int64))
        return Dataset(self.schema, np.vstack(released))

    def all_candidates_dataset(self) -> Dataset:
        """All proposed candidates (released or not), as the paper's tool outputs."""
        if not self.attempts:
            return Dataset(self.schema, np.empty((0, len(self.schema)), dtype=np.int64))
        return Dataset(self.schema, np.vstack([attempt.candidate for attempt in self.attempts]))

    def merge(self, *others: "SynthesisReport") -> "SynthesisReport":
        """Combine this report with any number of others (e.g. worker chunks).

        All attempt lists are concatenated in a single pass; merging W worker
        reports is O(total attempts) instead of the O(W × total) cost of
        repeated pairwise merges.
        """
        return SynthesisReport.merged(self.schema, [self, *others])

    @classmethod
    def merged(
        cls,
        schema: Schema,
        reports: "Sequence[SynthesisReport]",
        stop_after_released: int | None = None,
    ) -> "SynthesisReport":
        """Concatenate many reports (in order) into one.

        With ``stop_after_released`` set, recording stops right after the
        attempt that produces the Nth release — the same truncation rule as
        the mechanism's until-N-released loop, so a chunked engine run merged
        with this method matches the serial reference on the same chunks.
        """
        attempts: list[SynthesisAttempt] = []
        for report in reports:
            if report.schema != schema:
                raise ValueError("cannot merge reports with different schemas")
            attempts.extend(report.attempts)
        if stop_after_released is not None:
            released = 0
            for index, attempt in enumerate(attempts):
                if attempt.released:
                    released += 1
                    if released >= stop_after_released:
                        attempts = attempts[: index + 1]
                        break
        return cls(schema=schema, attempts=attempts)

    # ------------------------------------------------------------------ #
    # Compact array serialization (worker IPC and run checkpoints)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the report into a dict of parallel numpy arrays.

        One array per attempt field; the inverse of :meth:`from_arrays`.
        This is how chunk reports travel between engine workers and the
        parent, and how they are checkpointed to a run store — far cheaper
        than pickling per-attempt objects.
        """
        num = len(self.attempts)
        num_columns = len(self.schema)
        candidates = np.empty((num, num_columns), dtype=np.int64)
        for index, attempt in enumerate(self.attempts):
            candidates[index] = attempt.candidate
        return {
            "seed_indices": np.array(
                [attempt.seed_index for attempt in self.attempts], dtype=np.int64
            ),
            "candidates": candidates,
            "passed": np.array(
                [attempt.test.passed for attempt in self.attempts], dtype=bool
            ),
            "plausible_seeds": np.array(
                [attempt.test.plausible_seeds for attempt in self.attempts], dtype=np.int64
            ),
            "partition_indices": np.array(
                [attempt.test.partition_index for attempt in self.attempts], dtype=np.int64
            ),
            "thresholds": np.array(
                [attempt.test.threshold for attempt in self.attempts], dtype=np.float64
            ),
            "records_checked": np.array(
                [attempt.test.records_checked for attempt in self.attempts], dtype=np.int64
            ),
            "count_saturated": np.array(
                [attempt.test.count_saturated for attempt in self.attempts], dtype=bool
            ),
        }

    @classmethod
    def from_arrays(cls, schema: Schema, arrays: dict[str, np.ndarray]) -> "SynthesisReport":
        """Rebuild a report from the parallel arrays of :meth:`to_arrays`."""
        seed_indices = np.asarray(arrays["seed_indices"], dtype=np.int64)
        candidates = np.asarray(arrays["candidates"], dtype=np.int64)
        passed = np.asarray(arrays["passed"], dtype=bool)
        plausible = np.asarray(arrays["plausible_seeds"], dtype=np.int64)
        partitions = np.asarray(arrays["partition_indices"], dtype=np.int64)
        thresholds = np.asarray(arrays["thresholds"], dtype=np.float64)
        checked = np.asarray(arrays["records_checked"], dtype=np.int64)
        # Absent in checkpoints written before the saturation flag existed;
        # default to unsaturated so old run stores keep resuming.  (`in`
        # rather than `.get`: np.load's NpzFile mapping supports membership
        # on every version.)
        saturated = (
            np.asarray(arrays["count_saturated"], dtype=bool)
            if "count_saturated" in arrays
            else np.zeros(seed_indices.size, dtype=bool)
        )
        attempts = [
            SynthesisAttempt(
                seed_index=int(seed_indices[index]),
                candidate=candidates[index].copy(),
                test=PrivacyTestResult(
                    passed=bool(passed[index]),
                    plausible_seeds=int(plausible[index]),
                    partition_index=int(partitions[index]),
                    threshold=float(thresholds[index]),
                    records_checked=int(checked[index]),
                    count_saturated=bool(saturated[index]),
                ),
            )
            for index in range(seed_indices.size)
        ]
        return cls(schema=schema, attempts=attempts)
