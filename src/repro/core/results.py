"""Bookkeeping structure for synthesis runs: one column per attempt field.

A :class:`SynthesisReport` is a struct of arrays.  Row ``i`` of every column
describes the ``i``-th proposed candidate: its seed index, the candidate
record and the privacy-test outcome.  The batched mechanism, the engine's
worker IPC, run checkpoints and the merge all move these columns as they are,
so no path builds one object per candidate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.privacy.plausible_deniability import PrivacyTestColumns

__all__ = ["REPORT_COLUMNS", "SynthesisReport"]

#: Column name -> dtype, in :meth:`SynthesisReport.to_arrays` order.  These
#: are also the keys of a checkpointed chunk's npz archive.
REPORT_COLUMNS: dict[str, type] = {
    "seed_indices": np.int64,
    "candidates": np.int64,
    "passed": bool,
    "plausible_seeds": np.int64,
    "partition_indices": np.int64,
    "thresholds": np.float64,
    "records_checked": np.int64,
    "count_saturated": bool,
}


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Aggregated outcome of a synthesis run, one array per attempt field.

    ``candidates`` is ``(attempts, attributes)``; every other column has one
    entry per attempt.  Build reports with :meth:`from_tests`,
    :meth:`from_arrays`, :meth:`empty` or :meth:`merged`.
    """

    schema: Schema
    seed_indices: np.ndarray
    candidates: np.ndarray
    passed: np.ndarray
    plausible_seeds: np.ndarray
    partition_indices: np.ndarray
    thresholds: np.ndarray
    records_checked: np.ndarray
    count_saturated: np.ndarray

    @classmethod
    def empty(cls, schema: Schema) -> "SynthesisReport":
        """A report with no attempts."""
        return cls.from_arrays(
            schema,
            {
                name: np.empty((0, len(schema)) if name == "candidates" else 0, dtype=dtype)
                for name, dtype in REPORT_COLUMNS.items()
            },
        )

    @classmethod
    def from_tests(
        cls,
        schema: Schema,
        seed_indices: np.ndarray,
        candidates: np.ndarray,
        tests: PrivacyTestColumns,
    ) -> "SynthesisReport":
        """A report from proposed candidates and their privacy-test columns."""
        return cls(schema, seed_indices, candidates, *tests)

    def __len__(self) -> int:
        return self.num_attempts

    @property
    def num_attempts(self) -> int:
        """Total number of candidates proposed."""
        return int(self.passed.size)

    @property
    def num_released(self) -> int:
        """Number of candidates that passed the privacy test."""
        return int(np.count_nonzero(self.passed))

    @property
    def pass_rate(self) -> float:
        """Fraction of candidates that passed the privacy test (Figure 6)."""
        if not self.num_attempts:
            return 0.0
        return self.num_released / self.num_attempts

    @property
    def mean_plausible_seeds(self) -> float:
        """Average plausible-seed count over all attempts."""
        if not self.num_attempts:
            return 0.0
        return float(np.mean(self.plausible_seeds))

    def released_dataset(self) -> Dataset:
        """The released synthetic records as a dataset."""
        return Dataset(self.schema, self.candidates[self.passed])

    def all_candidates_dataset(self) -> Dataset:
        """All proposed candidates (released or not), as the paper's tool outputs."""
        return Dataset(self.schema, self.candidates)

    def merge(self, *others: "SynthesisReport") -> "SynthesisReport":
        """Combine this report with any number of others (e.g. worker chunks)."""
        return SynthesisReport.merged(self.schema, [self, *others])

    @classmethod
    def merged(
        cls,
        schema: Schema,
        reports: "Sequence[SynthesisReport]",
        stop_after_released: int | None = None,
    ) -> "SynthesisReport":
        """Concatenate many reports (in order) into one.

        With ``stop_after_released`` set, the result ends right after the
        attempt that produces the Nth release (no attempts at all for
        N <= 0) — the same truncation rule as the mechanism's until-N loop,
        so a chunked engine run merged with this method matches the serial
        reference on the same chunks.
        """
        for report in reports:
            if report.schema != schema:
                raise ValueError("cannot merge reports with different schemas")
        if not reports:
            merged = cls.empty(schema)
        elif len(reports) == 1:
            merged = reports[0]
        else:
            merged = cls(
                schema,
                *(
                    np.concatenate([getattr(report, name) for report in reports])
                    for name in REPORT_COLUMNS
                ),
            )
        if stop_after_released is None:
            return merged
        if stop_after_released <= 0:
            stop = 0
        else:
            # cumsum is non-decreasing, so the left insertion point of N is
            # the attempt that makes the Nth release.
            stop = int(np.searchsorted(np.cumsum(merged.passed), stop_after_released)) + 1
        if stop >= merged.num_attempts:
            return merged
        # Copies, not views: a kept report must not pin the whole batch.
        return dataclasses.replace(
            merged,
            **{name: getattr(merged, name)[:stop].copy() for name in REPORT_COLUMNS},
        )

    # ------------------------------------------------------------------ #
    # Array serialization (worker IPC and run checkpoints)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The report's columns keyed by name; the inverse of :meth:`from_arrays`.

        This is how chunk reports travel between engine workers and the
        parent, and how they are checkpointed to a run store.
        """
        return {name: getattr(self, name) for name in REPORT_COLUMNS}

    @classmethod
    def from_arrays(cls, schema: Schema, arrays: dict[str, np.ndarray]) -> "SynthesisReport":
        """Rebuild a report from the columns of :meth:`to_arrays`."""
        columns = {}
        for name, dtype in REPORT_COLUMNS.items():
            # Absent in checkpoints written before the saturation flag
            # existed; default to unsaturated so old run stores keep
            # resuming.  (`in` rather than `.get`: np.load's NpzFile mapping
            # supports membership on every version.)
            if name == "count_saturated" and name not in arrays:
                columns[name] = np.zeros(columns["passed"].size, dtype=bool)
            else:
                columns[name] = np.asarray(arrays[name], dtype=dtype)
        columns["candidates"] = columns["candidates"].reshape(-1, len(schema))
        return cls(schema, **columns)
