"""Tests for synthesis-run bookkeeping."""

import numpy as np
import pytest

from repro.core.results import REPORT_COLUMNS, SynthesisReport
from repro.privacy.plausible_deniability import PrivacyTestColumns, PrivacyTestResult


def make_report(schema, passed, values=None, seed_indices=None):
    """A report with one attempt per entry of ``passed``."""
    num = len(passed)
    values = [0] * num if values is None else values
    result = dict(plausible_seeds=10, partition_index=1, threshold=5.0, records_checked=100)
    return SynthesisReport.from_tests(
        schema,
        np.asarray(seed_indices if seed_indices is not None else [0] * num, dtype=np.int64),
        np.array([[value % 2] * len(schema) for value in values], dtype=np.int64).reshape(
            num, len(schema)
        ),
        PrivacyTestColumns.from_results(
            [PrivacyTestResult(passed=bool(flag), **result) for flag in passed]
        ),
    )


def brute_force_truncation(passed, stop_after_released):
    """The mechanism's until-N loop over a plain list of decisions."""
    kept = released = 0
    for flag in passed:
        if released >= stop_after_released:
            break
        kept += 1
        released += flag
    return kept


class TestSynthesisReport:
    def test_empty_report(self, toy_schema):
        report = SynthesisReport.empty(toy_schema)
        assert report.num_attempts == 0
        assert len(report) == 0
        assert report.num_released == 0
        assert report.pass_rate == 0.0
        assert report.mean_plausible_seeds == 0.0
        assert len(report.released_dataset()) == 0
        assert len(report.all_candidates_dataset()) == 0

    def test_counts_and_pass_rate(self, toy_schema):
        report = make_report(toy_schema, [True, False, True])
        assert report.num_attempts == 3
        assert report.num_released == 2
        assert report.pass_rate == pytest.approx(2 / 3)

    def test_released_dataset_contains_only_passing_candidates(self, toy_schema):
        report = make_report(toy_schema, [True, False], values=[1, 0])
        released = report.released_dataset()
        assert len(released) == 1
        assert released.data.tolist() == [[1] * len(toy_schema)]
        assert len(report.all_candidates_dataset()) == 2

    def test_mean_plausible_seeds(self, toy_schema):
        report = make_report(toy_schema, [True])
        assert report.mean_plausible_seeds == 10.0

    def test_merge(self, toy_schema):
        first = make_report(toy_schema, [True])
        second = make_report(toy_schema, [False])
        merged = first.merge(second)
        assert merged.num_attempts == 2
        assert merged.num_released == 1

    def test_release_counter_is_incremental(self, toy_schema):
        # The release count must stay exact through construction from
        # columns and through merge().
        from_columns = make_report(toy_schema, [bool(index % 2) for index in range(9)])
        assert from_columns.num_released == 4
        merged = from_columns.merge(from_columns)
        assert merged.num_released == 8
        assert merged.num_attempts == 18

    def test_merge_requires_same_schema(self, toy_schema, acs_dataset):
        first = SynthesisReport.empty(toy_schema)
        second = SynthesisReport.empty(acs_dataset.schema)
        with pytest.raises(ValueError):
            first.merge(second)

    def test_merge_accepts_many_reports(self, toy_schema):
        reports = [
            make_report(toy_schema, [index % 2 == 0], values=[index]) for index in range(5)
        ]
        merged = reports[0].merge(*reports[1:])
        assert merged.num_attempts == 5
        assert merged.num_released == 3
        assert merged.candidates[:, 0].tolist() == [0, 1, 0, 1, 0]

    def test_merged_truncates_at_release_target(self, toy_schema):
        chunks = [make_report(toy_schema, [True, False, True]) for _ in range(3)]
        # Concatenated: P F P | P F P | P F P — the 3rd release is attempt 3.
        merged = SynthesisReport.merged(toy_schema, chunks, stop_after_released=3)
        assert merged.num_released == 3
        assert merged.num_attempts == 4
        assert merged.passed[-1]

    def test_merged_truncation_matches_brute_force_loop(self, toy_schema):
        # The cumsum truncation equals the until-N loop for every target,
        # including 0, targets past the total and chunks with no releases.
        rng = np.random.default_rng(3)
        for trial in range(50):
            sizes = rng.integers(0, 6, size=rng.integers(1, 5))
            flags = [rng.random(size) < 0.3 for size in sizes]
            chunks = [
                make_report(toy_schema, chunk.tolist(), values=list(range(chunk.size)))
                for chunk in flags
            ]
            everything = np.concatenate(flags)
            for target in range(int(everything.sum()) + 2):
                merged = SynthesisReport.merged(
                    toy_schema, chunks, stop_after_released=target
                )
                kept = brute_force_truncation(everything.tolist(), target)
                assert merged.num_attempts == kept, (trial, target)
                assert merged.passed.tolist() == everything[:kept].tolist()
                assert merged.candidates.shape == (kept, len(toy_schema))
                assert merged.num_released == min(target, int(everything.sum()))

    def test_arrays_round_trip(self, toy_schema):
        report = make_report(
            toy_schema,
            [index % 2 == 0 for index in range(4)],
            values=list(range(4)),
            seed_indices=list(range(4)),
        )
        arrays = report.to_arrays()
        assert list(arrays) == list(REPORT_COLUMNS)
        rebuilt = SynthesisReport.from_arrays(toy_schema, arrays)
        assert rebuilt.num_attempts == report.num_attempts
        assert rebuilt.num_released == report.num_released
        for name in REPORT_COLUMNS:
            assert np.array_equal(getattr(report, name), getattr(rebuilt, name)), name
            assert getattr(rebuilt, name).dtype == np.dtype(REPORT_COLUMNS[name]), name

    def test_empty_arrays_round_trip(self, toy_schema):
        report = SynthesisReport.empty(toy_schema)
        rebuilt = SynthesisReport.from_arrays(toy_schema, report.to_arrays())
        assert rebuilt.num_attempts == 0
        assert rebuilt.candidates.shape == (0, len(toy_schema))

    def test_arrays_without_saturation_column_load_unsaturated(self, toy_schema):
        # Checkpoints written before the saturation flag existed still load.
        arrays = make_report(toy_schema, [True, False]).to_arrays()
        del arrays["count_saturated"]
        rebuilt = SynthesisReport.from_arrays(toy_schema, arrays)
        assert rebuilt.count_saturated.tolist() == [False, False]
