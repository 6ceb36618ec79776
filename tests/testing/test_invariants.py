"""Tests for the invariant checkers: they pass on conforming runs and fail loudly
on deliberately broken ones."""

import dataclasses

import numpy as np
import pytest

from repro.core.results import SynthesisAttempt, SynthesisReport
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    PrivacyTestResult,
)
from repro.testing.invariants import (
    InvariantViolation,
    assert_reports_identical,
    check_accountant_conservation,
    check_batched_mechanism_parity,
    check_engine_parity,
    check_rng_reproducibility,
    check_structure_engine_equivalence,
    check_theorem1_bounds,
    report_accounting,
)
from repro.testing.scenarios import get_scenario


@pytest.fixture(scope="module")
def tiny_fit():
    return get_scenario("tiny-n").fit(seed=0)


def _mutated_report(report: SynthesisReport) -> SynthesisReport:
    """A copy of ``report`` with one candidate value flipped."""
    attempts = list(report.attempts)
    victim = attempts[0]
    candidate = victim.candidate.copy()
    candidate[0] = (candidate[0] + 1) % 2
    attempts[0] = SynthesisAttempt(
        seed_index=victim.seed_index, candidate=candidate, test=victim.test
    )
    return SynthesisReport(schema=report.schema, attempts=attempts)


class TestReportComparison:
    def test_identical_reports_pass(self, tiny_fit):
        scenario = tiny_fit.scenario
        report = tiny_fit.pipeline.mechanism.run_attempts(
            16, np.random.default_rng(0), batch_size=scenario.batch_size
        )
        assert_reports_identical(report, report)
        assert report_accounting(report)["passed"] == [
            attempt.released for attempt in report.attempts
        ]

    def test_single_flipped_cell_detected(self, tiny_fit):
        report = tiny_fit.pipeline.mechanism.run_attempts(
            16, np.random.default_rng(0), batch_size=4
        )
        with pytest.raises(InvariantViolation, match="candidates"):
            assert_reports_identical(report, _mutated_report(report))


class TestEngineParityChecker:
    def test_vacuous_comparison_rejected(self, tiny_fit):
        # No candidate engines and no worker count > 1: nothing would be
        # compared, so the checker must refuse instead of passing vacuously.
        scenario = tiny_fit.scenario
        with pytest.raises(ValueError, match="vacuous"):
            check_engine_parity(
                tiny_fit.model,
                tiny_fit.seeds,
                tiny_fit.params,
                base_seed=0,
                num_attempts=scenario.attempts,
                chunk_size=scenario.chunk_size,
                batch_size=scenario.batch_size,
                worker_counts=(1,),
            )

    def test_rejects_ambiguous_mode(self, tiny_fit):
        with pytest.raises(ValueError, match="exactly one"):
            check_engine_parity(
                tiny_fit.model, tiny_fit.seeds, tiny_fit.params,
                num_attempts=8, num_released=2,
            )
        with pytest.raises(ValueError, match="exactly one"):
            check_engine_parity(tiny_fit.model, tiny_fit.seeds, tiny_fit.params)

    def test_rejects_mismatched_chunk_grid(self, tiny_fit):
        from repro.core.engine import SynthesisEngine

        with SynthesisEngine(
            tiny_fit.model, tiny_fit.seeds, tiny_fit.params, chunk_size=32
        ) as engine:
            with pytest.raises(ValueError, match="chunk grid"):
                check_engine_parity(
                    tiny_fit.model, tiny_fit.seeds, tiny_fit.params,
                    num_attempts=8, chunk_size=16, engines=[engine],
                )

    def test_rejects_mismatched_batch_size(self, tiny_fit):
        # Batch size is part of the RNG layout too; a correct engine on a
        # different batching must be rejected up front, not reported as a
        # parity violation.
        from repro.core.engine import SynthesisEngine

        with SynthesisEngine(
            tiny_fit.model, tiny_fit.seeds, tiny_fit.params,
            chunk_size=16, batch_size=4,
        ) as engine:
            with pytest.raises(ValueError, match="batch_size"):
                check_engine_parity(
                    tiny_fit.model, tiny_fit.seeds, tiny_fit.params,
                    num_attempts=8, chunk_size=16, batch_size=8, engines=[engine],
                )


class TestRngReproducibilityChecker:
    def test_pure_run_passes(self, tiny_fit):
        def run(rng):
            return tiny_fit.pipeline.mechanism.run_attempts(12, rng, batch_size=4)

        report = check_rng_reproducibility(run, seed=9)
        assert report.num_attempts == 12

    def test_impure_run_detected(self, tiny_fit):
        shared_rng = np.random.default_rng(0)

        def impure_run(rng):
            # Ignores the checker-provided rng: consumes a shared stream, so
            # every repeat sees different candidates.
            return tiny_fit.pipeline.mechanism.run_attempts(12, shared_rng, batch_size=4)

        with pytest.raises(InvariantViolation, match="repeat 1"):
            check_rng_reproducibility(impure_run, seed=9)

    def test_requires_two_repeats(self, tiny_fit):
        with pytest.raises(ValueError, match="at least 2"):
            check_rng_reproducibility(lambda rng: None, repeats=1)


class TestBatchedParityChecker:
    def test_conforming_mechanism_passes(self, tiny_fit):
        attempts = check_batched_mechanism_parity(
            tiny_fit.pipeline.mechanism, np.random.default_rng(3), batch_size=20
        )
        assert len(attempts) == 20

    def test_limited_scan_counts_are_not_compared(self):
        # Under max_check_plausible each path draws its own random scan
        # subset, so pointwise count equality does not hold for correct code;
        # the checker must only compare the (pure) partition indices.
        from repro.core.mechanism import SynthesisMechanism
        from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

        fit = get_scenario("high-cardinality").fit(seed=0)
        params = PlausibleDeniabilityParams(k=8, gamma=4.0, max_check_plausible=30)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
        check_batched_mechanism_parity(mechanism, np.random.default_rng(0), batch_size=20)

    def test_broken_fast_counts_detected(self, tiny_fit, monkeypatch):
        mechanism = tiny_fit.pipeline.mechanism
        original = type(mechanism)._fast_batch_counts

        def off_by_one(self, seed_indices, candidates):
            counts, partitions, checked, saturated = original(
                self, seed_indices, candidates
            )
            return counts + 1, partitions, checked, saturated

        monkeypatch.setattr(type(mechanism), "_fast_batch_counts", off_by_one)
        with pytest.raises(InvariantViolation, match="plausible count"):
            check_batched_mechanism_parity(
                mechanism, np.random.default_rng(3), batch_size=10
            )

    def test_saturation_and_scan_alignment_compared(self):
        # max_plausible stops the scan early on both paths; the batched path
        # must report the same records_checked and saturation flag as the
        # sequential reference, and the checker must verify that.
        from repro.core.mechanism import SynthesisMechanism
        from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

        fit = get_scenario("tiny-n").fit(seed=0)
        params = dataclasses.replace(fit.params, max_plausible=4)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
        attempts = check_batched_mechanism_parity(
            mechanism, np.random.default_rng(5), batch_size=12
        )
        assert any(attempt.test.count_saturated for attempt in attempts)

    def test_broken_saturation_flag_detected(self, monkeypatch):
        from repro.core.mechanism import SynthesisMechanism
        from repro.privacy.plausible_deniability import DeterministicPrivacyTest

        fit = get_scenario("tiny-n").fit(seed=0)
        params = dataclasses.replace(fit.params, max_plausible=4)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
        original = DeterministicPrivacyTest.run_batch

        def flipped_saturation(self, seed_probabilities, probability_matrix, rng):
            results = original(self, seed_probabilities, probability_matrix, rng)
            return [
                dataclasses.replace(result, count_saturated=not result.count_saturated)
                for result in results
            ]

        monkeypatch.setattr(DeterministicPrivacyTest, "run_batch", flipped_saturation)
        with pytest.raises(InvariantViolation, match="saturation"):
            check_batched_mechanism_parity(
                mechanism, np.random.default_rng(5), batch_size=12
            )


class TestAccountantConservationChecker:
    def test_empty_ledger_passes_vacuously(self):
        assert check_accountant_conservation(PrivacyAccountant()) is None

    def test_real_ledger_passes(self):
        fit = get_scenario("toy-correlated").fit(seed=0)
        total = check_accountant_conservation(fit.accountant)
        assert total is not None and total[0] > 0

    def test_synthetic_multi_scope_ledger_passes(self):
        accountant = PrivacyAccountant()
        accountant.spend("a", 0.2, 1e-9, count=5, scope="left")
        accountant.spend("b", 0.4, 0.0, count=1, scope="left")
        accountant.spend("c", 0.1, 0.0, count=50, scope="right")
        epsilon, delta = check_accountant_conservation(accountant)
        assert epsilon == pytest.approx(0.2 * 5 + 0.4 + 0.1 * 50)

    def test_tampered_composition_detected(self, monkeypatch):
        accountant = PrivacyAccountant()
        accountant.spend("a", 0.2, count=3, scope="left")

        def under_report(self, scope, use_advanced=True):
            return (0.0, 0.0)

        monkeypatch.setattr(PrivacyAccountant, "scope_guarantee", under_report)
        with pytest.raises(InvariantViolation, match="does not equal"):
            check_accountant_conservation(accountant)


class TestTheorem1Checker:
    @staticmethod
    def _report(schema, results):
        attempts = [
            SynthesisAttempt(
                seed_index=0,
                candidate=np.zeros(len(schema), dtype=np.int64),
                test=result,
            )
            for result in results
        ]
        return SynthesisReport(schema=schema, attempts=attempts)

    def test_real_run_passes(self, tiny_fit):
        report = tiny_fit.pipeline.mechanism.run_attempts(
            24, np.random.default_rng(1), batch_size=4
        )
        check_theorem1_bounds(report, tiny_fit.params, num_seed_records=len(tiny_fit.seeds))

    def test_inconsistent_deterministic_decision_detected(self, tiny_fit):
        params = tiny_fit.params
        bad = PrivacyTestResult(
            passed=True,
            plausible_seeds=params.k - 1,  # below k yet "passed"
            partition_index=0,
            threshold=float(params.k),
            records_checked=10,
        )
        report = self._report(tiny_fit.seeds.schema, [bad])
        with pytest.raises(InvariantViolation, match="contradicts"):
            check_theorem1_bounds(report, params)

    def test_released_without_a_bucket_detected(self, tiny_fit):
        params = tiny_fit.params
        bad = PrivacyTestResult(
            passed=False,
            plausible_seeds=0,
            partition_index=-1,  # the seed could not have generated y
            threshold=float(params.k),
            records_checked=10,
        )
        report = self._report(tiny_fit.seeds.schema, [bad])
        with pytest.raises(InvariantViolation, match="bucket"):
            check_theorem1_bounds(report, params)

    def test_overscanning_detected(self, tiny_fit):
        params = tiny_fit.params
        bad = PrivacyTestResult(
            passed=False,
            plausible_seeds=1,
            partition_index=0,
            threshold=float(params.k),
            records_checked=10_000,
        )
        report = self._report(tiny_fit.seeds.schema, [bad])
        with pytest.raises(InvariantViolation, match="scanned"):
            check_theorem1_bounds(report, params, num_seed_records=len(tiny_fit.seeds))

    def test_randomized_threshold_semantics(self):
        fit = get_scenario("toy-correlated").fit(seed=0)
        report = fit.pipeline.mechanism.run_attempts(
            24, np.random.default_rng(2), batch_size=8
        )
        check_theorem1_bounds(report, fit.params, num_seed_records=len(fit.seeds))


class TestStructureEquivalenceChecker:
    def test_non_dp_equivalence_passes(self):
        dataset = get_scenario("toy-correlated").dataset(seed=0)
        structure = check_structure_engine_equivalence(dataset)
        assert structure.num_attributes == 4

    def test_dp_equivalence_passes(self):
        dataset = get_scenario("toy-correlated").dataset(seed=0)
        structure = check_structure_engine_equivalence(
            dataset, seed=7, epsilon_entropy=0.5, epsilon_count=0.1
        )
        assert structure.num_attributes == 4

    def test_dp_requires_seed(self):
        dataset = get_scenario("tiny-n").dataset(seed=0)
        with pytest.raises(ValueError, match="seed"):
            check_structure_engine_equivalence(dataset, epsilon_entropy=0.5)

    def test_perturbed_entropies_detected(self, monkeypatch):
        from repro.generative.structure import StructureLearner

        dataset = get_scenario("toy-correlated").dataset(seed=0)
        original = StructureLearner._entropy_tables_vectorized

        def nudged(self, data):
            h_raw, h_bkt, h_raw_bkt, h_bkt_bkt = original(self, data)
            return h_raw + 1e-9, h_bkt, h_raw_bkt, h_bkt_bkt

        monkeypatch.setattr(StructureLearner, "_entropy_tables_vectorized", nudged)
        with pytest.raises(InvariantViolation, match="bit-identical"):
            check_structure_engine_equivalence(dataset)
