"""Tests for partition numbers, the privacy tests and Definition 1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.privacy.plausible_deniability import (
    DeterministicPrivacyTest,
    PlausibleDeniabilityParams,
    RandomizedPrivacyTest,
    make_privacy_test,
    partition_number,
    partition_numbers,
    plausible_seed_count,
    satisfies_plausible_deniability,
)


class TestParams:
    def test_valid_defaults(self):
        params = PlausibleDeniabilityParams(k=50, gamma=4.0, epsilon0=1.0)
        assert params.is_randomized

    def test_deterministic_when_epsilon0_missing(self):
        assert not PlausibleDeniabilityParams(k=10, gamma=2.0).is_randomized

    def test_validation(self):
        with pytest.raises(ValueError):
            PlausibleDeniabilityParams(k=0, gamma=2.0)
        with pytest.raises(ValueError):
            PlausibleDeniabilityParams(k=5, gamma=1.0)
        with pytest.raises(ValueError):
            PlausibleDeniabilityParams(k=5, gamma=2.0, epsilon0=0.0)
        with pytest.raises(ValueError):
            PlausibleDeniabilityParams(k=5, gamma=2.0, max_check_plausible=0)
        with pytest.raises(ValueError):
            PlausibleDeniabilityParams(k=5, gamma=2.0, max_plausible=3)


class TestPartitionNumber:
    def test_probability_one_is_partition_zero(self):
        assert partition_number(1.0, gamma=2.0) == 0

    def test_zero_probability_has_no_partition(self):
        assert partition_number(0.0, gamma=2.0) == -1

    def test_boundaries_follow_the_paper_convention(self):
        # Partition i covers (gamma^-(i+1), gamma^-i]: the upper bound is inclusive.
        gamma = 2.0
        assert partition_number(0.5, gamma) == 1
        assert partition_number(0.51, gamma) == 0
        assert partition_number(0.25, gamma) == 2
        assert partition_number(0.26, gamma) == 1

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            partition_number(0.5, gamma=1.0)
        with pytest.raises(ValueError):
            partition_number(1.5, gamma=2.0)
        with pytest.raises(ValueError):
            partition_number(-0.1, gamma=2.0)

    def test_vectorized_matches_scalar(self):
        probabilities = np.array([0.0, 1.0, 0.5, 0.3, 1e-6])
        vectorized = partition_numbers(probabilities, gamma=3.0)
        scalar = [partition_number(float(p), 3.0) for p in probabilities]
        assert vectorized.tolist() == scalar

    @given(
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1.01, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_partition_brackets_the_probability(self, probability, gamma):
        index = partition_number(probability, gamma)
        assert index >= 0
        upper = gamma ** (-index)
        lower = gamma ** (-(index + 1))
        assert probability <= upper * (1 + 1e-9)
        assert probability > lower * (1 - 1e-9)

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=1.05, max_value=8.0),
    )
    @settings(max_examples=100)
    def test_same_partition_implies_gamma_ratio(self, p, q, gamma):
        # Records in the same bucket satisfy the Definition 1 ratio bound.
        if partition_number(p, gamma) == partition_number(q, gamma):
            ratio = p / q
            assert 1.0 / gamma - 1e-9 <= ratio <= gamma + 1e-9


class TestPartitionBoundaryGrid:
    """Property test: γ^-i lands exactly in bucket i on the edge.

    Definition 1 buckets are γ^-(i+1) < Pr <= γ^-i, so a probability exactly
    on the grid must snap *up* into bucket i, at every representable depth.
    The scalar path must agree with the vectorized path everywhere — it
    delegates, and this pins that contract.
    """

    GAMMAS = (1.5, 2.0, 3.0, 4.0, 10.0)

    @staticmethod
    def _grid(gamma: float, floor: float) -> tuple[np.ndarray, np.ndarray]:
        indices, probabilities = [], []
        i = 0
        while True:
            p = gamma ** -float(i)
            if p < floor or p == 0.0:
                break
            indices.append(i)
            probabilities.append(p)
            i += 1
        return np.array(indices), np.array(probabilities, dtype=np.float64)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_edges_snap_up_through_the_normal_range(self, gamma):
        # Down to the smallest *normal* float64; in the subnormal tail the
        # float grid γ^-i itself loses precision for non-dyadic γ, so no
        # exactness claim is possible there.
        indices, probabilities = self._grid(gamma, np.finfo(np.float64).tiny)
        assert indices.size > 300  # the grid really spans the float range
        assert np.array_equal(partition_numbers(probabilities, gamma), indices)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_scalar_equals_vectorized_everywhere(self, gamma):
        # Including the subnormal tail: whatever the vectorized path says,
        # the scalar path must say bit-identically, since it delegates.
        indices, probabilities = self._grid(gamma, 0.0)
        vectorized = partition_numbers(probabilities, gamma)
        scalar = np.array([partition_number(float(p), gamma) for p in probabilities])
        assert np.array_equal(scalar, vectorized)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_bucket_interiors_classify_unambiguously(self, gamma):
        # The geometric midpoint of (γ^-(i+1), γ^-i] is far from both edges,
        # so no tolerance is involved: it must land in bucket i exactly.
        for i in (0, 1, 5, 50, 300):
            midpoint = gamma ** -(i + 0.5)
            assert partition_number(midpoint, gamma) == i


class TestPlausibleSeedCount:
    def test_counts_records_in_seed_partition(self):
        seed_probability = 0.4
        dataset = np.array([0.4, 0.3, 0.05, 0.0, 0.45])
        count, partition, checked, saturated = plausible_seed_count(
            seed_probability, dataset, gamma=2.0
        )
        # Bucket of 0.4 with gamma=2 is (0.25, 0.5]: members 0.4, 0.3, 0.45.
        assert partition == 1
        assert count == 3
        assert checked == 5
        assert saturated is False

    def test_requires_positive_seed_probability(self):
        with pytest.raises(ValueError):
            plausible_seed_count(0.0, np.array([0.1]), gamma=2.0)

    def test_requires_1d_probabilities(self):
        with pytest.raises(ValueError):
            plausible_seed_count(0.5, np.zeros((2, 2)), gamma=2.0)

    def test_max_plausible_caps_count_and_reports_saturation(self, rng):
        dataset = np.full(1000, 0.4)
        count, _, checked, saturated = plausible_seed_count(
            0.4, dataset, gamma=2.0, max_plausible=10, rng=rng
        )
        assert count == 10
        # records_checked now reports the scanned subset size (aligned with
        # the batched path) rather than the early-break position.
        assert checked == 1000
        assert saturated is True

    def test_max_check_plausible_limits_scan(self, rng):
        dataset = np.full(1000, 0.4)
        count, _, checked, _ = plausible_seed_count(
            0.4, dataset, gamma=2.0, max_check_plausible=50, rng=rng
        )
        assert checked == 50
        assert count <= 50

    def test_early_termination_requires_rng(self):
        # Regression: the old code silently fell back to default_rng(0), so
        # every candidate scanned the records in the same "random" order — a
        # fixed biased subset under max_check_plausible.
        dataset = np.full(100, 0.4)
        with pytest.raises(ValueError, match="requires an rng"):
            plausible_seed_count(0.4, dataset, gamma=2.0, max_check_plausible=10)
        with pytest.raises(ValueError, match="requires an rng"):
            plausible_seed_count(0.4, dataset, gamma=2.0, max_plausible=5)

    def test_scan_order_varies_with_rng(self):
        # Regression companion: different rngs must scan different subsets.
        # Half the records are plausible, so a 20-record scan produces a
        # Binomial-ish spread of counts rather than a single fixed value.
        dataset = np.concatenate([np.full(50, 0.4), np.full(50, 1e-6)])
        counts = {
            plausible_seed_count(
                0.4,
                dataset,
                gamma=2.0,
                max_check_plausible=20,
                rng=np.random.default_rng(seed),
            )[0]
            for seed in range(30)
        }
        assert len(counts) > 1

    def test_satisfies_plausible_deniability(self):
        dataset = np.array([0.4] * 10 + [0.01] * 5)
        assert satisfies_plausible_deniability(0.4, dataset, k=10, gamma=2.0)
        assert not satisfies_plausible_deniability(0.4, dataset, k=11, gamma=2.0)

    def test_satisfies_rejects_bad_k(self):
        with pytest.raises(ValueError):
            satisfies_plausible_deniability(0.4, np.array([0.4]), k=0, gamma=2.0)


class TestDeterministicTest:
    def test_pass_and_fail(self, rng):
        params = PlausibleDeniabilityParams(k=3, gamma=2.0)
        test = DeterministicPrivacyTest(params)
        passing = test(0.4, np.array([0.4, 0.3, 0.45, 0.01]), rng)
        assert passing.passed and passing.plausible_seeds == 3
        failing = test(0.4, np.array([0.4, 0.01, 0.001]), rng)
        assert not failing.passed

    def test_result_is_truthy_when_passed(self, rng):
        params = PlausibleDeniabilityParams(k=1, gamma=2.0)
        result = DeterministicPrivacyTest(params)(0.5, np.array([0.5]), rng)
        assert bool(result)

    def test_threshold_reported(self, rng):
        params = PlausibleDeniabilityParams(k=7, gamma=2.0)
        result = DeterministicPrivacyTest(params)(0.5, np.array([0.5] * 10), rng)
        assert result.threshold == 7.0


class TestRandomizedTest:
    def test_requires_epsilon0(self):
        with pytest.raises(ValueError):
            RandomizedPrivacyTest(PlausibleDeniabilityParams(k=5, gamma=2.0))

    def test_clear_margin_always_passes(self, rng):
        params = PlausibleDeniabilityParams(k=5, gamma=2.0, epsilon0=1.0)
        test = RandomizedPrivacyTest(params)
        dataset = np.full(200, 0.4)
        results = [test(0.4, dataset, rng).passed for _ in range(50)]
        assert all(results)

    def test_clear_shortfall_always_fails(self, rng):
        params = PlausibleDeniabilityParams(k=100, gamma=2.0, epsilon0=1.0)
        test = RandomizedPrivacyTest(params)
        dataset = np.array([0.4, 0.4])
        results = [test(0.4, dataset, rng).passed for _ in range(50)]
        assert not any(results)

    def test_borderline_counts_pass_randomly(self, rng):
        params = PlausibleDeniabilityParams(k=10, gamma=2.0, epsilon0=1.0)
        test = RandomizedPrivacyTest(params)
        dataset = np.full(10, 0.4)  # exactly k plausible seeds
        outcomes = {test(0.4, dataset, rng).passed for _ in range(200)}
        assert outcomes == {True, False}

    def test_noisy_threshold_varies(self, rng):
        params = PlausibleDeniabilityParams(k=10, gamma=2.0, epsilon0=1.0)
        test = RandomizedPrivacyTest(params)
        thresholds = {test(0.4, np.full(20, 0.4), rng).threshold for _ in range(20)}
        assert len(thresholds) > 1


class TestFactory:
    def test_randomized_selected_with_epsilon0(self):
        test = make_privacy_test(PlausibleDeniabilityParams(k=5, gamma=2.0, epsilon0=1.0))
        assert isinstance(test, RandomizedPrivacyTest)

    def test_deterministic_selected_without_epsilon0(self):
        test = make_privacy_test(PlausibleDeniabilityParams(k=5, gamma=2.0))
        assert isinstance(test, DeterministicPrivacyTest)
