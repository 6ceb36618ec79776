"""Equivalence of the batched synthesis engine and the single-record reference path.

The batched Mechanism 1 must be a pure performance optimization: probability
computations agree exactly with the per-record loop, release decisions for a
given candidate are identical under the deterministic test, and the sampled
candidates follow the same distribution.  Decision-level comparisons go
through the shared conformance checker
(:func:`repro.testing.invariants.check_batched_mechanism_parity`).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.mechanism import SynthesisMechanism, _SeedMatchIndex
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Attribute, AttributeType, Schema
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.generative.structure import DependencyStructure
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    batch_plausible_seed_counts,
    plausible_seed_count,
)
from repro.testing.invariants import check_batched_mechanism_parity


@pytest.fixture(scope="module")
def det_mechanism(unnoised_model, acs_splits):
    """Mechanism with the deterministic test (decisions are candidate-pure)."""
    params = PlausibleDeniabilityParams(k=20, gamma=4.0)
    return SynthesisMechanism(unnoised_model, acs_splits.seeds, params)


@pytest.fixture(scope="module")
def acs_seeds(acs_splits):
    return acs_splits.seeds


@pytest.fixture(scope="module")
def omega_set_model(unnoised_model):
    """The fitted network re-wrapped with an ω *set* ("ω ∈R [5-11]")."""
    return BayesianNetworkSynthesizer(
        unnoised_model.schema,
        unnoised_model.structure,
        unnoised_model.tables,
        omega=(5, 7, 9, 11),
    )


#: 30 attributes of cardinality 8: the longest fixed prefix spans 27 of them,
#: a radix product of 2^81, so prefix keys must be rank-compressed.
WIDE_ATTRIBUTES = 30
WIDE_CARDINALITY = 8
WIDE_OMEGAS = (3, 6, 12)


@pytest.fixture(scope="module")
def wide_seeds():
    """Seeds drawn from a few templates, so prefix classes hold many seeds.

    Value 7 never occurs, which lets a test build prefixes no seed has.
    """
    rng = np.random.default_rng(21)
    schema = Schema(
        [
            Attribute(f"a{index}", AttributeType.CATEGORICAL, tuple(range(WIDE_CARDINALITY)))
            for index in range(WIDE_ATTRIBUTES)
        ]
    )
    templates = rng.integers(WIDE_CARDINALITY - 1, size=(4, WIDE_ATTRIBUTES))
    data = templates[rng.integers(len(templates), size=600)]
    noise = rng.random(data.shape) < 0.02
    data[noise] = rng.integers(WIDE_CARDINALITY - 1, size=int(noise.sum()))
    return Dataset(schema, data)


@pytest.fixture(scope="module")
def wide_model(wide_seeds):
    """A non-private chain network over a shuffled re-sampling order."""
    order = np.random.default_rng(22).permutation(WIDE_ATTRIBUTES)
    structure = DependencyStructure.from_parent_map(
        {int(child): (int(parent),) for parent, child in zip(order, order[1:])},
        WIDE_ATTRIBUTES,
    )
    spec = GenerativeModelSpec(
        omega=WIDE_OMEGAS, epsilon_structure=None, epsilon_parameters=None
    )
    return fit_bayesian_network(
        wide_seeds, wide_seeds, spec=spec, structure=structure, rng=np.random.default_rng(23)
    )


class TestModelBatchEquivalence:
    def test_candidate_factors_batch_matches_scalar(self, unnoised_model, acs_splits, rng):
        candidates = unnoised_model.generate_batch(acs_splits.seeds.data[:40], rng)
        for omega in (0, 5, 9, 11):
            batched = unnoised_model.candidate_factors_batch(candidates, omega)
            scalar = np.array(
                [unnoised_model.candidate_factor(candidate, omega) for candidate in candidates]
            )
            np.testing.assert_allclose(batched, scalar, rtol=1e-12)

    def test_probability_matrix_matches_stacked_rows(self, unnoised_model, acs_splits, rng):
        seeds = acs_splits.seeds.data
        candidates = unnoised_model.generate_batch(seeds[:25], rng)
        matrix = unnoised_model.batch_probability_matrix(seeds, candidates)
        stacked = np.vstack(
            [unnoised_model.batch_seed_probabilities(seeds, candidate) for candidate in candidates]
        )
        np.testing.assert_allclose(matrix, stacked, rtol=1e-12)

    def test_probability_matrix_matches_scalar_seed_probability(
        self, unnoised_model, acs_splits, rng
    ):
        seeds = acs_splits.seeds.data[:200]
        candidates = unnoised_model.generate_batch(seeds[:10], rng)
        matrix = unnoised_model.batch_probability_matrix(seeds, candidates)
        for c in range(candidates.shape[0]):
            for s in range(0, seeds.shape[0], 37):
                scalar = unnoised_model.seed_probability(seeds[s], candidates[c])
                assert matrix[c, s] == pytest.approx(scalar, rel=1e-12)

    def test_generate_batch_copies_fixed_attributes(self, unnoised_model, acs_splits, rng):
        seeds = acs_splits.seeds.data[:60]
        omega = 9
        out = unnoised_model.generate_batch(seeds, rng, omegas=np.full(60, omega))
        fixed = list(unnoised_model._fixed_attributes(omega))
        assert np.array_equal(out[:, fixed], seeds[:, fixed])

    def test_generate_batch_generated_records_have_positive_seed_probability(
        self, unnoised_model, acs_splits, rng
    ):
        seeds = acs_splits.seeds.data[:60]
        out = unnoised_model.generate_batch(seeds, rng)
        matrix = unnoised_model.batch_probability_matrix(seeds, out)
        assert np.all(matrix[np.arange(60), np.arange(60)] > 0.0)

    def test_generate_batch_matches_single_path_distribution(
        self, unnoised_model, acs_splits
    ):
        # Full re-sampling (omega = m) makes generation seed-independent, so
        # per-attribute frequencies from the two paths must agree within
        # sampling noise.
        m = len(unnoised_model.schema)
        seeds = np.tile(acs_splits.seeds.data[0], (1500, 1))
        batched = unnoised_model.generate_batch(
            seeds, np.random.default_rng(7), omegas=np.full(1500, m)
        )
        rng_single = np.random.default_rng(8)
        single = np.vstack(
            [unnoised_model.generate_with_omega(seeds[0], m, rng_single) for _ in range(1500)]
        )
        for attribute in range(m):
            cardinality = unnoised_model.schema[attribute].cardinality
            freq_batched = np.bincount(batched[:, attribute], minlength=cardinality) / 1500
            freq_single = np.bincount(single[:, attribute], minlength=cardinality) / 1500
            assert np.abs(freq_batched - freq_single).max() < 0.06

    def test_generate_batch_validates_inputs(self, unnoised_model, acs_splits, rng):
        with pytest.raises(ValueError):
            unnoised_model.generate_batch(acs_splits.seeds.data[0], rng)
        with pytest.raises(ValueError):
            unnoised_model.generate_batch(
                acs_splits.seeds.data[:5], rng, omegas=np.full(4, 9)
            )
        with pytest.raises(ValueError):
            unnoised_model.generate_batch(
                acs_splits.seeds.data[:5], rng, omegas=np.full(5, 99)
            )

    def test_generate_batch_empty(self, unnoised_model, rng):
        out = unnoised_model.generate_batch(
            np.empty((0, len(unnoised_model.schema)), dtype=np.int64), rng
        )
        assert out.shape == (0, len(unnoised_model.schema))


class TestBatchPlausibleSeedCounts:
    def test_matches_scalar_counts_without_knobs(self, rng):
        matrix = rng.random((30, 400)) * rng.integers(0, 2, size=(30, 400))
        seed_probs = np.clip(matrix.max(axis=1), 1e-9, 1.0)
        counts, partitions, checked, _ = batch_plausible_seed_counts(
            seed_probs, matrix, gamma=2.0
        )
        for index in range(30):
            count, partition, scanned, _ = plausible_seed_count(
                float(seed_probs[index]), matrix[index], gamma=2.0
            )
            assert counts[index] == count
            assert partitions[index] == partition
            assert checked[index] == scanned

    def test_max_plausible_caps_counts(self, rng):
        matrix = np.full((5, 100), 0.4)
        counts, _, _, saturated = batch_plausible_seed_counts(
            np.full(5, 0.4), matrix, gamma=2.0, max_plausible=10, rng=rng
        )
        assert np.all(counts == 10)
        assert np.all(saturated)

    def test_max_check_plausible_limits_scan(self, rng):
        matrix = np.full((5, 100), 0.4)
        counts, _, checked, _ = batch_plausible_seed_counts(
            np.full(5, 0.4), matrix, gamma=2.0, max_check_plausible=30, rng=rng
        )
        assert np.all(checked == 30)
        assert np.all(counts == 30)

    def test_early_termination_requires_rng(self):
        matrix = np.full((3, 10), 0.4)
        with pytest.raises(ValueError, match="requires an rng"):
            batch_plausible_seed_counts(
                np.full(3, 0.4), matrix, gamma=2.0, max_check_plausible=5
            )

    def test_scan_subsets_are_independent_per_candidate(self, rng):
        # Half the records are plausible; a limited scan hits a random subset,
        # so identical candidates should not always report identical counts.
        row = np.concatenate([np.full(50, 0.4), np.full(50, 1e-6)])
        matrix = np.tile(row, (40, 1))
        counts, _, _, _ = batch_plausible_seed_counts(
            np.full(40, 0.4), matrix, gamma=2.0, max_check_plausible=20, rng=rng
        )
        assert len(set(counts.tolist())) > 1

    def test_validates_shapes_and_positivity(self):
        with pytest.raises(ValueError):
            batch_plausible_seed_counts(np.array([0.5]), np.array([0.5]), gamma=2.0)
        with pytest.raises(ValueError):
            batch_plausible_seed_counts(
                np.array([0.5, 0.5]), np.full((3, 4), 0.5), gamma=2.0
            )
        with pytest.raises(ValueError):
            batch_plausible_seed_counts(
                np.array([0.5, 0.0]), np.full((2, 4), 0.5), gamma=2.0
            )


class TestMechanismBatchEquivalence:
    def test_batched_decisions_match_reference_evaluation(self, det_mechanism, rng):
        # Same candidates -> same release decisions: the deterministic test is
        # a pure function of the candidate, so re-running each batched attempt
        # through the single-record path must reproduce it exactly.
        attempts = check_batched_mechanism_parity(det_mechanism, rng, batch_size=50)
        assert len(attempts) == 50

    def test_run_attempts_batched_counts(self, det_mechanism, rng):
        report = det_mechanism.run_attempts_batched(70, rng, batch_size=32)
        assert report.num_attempts == 70

    def test_pass_rates_agree_within_noise(self, det_mechanism):
        single = det_mechanism.run_attempts(200, np.random.default_rng(21))
        batched = det_mechanism.run_attempts_batched(
            200, np.random.default_rng(22), batch_size=64
        )
        pooled = (single.num_released + batched.num_released) / 400
        sigma = np.sqrt(max(pooled * (1 - pooled), 1e-4) * (1 / 200 + 1 / 200))
        assert abs(single.pass_rate - batched.pass_rate) < 5 * sigma + 1e-9

    def test_generate_batched_stops_at_target(self, det_mechanism, rng):
        report = det_mechanism.generate(15, rng, batch_size=64)
        assert report.num_released == 15

    def test_generate_batched_respects_max_attempts(self, unnoised_model, acs_splits, rng):
        params = PlausibleDeniabilityParams(k=len(acs_splits.seeds), gamma=4.0)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        report = mechanism.generate(5, rng, max_attempts=20, batch_size=8)
        assert report.num_attempts == 20
        assert report.num_released < 5

    def test_propose_batch_with_randomized_test(self, unnoised_model, acs_splits, rng):
        params = PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=1.0)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        attempts = mechanism.propose_batch(40, rng)
        thresholds = set(attempts.thresholds.tolist())
        assert len(thresholds) > 1  # one Laplace draw per candidate
        assert np.array_equal(
            attempts.passed, attempts.plausible_seeds >= attempts.thresholds
        )

    def test_propose_batch_with_early_termination_knobs(
        self, unnoised_model, acs_splits, rng
    ):
        params = PlausibleDeniabilityParams(
            k=10, gamma=4.0, max_plausible=10, max_check_plausible=500
        )
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        attempts = mechanism.propose_batch(30, rng)
        assert np.all(attempts.records_checked <= 500)
        assert np.all(attempts.plausible_seeds <= 10)
        assert np.all(attempts.plausible_seeds[attempts.passed] >= 10)

    def test_propose_batch_validates_batch_size(self, det_mechanism, rng):
        with pytest.raises(ValueError):
            det_mechanism.propose_batch(0, rng)


class TestFastCountEquivalence:
    """The prefix-key fast path must reproduce the dense-matrix counts exactly."""

    @pytest.mark.parametrize(
        "model_fixture, seeds_fixture",
        [
            ("unnoised_model", "acs_seeds"),
            ("omega_set_model", "acs_seeds"),
            ("wide_model", "wide_seeds"),
        ],
        ids=["unnoised_model", "omega_set_model", "wide_model"],
    )
    def test_fast_counts_match_matrix_counts(
        self, model_fixture, seeds_fixture, rng, request
    ):
        model = request.getfixturevalue(model_fixture)
        seeds = request.getfixturevalue(seeds_fixture)
        mechanism = SynthesisMechanism(
            model, seeds, PlausibleDeniabilityParams(k=20, gamma=4.0)
        )
        seed_indices = rng.integers(len(seeds), size=60)
        candidates = model.generate_batch(seeds.data[seed_indices], rng)

        fast = mechanism._fast_batch_counts(seed_indices, candidates)
        assert fast is not None

        matrix = model.batch_probability_matrix(seeds.data, candidates)
        seed_probabilities = matrix[np.arange(60), seed_indices]
        counts, partitions, checked, saturated = batch_plausible_seed_counts(
            seed_probabilities, matrix, gamma=4.0
        )
        np.testing.assert_array_equal(fast[0], counts)
        np.testing.assert_array_equal(fast[1], partitions)
        np.testing.assert_array_equal(fast[2], checked)
        np.testing.assert_array_equal(fast[3], saturated)

    def test_fast_path_skipped_with_early_termination_knobs(
        self, unnoised_model, acs_splits, rng
    ):
        params = PlausibleDeniabilityParams(k=10, gamma=4.0, max_check_plausible=500)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        seed_indices = rng.integers(len(acs_splits.seeds), size=5)
        candidates = unnoised_model.generate_batch(
            acs_splits.seeds.data[seed_indices], rng
        )
        assert mechanism._fast_batch_counts(seed_indices, candidates) is None

    def test_omega_set_decisions_match_reference_evaluation(
        self, omega_set_model, acs_splits, rng
    ):
        mechanism = SynthesisMechanism(
            omega_set_model, acs_splits.seeds, PlausibleDeniabilityParams(k=20, gamma=4.0)
        )
        check_batched_mechanism_parity(mechanism, rng, batch_size=40)


class TestWideSchemaIndex:
    """The prefix-key index serves schemas whose keys overflow a plain radix."""

    @pytest.mark.parametrize("epsilon0", [None, 1.0], ids=["deterministic", "randomized"])
    def test_propose_batch_never_builds_the_dense_matrix(
        self, wide_model, wide_seeds, epsilon0, monkeypatch
    ):
        mechanism = SynthesisMechanism(
            wide_model,
            wide_seeds,
            PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=epsilon0),
        )

        def dense_matrix(self, seeds, candidates):
            raise AssertionError("the dense probability matrix was built")

        monkeypatch.setattr(
            BayesianNetworkSynthesizer, "batch_probability_matrix", dense_matrix
        )
        attempts = check_batched_mechanism_parity(
            mechanism, np.random.default_rng(24), batch_size=80
        )
        # The radix overflowed and was compressed, yet releases happen.
        assert mechanism._match_index._ranks
        assert attempts.passed.any()

    def test_multiplicities_match_brute_force_and_absent_prefixes_count_zero(
        self, wide_model, wide_seeds, rng
    ):
        mechanism = SynthesisMechanism(
            wide_model, wide_seeds, PlausibleDeniabilityParams(k=10, gamma=4.0)
        )
        index = mechanism.prepare()._match_index
        order = list(wide_model.structure.order)
        seeds = wide_seeds.data
        # 8^20 * 8 >= 2^62: the key of the first 20 σ-attributes is replaced
        # by its rank.  Value 7 occurs in no seed, so a 7 at σ-position 19
        # gives a 20-prefix no seed has that sorts right after a present one
        # (and, for the largest prefix, after every one); the candidate then
        # copies the σ-suffix of the seed whose rank it must not borrow.
        sigma = seeds[:, order]
        present = np.unique(sigma[:, :20], axis=0)
        split = next(
            i for i in range(len(present) - 1)
            if not np.array_equal(present[i, :19], present[i + 1, :19])
        )
        crafted = []
        for before, after in [(present[split], present[split + 1]), (present[-1], present[-1])]:
            donor = sigma[np.all(sigma[:, :20] == after, axis=1)][0]
            row = np.concatenate([before[:19], [WIDE_CARDINALITY - 1], donor[20:]])
            record = np.empty(WIDE_ATTRIBUTES, dtype=np.int64)
            record[order] = row
            crafted.append(record)
        # A 7 at σ-position 0 empties every ω's prefix class.
        absent_everywhere = seeds[0].copy()
        absent_everywhere[order[0]] = WIDE_CARDINALITY - 1
        candidates = np.vstack(
            [wide_model.generate_batch(seeds[:40], rng), *crafted, absent_everywhere]
        )

        keys = index.prefix_keys(candidates)
        for omega in WIDE_OMEGAS:
            sorted_keys = index.sorted_keys[omega]
            counts = np.searchsorted(sorted_keys, keys[omega], side="right") - np.searchsorted(
                sorted_keys, keys[omega], side="left"
            )
            fixed = order[: WIDE_ATTRIBUTES - omega]
            expected = [
                int(np.all(seeds[:, fixed] == candidate[fixed], axis=1).sum())
                for candidate in candidates
            ]
            np.testing.assert_array_equal(counts, expected)
            assert counts[-1] == 0
            if WIDE_ATTRIBUTES - omega > 19:
                assert not counts[-3:].any()

        counts, _, _, _ = mechanism._fast_batch_counts(
            np.array([0]), absent_everywhere[None, :]
        )
        assert counts[0] == 0


def _encoder_case(cardinalities, omegas, seed):
    """A match-structure stub, seeds that avoid each attribute's top value
    (when it has more than one), and records drawn from the full domain."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Attribute(f"e{index}", AttributeType.CATEGORICAL, tuple(range(cardinality)))
            for index, cardinality in enumerate(cardinalities)
        ]
    )
    model = SimpleNamespace(
        omegas=omegas,
        schema=schema,
        structure=SimpleNamespace(order=tuple(rng.permutation(len(cardinalities)))),
    )
    highs = np.array(cardinalities)
    seed_highs = np.maximum(highs - 1, 1)
    templates = rng.integers(seed_highs, size=(6, len(cardinalities)))
    seeds = templates[rng.integers(len(templates), size=300)]
    noise = rng.random(seeds.shape) < 0.05
    seeds[noise] = rng.integers(seed_highs, size=seeds.shape)[noise]
    # Half the records share a seed's prefix region, half are arbitrary.
    records = np.vstack([seeds[:100].copy(), rng.integers(highs, size=(100, len(highs)))])
    tweak = rng.random(records[:100].shape) < 0.03
    records[:100][tweak] = rng.integers(highs, size=records[:100].shape)[tweak]
    return model, seeds, records


#: ``mixed``: 24 attributes of cardinality 1-9 (radix product about 2^55);
#: ``binary``: 70 binary attributes (2^70, so the native limit compresses).
ENCODER_SCHEMAS = {
    "mixed": (
        tuple(int(c) for c in np.random.default_rng(31).integers(1, 10, size=24)),
        (2, 5, 5, 11),
    ),
    "binary": ((2,) * 70, (1, 4, 30)),
}
ENCODER_LIMITS = {"native": 2**62, "2^16": 2**16, "2^6": 2**6, "always": 2}


class TestPrefixKeyEncoder:
    """Prefix keys identify fixed prefixes exactly at every compression depth."""

    @pytest.mark.parametrize("limit", ENCODER_LIMITS.values(), ids=ENCODER_LIMITS)
    @pytest.mark.parametrize("schema", ENCODER_SCHEMAS)
    def test_seed_keys_equal_iff_prefixes_equal(self, schema, limit, monkeypatch):
        monkeypatch.setattr("repro.core.mechanism._KEY_LIMIT", limit)
        cardinalities, omegas = ENCODER_SCHEMAS[schema]
        model, seeds, _ = _encoder_case(cardinalities, omegas, seed=32)
        index = _SeedMatchIndex(model, seeds)
        keys = index.prefix_keys(seeds)
        order = list(model.structure.order)
        for omega in set(omegas):
            prefixes = seeds[:, order[: len(cardinalities) - omega]]
            distinct_prefixes = len(np.unique(prefixes, axis=0))
            pairs = np.column_stack([keys[omega], prefixes])
            assert len(np.unique(keys[omega])) == distinct_prefixes
            assert len(np.unique(pairs, axis=0)) == distinct_prefixes
            np.testing.assert_array_equal(index.sorted_keys[omega], np.sort(keys[omega]))

    @pytest.mark.parametrize("limit", ENCODER_LIMITS.values(), ids=ENCODER_LIMITS)
    @pytest.mark.parametrize("schema", ENCODER_SCHEMAS)
    def test_record_multiplicities_match_brute_force(self, schema, limit, monkeypatch):
        monkeypatch.setattr("repro.core.mechanism._KEY_LIMIT", limit)
        cardinalities, omegas = ENCODER_SCHEMAS[schema]
        model, seeds, records = _encoder_case(cardinalities, omegas, seed=33)
        index = _SeedMatchIndex(model, seeds)
        order = list(model.structure.order)
        longest_prefix = order[: len(cardinalities) - min(omegas)]
        radix_product = math.prod(cardinalities[column] for column in longest_prefix)
        assert bool(index._ranks) == (radix_product >= limit)
        keys = index.prefix_keys(records)
        for omega in set(omegas):
            fixed = order[: len(cardinalities) - omega]
            sorted_keys = index.sorted_keys[omega]
            counts = np.searchsorted(sorted_keys, keys[omega], side="right") - np.searchsorted(
                sorted_keys, keys[omega], side="left"
            )
            expected = [
                int(np.all(seeds[:, fixed] == record[fixed], axis=1).sum())
                for record in records
            ]
            np.testing.assert_array_equal(counts, expected)
            # Both regimes occur: shared prefixes and prefixes no seed has.
            assert (counts > 0).any() and (counts == 0).any()
