"""Mechanism 1: seed sampling, candidate generation and the privacy test.

Given a generative model M, a seed dataset D and privacy parameters (k, γ)
(plus ε0 for the randomized test), the mechanism:

1. samples a seed record d uniformly at random from D,
2. generates a candidate synthetic y = M(d),
3. runs the privacy test on (M, D, d, y, k, γ),
4. releases y iff the test passes (otherwise there is no output).

The test counts *plausible seeds*: records of D whose probability of
generating y falls into the same geometric bucket as the true seed's.  The
mechanism asks the model for those probabilities via
``batch_seed_probabilities`` so that models can vectorize the computation.

Besides the one-candidate-at-a-time reference loop (:meth:`propose`), the
mechanism offers a batched path (:meth:`propose_batch` /
:meth:`run_attempts_batched`) that pushes whole blocks of seeds through the
model's vectorized generation and probability interfaces — the hot path for
producing millions of records (Section 5, Figure 5).

Every path returns a columnar :class:`~repro.core.results.SynthesisReport`:
a batch is its seed indices, its candidate matrix and the privacy test's
outcome columns, with no per-candidate object.  The reference loop builds
one-row reports and concatenates them, so it yields the same columns and
stays the oracle for the batched path.  :meth:`generate` stops at the batch
that holds the Nth release, which is what lets an engine chunk end early.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import SynthesisReport
from repro.datasets.dataset import Dataset
from repro.obs.profile import phase as obs_phase
from repro.generative.base import GenerativeModel
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    PrivacyTestColumns,
    make_privacy_test,
    partition_numbers,
)

__all__ = ["SynthesisMechanism"]


#: Keys stay below this bound, so a key times the next radix plus a digit
#: never overflows int64.
_KEY_LIMIT = 2**62


def _has_match_structure(model) -> bool:
    """Whether ``model`` exposes the interface the prefix-key index needs."""
    return hasattr(model, "omegas") and hasattr(
        model, "candidate_factor_suffix_products"
    )


class _SeedMatchIndex:
    """Sorted fixed-prefix keys of the seed dataset, one array per ω.

    Because Pr{y = M_ω(d)} factorizes as ``match(d, y) * q_ω(y)`` — a
    fixed-attribute agreement indicator times a per-candidate factor — the
    plausible-seed count only needs, per candidate, the *multiplicity* of its
    fixed-prefix key among the seed records.  Sorting the seed keys once turns
    every batch's counting into ``searchsorted`` queries, making the per-
    candidate cost of the privacy test (nearly) independent of the seed-set
    size instead of linear in it.

    Keys are built by walking the re-sampling order σ once and folding each
    attribute in as a mixed-radix int64 digit; the key after the first
    ``m - ω`` attributes identifies ω's fixed prefix.  When the next digit
    would reach 2^62 the running key is replaced by its dense rank among the
    seed keys, so every schema gets exact keys.  One extra rank marks a
    prefix that no seed has: such a record matches no seed.
    """

    def __init__(self, model, seed_data: np.ndarray):
        # Ascending ω (longest fixed prefix first), multiplicity preserved so
        # a non-uniform ω tuple keeps its weighting in the suffix sums.
        self.omegas: tuple[int, ...] = tuple(sorted(model.omegas))
        num_attributes = len(model.schema)
        self._cuts = {num_attributes - omega: omega for omega in self.omegas}
        self._columns = model.structure.order[: max(self._cuts)]
        self._radices = [model.schema[column].cardinality for column in self._columns]
        # σ-position -> sorted distinct seed keys the running key is ranked in.
        self._ranks: dict[int, np.ndarray] = {}
        self.sorted_keys = {
            omega: np.sort(keys)
            for omega, keys in self._fold(seed_data, build=True).items()
        }

    def prefix_keys(self, records: np.ndarray) -> dict[int, np.ndarray]:
        """Each record's fixed-prefix key, per distinct ω."""
        return self._fold(records, build=False)

    def _fold(self, records: np.ndarray, build: bool) -> dict[int, np.ndarray]:
        matrix = np.asarray(records, dtype=np.int64)
        keys = np.zeros(matrix.shape[0], dtype=np.int64)
        bound = 1  # exclusive upper bound of every key
        by_omega: dict[int, np.ndarray] = {}
        for position, (column, radix) in enumerate(zip(self._columns, self._radices)):
            if position in self._cuts:
                by_omega[self._cuts[position]] = keys
            if bound * radix >= _KEY_LIMIT:
                if build:
                    self._ranks[position] = np.unique(keys)
                seed_keys = self._ranks[position]
                rank = np.searchsorted(seed_keys, keys)
                found = seed_keys[np.minimum(rank, seed_keys.size - 1)] == keys
                keys = np.where(found, rank, seed_keys.size)
                bound = seed_keys.size + 1
            keys = keys * radix + matrix[:, column]
            bound *= radix
        by_omega[self._cuts[len(self._columns)]] = keys
        return by_omega


class SynthesisMechanism:
    """Mechanism 1 of the paper, parameterized by a model and a privacy test."""

    def __init__(
        self,
        model: GenerativeModel,
        seed_dataset: Dataset,
        params: PlausibleDeniabilityParams,
    ):
        if seed_dataset.schema != model.schema:
            raise ValueError("the seed dataset's schema must match the model's schema")
        if len(seed_dataset) < params.k:
            raise ValueError(
                f"the seed dataset must hold at least k={params.k} records, "
                f"got {len(seed_dataset)}"
            )
        self._model = model
        self._seeds = seed_dataset
        self._params = params
        self._test = make_privacy_test(params)
        self._match_index: _SeedMatchIndex | None = None

    @property
    def model(self) -> GenerativeModel:
        """The generative model M."""
        return self._model

    @property
    def seed_dataset(self) -> Dataset:
        """The seed dataset DS."""
        return self._seeds

    @property
    def params(self) -> PlausibleDeniabilityParams:
        """The plausible-deniability parameters."""
        return self._params

    def prepare(self) -> "SynthesisMechanism":
        """Build the sorted prefix-key match index eagerly.

        The index is otherwise built lazily on the first batched proposal;
        long-lived engine workers call this once at startup so the one-off
        sort cost never lands inside a timed or dispatched chunk.  A no-op
        for models without the match-structure interface.
        """
        if self._match_index is None and _has_match_structure(self._model):
            self._match_index = _SeedMatchIndex(self._model, self._seeds.data)
        return self

    # ------------------------------------------------------------------ #
    # Single-candidate operation
    # ------------------------------------------------------------------ #
    def propose(self, rng: np.random.Generator) -> SynthesisReport:
        """Run steps 1-3 of Mechanism 1 once; a one-attempt report."""
        seed_index = int(rng.integers(len(self._seeds)))
        seed = self._seeds.record(seed_index)
        candidate = self._model.generate(seed, rng)
        return self.evaluate_candidate(seed_index, candidate, rng)

    def evaluate_candidate(
        self,
        seed_index: int,
        candidate: np.ndarray,
        rng: np.random.Generator,
    ) -> SynthesisReport:
        """Run the privacy test for an externally generated candidate.

        The scalar reference path: the one-attempt report it returns holds
        the same columns the batched path computes for this candidate.
        """
        seed = self._seeds.record(seed_index)
        seed_probability = self._model.seed_probability(seed, candidate)
        dataset_probabilities = self._model.batch_seed_probabilities(
            self._seeds.data, candidate
        )
        result = self._test(seed_probability, dataset_probabilities, rng)
        return SynthesisReport.from_tests(
            self._seeds.schema,
            np.array([seed_index], dtype=np.int64),
            np.asarray(candidate, dtype=np.int64).reshape(1, -1),
            PrivacyTestColumns.from_results([result]),
        )

    # ------------------------------------------------------------------ #
    # Batched operation
    # ------------------------------------------------------------------ #
    def propose_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> SynthesisReport:
        """Run steps 1-3 of Mechanism 1 for a whole block of candidates at once.

        Seeds are drawn, candidates generated and the privacy test evaluated
        through the model's vectorized batch interfaces
        (:meth:`~repro.generative.base.GenerativeModel.generate_batch` /
        :meth:`~repro.generative.base.GenerativeModel.batch_probability_matrix`),
        so the per-candidate Python overhead of :meth:`propose` is amortized
        over the batch.  Each candidate's release decision is still
        independent, exactly as in the sequential loop.  The result is the
        batch's ``batch_size``-attempt report.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        with obs_phase("sample"):
            seed_indices = rng.integers(len(self._seeds), size=batch_size)
            candidates = self._model.generate_batch(
                self._seeds.data[seed_indices], rng
            )
        with obs_phase("privacy_test"):
            fast_counts = self._fast_batch_counts(seed_indices, candidates)
            if fast_counts is not None:
                counts, partitions, checked, saturated = fast_counts
                tests = self._test.results_from_counts(
                    counts, partitions, checked, rng, saturated=saturated
                )
            else:
                probability_matrix = self._model.batch_probability_matrix(
                    self._seeds.data, candidates
                )
                # The true seed is a row of the seed dataset, so its
                # generation probability is already a column of the matrix.
                seed_probabilities = probability_matrix[
                    np.arange(batch_size), seed_indices
                ]
                tests = self._test.run_batch(
                    seed_probabilities, probability_matrix, rng
                )
        return SynthesisReport.from_tests(
            self._seeds.schema,
            np.asarray(seed_indices, dtype=np.int64),
            np.asarray(candidates, dtype=np.int64),
            tests,
        )

    def _fast_batch_counts(
        self, seed_indices: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Exact plausible counts via the sorted prefix-key index, or ``None``.

        Every record with Pr{y = M(d)} > 0 agrees with the candidate on some
        fixed prefix of the re-sampling order; nesting of the prefixes across
        ω means a record's probability is determined by its *longest* matching
        prefix (its class), so per-candidate bucket counts reduce to class
        counts — key-multiplicity differences — times a partition comparison
        on the handful of per-class probabilities.  Produces the same counts
        as the dense probability-matrix path without materializing it.

        Returns ``None`` when the fast path does not apply: early-termination
        knobs request subset scans, or the model does not expose the
        match-structure interface (``omegas`` and
        ``candidate_factor_suffix_products``).
        """
        params = self._params
        if params.max_check_plausible is not None or params.max_plausible is not None:
            return None
        if not _has_match_structure(self._model):
            return None
        self.prepare()
        index = self._match_index

        omegas = index.omegas
        num_omegas = len(omegas)
        num_candidates = candidates.shape[0]
        num_attributes = len(self._seeds.schema)
        suffix_products = self._model.candidate_factor_suffix_products(candidates)
        factors = suffix_products[[num_attributes - omega for omega in omegas]]
        # class_probability[j] = Pr of a record whose longest matching prefix
        # is fixed(ω_j): it matches every looser prefix too, so its ω-averaged
        # probability is the suffix sum of the candidate factors.
        class_probabilities = np.cumsum(factors[::-1], axis=0)[::-1] / num_omegas

        candidate_keys = index.prefix_keys(candidates)
        seed_keys = index.prefix_keys(self._seeds.data[seed_indices])
        cumulative_matches = np.empty((num_omegas, num_candidates), dtype=np.int64)
        seed_matches = np.empty((num_omegas, num_candidates), dtype=bool)
        for j, omega in enumerate(omegas):
            keys = candidate_keys[omega]
            sorted_keys = index.sorted_keys[omega]
            left = np.searchsorted(sorted_keys, keys, side="left")
            right = np.searchsorted(sorted_keys, keys, side="right")
            cumulative_matches[j] = right - left
            seed_matches[j] = seed_keys[omega] == keys
        # Prefix nesting makes the cumulative match counts monotone in j;
        # differencing yields the exact per-class counts.
        class_counts = np.diff(cumulative_matches, axis=0, prepend=0)

        class_partitions = partition_numbers(class_probabilities, params.gamma)
        # The true seed always matches the prefix of its drawn ω, so its class
        # is the first matching one.
        seed_class = np.argmax(seed_matches, axis=0)
        seed_partitions = class_partitions[seed_class, np.arange(num_candidates)]
        counts = np.sum(
            class_counts * (class_partitions == seed_partitions[None, :]), axis=0
        )
        checked = np.full(num_candidates, len(self._seeds), dtype=np.int64)
        saturated = np.zeros(num_candidates, dtype=bool)
        return counts, seed_partitions, checked, saturated

    def run_attempts_batched(
        self,
        num_attempts: int,
        rng: np.random.Generator,
        batch_size: int = 256,
    ) -> SynthesisReport:
        """Propose exactly ``num_attempts`` candidates in vectorized batches."""
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        return self._propose_until(num_attempts, None, rng, batch_size)

    def generate(
        self,
        num_released: int,
        rng: np.random.Generator,
        max_attempts: int | None = None,
        batch_size: int | None = None,
    ) -> SynthesisReport:
        """Propose candidates until ``num_released`` records pass the test.

        ``max_attempts`` bounds the total number of proposals (default: 100
        attempts per requested record); the report may therefore contain fewer
        released records than requested when the privacy parameters are
        strict.  With ``batch_size`` set, candidates are proposed through the
        vectorized batch path and no batch is drawn after the one holding the
        Nth release; the report ends at that release exactly as in the
        reference loop (the unrecorded i.i.d. remainder of the final batch
        introduces no bias), so the released count never overshoots — every
        release costs privacy budget.  The batches drawn are those of
        :meth:`run_attempts` with the same ``max_attempts``, so this report is
        always a prefix of that one.
        """
        if num_released < 0:
            raise ValueError("num_released must be non-negative")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when provided")
        limit = max_attempts if max_attempts is not None else 100 * max(1, num_released)
        return self._propose_until(limit, num_released, rng, _batched(batch_size))

    def run_attempts(
        self,
        num_attempts: int,
        rng: np.random.Generator,
        batch_size: int | None = None,
    ) -> SynthesisReport:
        """Propose exactly ``num_attempts`` candidates (used for pass-rate studies).

        ``batch_size`` > 1 proposes in vectorized batches; ``None`` or 1 runs
        the single-record reference loop.
        """
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        return self._propose_until(num_attempts, None, rng, _batched(batch_size))

    def _propose_until(
        self,
        limit: int,
        num_released: int | None,
        rng: np.random.Generator,
        batch_size: int | None,
    ) -> SynthesisReport:
        """Propose up to ``limit`` candidates, stopping once ``num_released``
        have passed (never, for ``None``), in batches of ``batch_size``
        (``None``: the single-record reference loop)."""
        batches: list[SynthesisReport] = []
        attempts = released = 0
        while attempts < limit and (num_released is None or released < num_released):
            if batch_size is None:
                batch = self.propose(rng)
            else:
                batch = self.propose_batch(min(batch_size, limit - attempts), rng)
            batches.append(batch)
            attempts += batch.num_attempts
            released += batch.num_released
        return SynthesisReport.merged(
            self._seeds.schema, batches, stop_after_released=num_released
        )


def _batched(batch_size: int | None) -> int | None:
    """The batch size of the vectorized path, or ``None`` for the reference
    loop (which ``None`` and 1 select)."""
    return batch_size if batch_size is not None and batch_size > 1 else None
