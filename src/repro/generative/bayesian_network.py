"""The seed-based Bayesian-network synthesizer (Sections 3.1-3.2).

Given a learned dependency structure and conditional tables, a synthetic
record is produced from a seed record by:

1. ordering the attributes in the dependency (topological) order σ,
2. copying the first ``m - ω`` attributes of σ from the seed,
3. re-sampling the remaining ω attributes, in order, from their conditional
   distributions given the *current* record state (so re-sampled attributes
   may condition on both copied and freshly re-sampled values).

Because a re-sampled attribute's parents always carry the same values as the
candidate record y itself (copied attributes agree with the seed *and* with
y), the probability that any record d generates y factorizes as

    Pr{y = M(d)} = 1[d and y agree on the copied attributes] * q(y) ,

where q(y) is the product of the re-sampled conditionals evaluated at y.  This
makes the plausible-seed count of the privacy test a simple (vectorized) match
count — exactly the property the paper exploits to generate millions of
records efficiently.

The ω parameter can be a single integer or a collection of integers; in the
latter case ω is drawn uniformly per generated record ("ω ∈R [5-11]" in the
paper) and seed probabilities marginalize over the same uniform choice.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.datasets.schema import Schema
from repro.generative.base import SeedBasedGenerativeModel
from repro.generative.parameters import ConditionalParameters
from repro.generative.structure import DependencyStructure

__all__ = ["BayesianNetworkSynthesizer"]


class BayesianNetworkSynthesizer(SeedBasedGenerativeModel):
    """Seed-based synthesizer backed by a Bayesian network."""

    seed_dependent = True

    def __init__(
        self,
        schema: Schema,
        structure: DependencyStructure,
        tables: Sequence[ConditionalParameters],
        omega: int | Iterable[int],
    ):
        """Create a synthesizer.

        Parameters
        ----------
        schema:
            Schema shared by seeds and synthetics.
        structure:
            The learned dependency DAG and re-sampling order.
        tables:
            One :class:`ConditionalParameters` per attribute, indexed by
            attribute position.
        omega:
            Number of attributes to re-sample: a fixed integer in
            ``[0, m]`` or an iterable of such integers from which ω is drawn
            uniformly for every generated record.
        """
        m = len(schema)
        if structure.num_attributes != m:
            raise ValueError("structure does not match the schema size")
        if len(tables) != m:
            raise ValueError(f"expected {m} conditional tables, got {len(tables)}")
        for index, table in enumerate(tables):
            if table.attribute_index != index:
                raise ValueError("tables must be ordered by attribute index")
            if table.parents != structure.parents[index]:
                raise ValueError(
                    f"table for attribute {index} does not match the structure's parents"
                )
        self._schema = schema
        self._structure = structure
        self._tables = list(tables)
        self._omegas = self._validate_omegas(omega, m)

    @staticmethod
    def _validate_omegas(omega: int | Iterable[int], num_attributes: int) -> tuple[int, ...]:
        if isinstance(omega, (int, np.integer)):
            omegas: tuple[int, ...] = (int(omega),)
        else:
            omegas = tuple(int(value) for value in omega)
        if not omegas:
            raise ValueError("omega must contain at least one value")
        for value in omegas:
            if not 0 <= value <= num_attributes:
                raise ValueError(
                    f"omega value {value} out of range [0, {num_attributes}]"
                )
        return omegas

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """Schema of seeds and synthetics."""
        return self._schema

    @property
    def structure(self) -> DependencyStructure:
        """The dependency structure."""
        return self._structure

    @property
    def tables(self) -> list[ConditionalParameters]:
        """The conditional tables, one per attribute."""
        return self._tables

    @property
    def omegas(self) -> tuple[int, ...]:
        """The set of ω values the synthesizer draws from."""
        return self._omegas

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _bucketize_record(self, record: np.ndarray) -> np.ndarray:
        return self.bucketize_records(np.asarray(record, dtype=np.int64)[None, :])[0]

    def bucketize_records(self, records: np.ndarray) -> np.ndarray:
        """Column-wise bucketization of a (records x attributes) matrix."""
        matrix = np.asarray(records, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise ValueError(
                f"records must be a 2-D array with {len(self._schema)} columns, "
                f"got shape {matrix.shape}"
            )
        bucketized = np.empty_like(matrix)
        for index, attribute in enumerate(self._schema):
            bucketized[:, index] = attribute.bucketize(matrix[:, index])
        return bucketized

    def _parent_values(self, bucketized_record: np.ndarray, attribute: int) -> np.ndarray | None:
        parents = self._structure.parents[attribute]
        if not parents:
            return None
        return bucketized_record[list(parents)]

    def _fixed_attributes(self, omega: int) -> tuple[int, ...]:
        """Attributes copied from the seed when re-sampling ω attributes."""
        m = len(self._schema)
        return self._structure.order[: m - omega]

    def _resampled_attributes(self, omega: int) -> tuple[int, ...]:
        """Attributes re-sampled (in σ order) when re-sampling ω attributes."""
        m = len(self._schema)
        return self._structure.order[m - omega :]

    def _draw_omega(self, rng: np.random.Generator) -> int:
        if len(self._omegas) == 1:
            return self._omegas[0]
        return int(self._omegas[rng.integers(len(self._omegas))])

    def draw_omegas(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw one ω per record, uniformly from the configured ω set."""
        if size < 0:
            raise ValueError("size must be non-negative")
        choices = np.asarray(self._omegas, dtype=np.int64)
        if choices.size == 1:
            return np.full(size, choices[0], dtype=np.int64)
        return choices[rng.integers(choices.size, size=size)]

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate(self, seed: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Generate one synthetic record from the seed (ω drawn if needed)."""
        return self.generate_with_omega(seed, self._draw_omega(rng), rng)

    def generate_with_omega(
        self, seed: np.ndarray, omega: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Generate one synthetic record re-sampling exactly ``omega`` attributes."""
        record = np.asarray(seed, dtype=np.int64).copy()
        if record.shape != (len(self._schema),):
            raise ValueError(
                f"seed must have {len(self._schema)} attributes, got shape {record.shape}"
            )
        if not 0 <= omega <= len(self._schema):
            raise ValueError(f"omega must lie in [0, {len(self._schema)}]")
        bucketized = self._bucketize_record(record)
        for attribute in self._resampled_attributes(omega):
            parent_values = self._parent_values(bucketized, attribute)
            new_value = self._tables[attribute].sample(rng, parent_values)
            record[attribute] = new_value
            bucketized[attribute] = int(
                self._schema[attribute].bucketize(np.array([new_value]))[0]
            )
        return record

    def sample_record(self, rng: np.random.Generator) -> np.ndarray:
        """Ancestral sampling of a full record (every attribute re-sampled)."""
        placeholder = np.zeros(len(self._schema), dtype=np.int64)
        return self.generate_with_omega(placeholder, len(self._schema), rng)

    def generate_batch(
        self,
        seeds: np.ndarray,
        rng: np.random.Generator,
        omegas: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized ancestral re-sampling over every row of ``seeds`` at once.

        Walks the re-sampling order σ a single time; at each position the rows
        whose ω covers that attribute draw a new value together through one
        vectorized conditional-table lookup, so the per-record Python overhead
        of :meth:`generate` is amortized over the whole batch.

        Parameters
        ----------
        seeds:
            (records x attributes) matrix of seed rows.
        rng:
            Source of randomness for the ω draws and the re-sampling.
        omegas:
            Optional per-row ω values; drawn uniformly from the configured ω
            set when omitted.
        """
        matrix = np.asarray(seeds, dtype=np.int64)
        m = len(self._schema)
        if matrix.ndim != 2 or matrix.shape[1] != m:
            raise ValueError(
                f"seeds must be a 2-D array with {m} columns, got shape {matrix.shape}"
            )
        num_rows = matrix.shape[0]
        if omegas is None:
            omega_draws = self.draw_omegas(rng, num_rows)
        else:
            omega_draws = np.asarray(omegas, dtype=np.int64)
            if omega_draws.shape != (num_rows,):
                raise ValueError("omegas must hold one value per seed row")
            if omega_draws.size and (omega_draws.min() < 0 or omega_draws.max() > m):
                raise ValueError(f"omega values must lie in [0, {m}]")
        if num_rows == 0:
            return np.empty((0, m), dtype=np.int64)

        records = matrix.copy()
        bucketized = self.bucketize_records(records)
        for position, attribute in enumerate(self._structure.order):
            # Attribute at position p is re-sampled for a row iff ω >= m - p.
            rows = np.nonzero(omega_draws >= m - position)[0]
            if rows.size == 0:
                continue
            table = self._tables[attribute]
            parents = list(self._structure.parents[attribute])
            configs = table.configuration_indices(bucketized[rows][:, parents])
            values = table.sample_batch(rng, configs)
            records[rows, attribute] = values
            bucketized[rows, attribute] = self._schema[attribute].bucketize(values)
        return records

    # ------------------------------------------------------------------ #
    # Probabilities
    # ------------------------------------------------------------------ #
    def candidate_factor(self, candidate: np.ndarray, omega: int) -> float:
        """q(y): product of the re-sampled conditionals evaluated at the candidate."""
        record = np.asarray(candidate, dtype=np.int64)
        bucketized = self._bucketize_record(record)
        probability = 1.0
        for attribute in self._resampled_attributes(omega):
            parent_values = self._parent_values(bucketized, attribute)
            probability *= self._tables[attribute].probability(
                int(record[attribute]), parent_values
            )
        return probability

    def seed_probability_with_omega(
        self, seed: np.ndarray, candidate: np.ndarray, omega: int
    ) -> float:
        """Pr{candidate = M_ω(seed)} for a specific ω."""
        seed_record = np.asarray(seed, dtype=np.int64)
        candidate_record = np.asarray(candidate, dtype=np.int64)
        fixed = list(self._fixed_attributes(omega))
        if fixed and not np.array_equal(seed_record[fixed], candidate_record[fixed]):
            return 0.0
        return self.candidate_factor(candidate_record, omega)

    def seed_probability(self, seed: np.ndarray, candidate: np.ndarray) -> float:
        """Pr{candidate = M(seed)}, marginalized over the ω distribution."""
        total = 0.0
        for omega in self._omegas:
            total += self.seed_probability_with_omega(seed, candidate, omega)
        return total / len(self._omegas)

    def batch_seed_probabilities_with_omega(
        self, seeds: np.ndarray, candidate: np.ndarray, omega: int
    ) -> np.ndarray:
        """Vectorized Pr{candidate = M_ω(seed)} over every row of ``seeds``."""
        matrix = np.asarray(seeds, dtype=np.int64)
        candidate_record = np.asarray(candidate, dtype=np.int64)
        factor = self.candidate_factor(candidate_record, omega)
        fixed = list(self._fixed_attributes(omega))
        if not fixed:
            return np.full(matrix.shape[0], factor, dtype=np.float64)
        matches = np.all(matrix[:, fixed] == candidate_record[fixed], axis=1)
        return matches.astype(np.float64) * factor

    def batch_seed_probabilities(
        self, seeds: np.ndarray, candidate: np.ndarray
    ) -> np.ndarray:
        """Vectorized Pr{candidate = M(seed)} (ω-marginalized) over seed rows."""
        matrix = np.asarray(seeds, dtype=np.int64)
        total = np.zeros(matrix.shape[0], dtype=np.float64)
        for omega in self._omegas:
            total += self.batch_seed_probabilities_with_omega(matrix, candidate, omega)
        return total / len(self._omegas)

    def candidate_factors_batch(self, candidates: np.ndarray, omega: int) -> np.ndarray:
        """Vectorized q(y) over every row of ``candidates`` for a fixed ω."""
        matrix = np.asarray(candidates, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._schema):
            raise ValueError(
                f"candidates must be a 2-D array with {len(self._schema)} columns, "
                f"got shape {matrix.shape}"
            )
        if not 0 <= omega <= len(self._schema):
            raise ValueError(f"omega must lie in [0, {len(self._schema)}]")
        bucketized = self.bucketize_records(matrix)
        factors = np.ones(matrix.shape[0], dtype=np.float64)
        for attribute in self._resampled_attributes(omega):
            table = self._tables[attribute]
            parents = list(self._structure.parents[attribute])
            configs = table.configuration_indices(bucketized[:, parents])
            factors *= table.probabilities_batch(matrix[:, attribute], configs)
        return factors

    def candidate_factor_suffix_products(self, candidates: np.ndarray) -> np.ndarray:
        """(m+1, candidates) array: row p = product of conditionals at σ-positions >= p.

        ``row[m - ω]`` is exactly q_ω(y) for every candidate, so one backward
        walk over the re-sampling order serves every ω of the ω set at once —
        the per-ω callers would otherwise re-bucketize the candidate block and
        recompute the overlapping factor products once per ω.
        """
        matrix = np.asarray(candidates, dtype=np.int64)
        m = len(self._schema)
        if matrix.ndim != 2 or matrix.shape[1] != m:
            raise ValueError(
                f"candidates must be a 2-D array with {m} columns, got shape {matrix.shape}"
            )
        bucketized = self.bucketize_records(matrix)
        products = np.ones((m + 1, matrix.shape[0]), dtype=np.float64)
        for position in range(m - 1, -1, -1):
            attribute = self._structure.order[position]
            table = self._tables[attribute]
            parents = list(self._structure.parents[attribute])
            configs = table.configuration_indices(bucketized[:, parents])
            products[position] = products[position + 1] * table.probabilities_batch(
                matrix[:, attribute], configs
            )
        return products

    def batch_probability_matrix(
        self, seeds: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Pr{candidates[c] = M(seeds[s])} for every (candidate, seed) pair.

        Returns a (candidates x seeds) matrix, ω-marginalized.  For each ω the
        probability factorizes as ``match(c, s) * q(c)`` — a fixed-attribute
        agreement indicator times a per-candidate factor — so the whole matrix
        is a handful of broadcast comparisons and one outer product per ω.
        """
        seed_matrix = np.asarray(seeds, dtype=np.int64)
        cand_matrix = np.asarray(candidates, dtype=np.int64)
        if seed_matrix.ndim != 2 or seed_matrix.shape[1] != len(self._schema):
            raise ValueError("seeds must be a 2-D array matching the schema width")
        if cand_matrix.ndim != 2 or cand_matrix.shape[1] != len(self._schema):
            raise ValueError("candidates must be a 2-D array matching the schema width")
        suffix_products = self.candidate_factor_suffix_products(cand_matrix)
        m = len(self._schema)
        total = np.zeros((cand_matrix.shape[0], seed_matrix.shape[0]), dtype=np.float64)
        for omega in self._omegas:
            factors = suffix_products[m - omega]
            fixed = self._fixed_attributes(omega)
            if fixed:
                matches = np.ones(total.shape, dtype=bool)
                for attribute in fixed:
                    matches &= (
                        cand_matrix[:, attribute][:, None]
                        == seed_matrix[:, attribute][None, :]
                    )
                total += matches * factors[:, None]
            else:
                total += factors[:, None]
        return total / len(self._omegas)

    # ------------------------------------------------------------------ #
    # Prediction (used by the model-accuracy experiments, Figures 1-2)
    # ------------------------------------------------------------------ #
    def conditional_scores(self, record: np.ndarray, attribute: int) -> np.ndarray:
        """Unnormalized Pr{x_i = v | x_-i} for every value v of one attribute.

        Under the Bayesian network, Pr{x_i | x_-i} is proportional to the
        product of the factors in i's Markov blanket: its own conditional and
        the conditionals of its children.  The child factors only depend on
        the *bucketized* value of attribute i (parents enter conditionals in
        their bucketized domains), so they are evaluated once per bucket.
        """
        encoded = np.asarray(record, dtype=np.int64).copy()
        schema_attribute = self._schema[attribute]
        cardinality = schema_attribute.cardinality
        bucketized = self._bucketize_record(encoded)
        children = [
            child
            for child in range(len(self._schema))
            if attribute in self._structure.parents[child]
        ]

        # Own-conditional factor: a full distribution over the values.
        own_distribution = self._tables[attribute].distribution(
            self._parent_values(bucketized, attribute)
        )
        scores = np.array(own_distribution, dtype=np.float64, copy=True)

        if not children:
            return scores

        # Child factors depend only on the target's bucket.
        value_buckets = schema_attribute.bucketize(np.arange(cardinality))
        bucket_factor: dict[int, float] = {}
        for bucket in np.unique(value_buckets):
            bucketized[attribute] = int(bucket)
            factor = 1.0
            for child in children:
                factor *= self._tables[child].probability(
                    int(encoded[child]), self._parent_values(bucketized, child)
                )
            bucket_factor[int(bucket)] = factor
        scores *= np.array([bucket_factor[int(b)] for b in value_buckets])
        return scores

    def most_likely_value(self, record: np.ndarray, attribute: int) -> int:
        """Most likely value of one attribute given the rest of the record."""
        return int(np.argmax(self.conditional_scores(record, attribute)))
