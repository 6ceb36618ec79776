"""Dependency-structure learning (Section 3.3 of the paper).

The structure of the generative model is a directed acyclic graph over the
data attributes.  It is learned by greedy Correlation-based Feature Selection
(CFS): for each attribute, parents are added one at a time so as to maximize
the merit score of Eq. 4,

    score(P) = sum_{j in P} corr(x_i, x_j)
               / sqrt(|P| + sum_{j,k in P, j != k} corr(x_j, x_k)) ,

where ``corr`` is the symmetrical uncertainty coefficient (Eq. 5), subject to

* the overall graph staying acyclic, and
* the parent-configuration cost of Eq. 6 staying below ``max_parent_cost``
  (parents are counted in their *bucketized* domains, Eq. 7).

The differentially-private variant replaces every entropy value with a noisy
one (Laplace noise scaled by the Lemma 1 sensitivity bound computed from a
noisy record count) before running exactly the same greedy search.

Two interchangeable engines implement the learner:

* ``"vectorized"`` (the default) derives every entropy from one shared scan of
  the data (:class:`~repro.stats.pairwise.PairwiseStats`), draws all Laplace
  noise in a single batched call and keeps candidate-edge acyclicity checks
  O(m) with an incrementally maintained reachability bitset;
* ``"reference"`` is the direct per-pair / per-edge loop transcription of the
  paper, kept as the ground truth for equivalence tests.

Both engines learn identical structures; in the DP variant they consume the
same number of Laplace draws from the generator (so the stream position after
learning agrees) but assign the draws to entropy values in a different order,
so individual noisy entropies — and hence DP structures — differ between
engines for the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.datasets.dataset import Dataset
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.laplace import laplace_mechanism
from repro.stats.entropy import (
    entropy,
    entropy_sensitivity_bound,
    joint_entropy,
    symmetrical_uncertainty_from_entropies,
)
from repro.stats.pairwise import CrossPairwiseStats, block_entropy

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["DependencyStructure", "StructureLearningConfig", "StructureLearner"]

_ENGINES = ("vectorized", "reference")


@dataclass(frozen=True)
class DependencyStructure:
    """A learned DAG over attributes plus a compatible re-sampling order.

    Parameters
    ----------
    parents:
        ``parents[i]`` is the tuple of parent attribute indices of attribute i
        (possibly empty).
    order:
        A permutation of attribute indices that is a topological order of the
        DAG: every attribute appears after all of its parents.  This is the
        re-sampling order σ used by the synthesizer (Section 3.2).
    """

    parents: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.parents)
        if sorted(self.order) != list(range(m)):
            raise ValueError("order must be a permutation of the attribute indices")
        position = {attribute: pos for pos, attribute in enumerate(self.order)}
        for child, parent_set in enumerate(self.parents):
            for parent in parent_set:
                if not 0 <= parent < m:
                    raise ValueError(f"parent index {parent} out of range")
                if parent == child:
                    raise ValueError(f"attribute {child} cannot be its own parent")
                if position[parent] >= position[child]:
                    raise ValueError(
                        "order is not a topological order of the parent structure"
                    )

    @property
    def num_attributes(self) -> int:
        """Number of attributes (nodes) in the structure."""
        return len(self.parents)

    @property
    def num_edges(self) -> int:
        """Total number of parent-child edges."""
        return sum(len(parent_set) for parent_set in self.parents)

    def as_digraph(self) -> nx.DiGraph:
        """The structure as a networkx directed graph (edges parent -> child)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_attributes))
        for child, parent_set in enumerate(self.parents):
            graph.add_edges_from((parent, child) for parent in parent_set)
        return graph

    @classmethod
    def empty(cls, num_attributes: int) -> "DependencyStructure":
        """A structure with no edges (every attribute independent)."""
        return cls(
            parents=tuple(() for _ in range(num_attributes)),
            order=tuple(range(num_attributes)),
        )

    @classmethod
    def from_parent_map(cls, parents: dict[int, tuple[int, ...]], num_attributes: int) -> "DependencyStructure":
        """Build a structure from a child -> parents mapping, deriving an order."""
        import networkx as nx

        parent_tuples = tuple(tuple(parents.get(i, ())) for i in range(num_attributes))
        graph = nx.DiGraph()
        graph.add_nodes_from(range(num_attributes))
        for child, parent_set in enumerate(parent_tuples):
            graph.add_edges_from((parent, child) for parent in parent_set)
        if not nx.is_directed_acyclic_graph(graph):
            raise ValueError("the parent map contains a cycle")
        order = tuple(nx.lexicographical_topological_sort(graph))
        return cls(parents=parent_tuples, order=order)


@dataclass
class StructureLearningConfig:
    """Knobs of the CFS structure learner.

    Parameters
    ----------
    max_parent_cost:
        Maximum allowed product of (bucketized) parent cardinalities for any
        attribute (Eq. 6); prevents over-fitting the conditional tables.
    max_parents:
        Hard cap on the number of parents per attribute (practical guard on
        top of the cost constraint).
    epsilon_entropy:
        Per-entropy-value ε for the DP variant; ``None`` learns without noise.
    epsilon_count:
        ε used to randomize the record count that feeds the sensitivity bound
        (Eq. 10).  Only used when ``epsilon_entropy`` is set.
    min_merit_gain:
        Minimum improvement of the CFS merit required to add another parent.
    max_table_cells:
        Optional cap on the total number of cells of an attribute's
        conditional table, i.e. (parent-configuration count) × (attribute
        cardinality).  The paper's Eq. 6 only bounds the configuration count,
        which is adequate at its 280k-record parameter split; at smaller
        scales this extra knob keeps the per-cell counts large enough to
        survive the DP noise of Eq. 14.  ``None`` (the default) reproduces the
        paper's behaviour exactly.
    engine:
        ``"vectorized"`` (default) uses the shared-scan pairwise-statistics
        engine, batched noise draws and incremental acyclicity bookkeeping;
        ``"reference"`` is the per-pair loop transcription kept for
        equivalence testing.
    """

    max_parent_cost: int = 300
    max_parents: int = 4
    epsilon_entropy: float | None = None
    epsilon_count: float = 0.1
    min_merit_gain: float = 1e-6
    max_table_cells: int | None = None
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if self.max_parent_cost < 1:
            raise ValueError("max_parent_cost must be positive")
        if self.max_parents < 0:
            raise ValueError("max_parents must be non-negative")
        if self.epsilon_entropy is not None and self.epsilon_entropy <= 0:
            raise ValueError("epsilon_entropy must be positive when provided")
        if self.epsilon_count <= 0:
            raise ValueError("epsilon_count must be positive")
        if self.max_table_cells is not None and self.max_table_cells < 1:
            raise ValueError("max_table_cells must be positive when provided")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")


@dataclass
class _CorrelationTables:
    """Symmetrical-uncertainty values needed by the greedy CFS search.

    ``target_parent[i, j]`` is corr(x_i, bkt(x_j)) — how well (bucketized)
    attribute j predicts attribute i.  ``parent_parent[j, k]`` is
    corr(bkt(x_j), bkt(x_k)) — the redundancy between candidate parents.
    """

    target_parent: np.ndarray
    parent_parent: np.ndarray


class StructureLearner:
    """Greedy CFS structure learner with optional differential privacy."""

    def __init__(
        self,
        config: StructureLearningConfig | None = None,
        accountant: PrivacyAccountant | None = None,
    ):
        self._config = config if config is not None else StructureLearningConfig()
        self._accountant = accountant

    @property
    def config(self) -> StructureLearningConfig:
        """The learner's configuration."""
        return self._config

    # ------------------------------------------------------------------ #
    # Entropy / correlation computation
    # ------------------------------------------------------------------ #
    def _entropy_tables_reference(
        self, dataset: Dataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Noise-free entropies via one joint_entropy pass per attribute pair."""
        schema = dataset.schema
        m = len(schema)
        raw = dataset.data
        bucketized = dataset.bucketized()
        cardinalities = schema.cardinalities
        bucket_cards = schema.bucketized_cardinalities

        h_raw = np.array([entropy(raw[:, i], cardinalities[i]) for i in range(m)])
        h_bkt = np.array([entropy(bucketized[:, i], bucket_cards[i]) for i in range(m)])
        h_raw_bkt = np.zeros((m, m))
        h_bkt_bkt = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                h_raw_bkt[i, j] = joint_entropy(
                    raw[:, i], bucketized[:, j], cardinalities[i], bucket_cards[j]
                )
                if j > i:
                    h_bkt_bkt[i, j] = joint_entropy(
                        bucketized[:, i], bucketized[:, j], bucket_cards[i], bucket_cards[j]
                    )
                    h_bkt_bkt[j, i] = h_bkt_bkt[i, j]
        return h_raw, h_bkt, h_raw_bkt, h_bkt_bkt

    def _entropy_tables_vectorized(
        self, dataset: Dataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Noise-free entropies from one shared scan of [raw | bucketized].

        The raw and bucketized encodings are stacked into 2m virtual
        attributes so a single Gram product yields every contingency table the
        learner needs: marginal counts on the diagonal blocks, the
        x_i × bkt(x_j) tables in the raw-times-bucketized quadrant and the
        bkt(x_i) × bkt(x_j) tables in the bucketized quadrant.  The records
        are never rescanned per pair.

        Only the quadrants the learner consumes are computed: the Gram product
        is [raw | bkt].T @ bkt, skipping the raw x raw quadrant (the largest
        one) entirely; marginal counts fall out of the same product (buckets
        partition the records, so each raw_i x bkt_i block's row sums are the
        raw marginals, and its bkt_i x bkt_i block is diagonal).

        Each entropy is then reduced from its (tiny, n-independent) count
        block with :func:`~repro.stats.pairwise.block_entropy` — the exact
        scalar pipeline of the reference loop — so the two engines produce
        bit-identical entropies.  (``PairwiseStats.entropies()`` offers a
        fully batched reduceat derivation, but its different float-summation
        order perturbs values by ~1 ulp, which is enough to flip tie-breaks
        between exactly-tied correlations such as clipped SU = 1.0 pairs.)
        """
        schema = dataset.schema
        m = len(schema)
        raw = dataset.data
        bucketized = dataset.bucketized()
        raw_cards = tuple(schema.cardinalities)
        bucket_cards = tuple(schema.bucketized_cardinalities)
        stats = CrossPairwiseStats.from_matrices(
            np.hstack([raw, bucketized]),
            raw_cards + bucket_cards,
            bucketized,
            bucket_cards,
            # Dataset/bucketize already guarantee in-range codes.
            validate=False,
        )

        h_raw = np.array(
            [block_entropy(stats.table(i, i).sum(axis=1)) for i in range(m)]
        )
        h_bkt = np.array(
            [block_entropy(np.diagonal(stats.table(m + i, i))) for i in range(m)]
        )
        h_raw_bkt = np.zeros((m, m))
        h_bkt_bkt = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                h_raw_bkt[i, j] = block_entropy(stats.table(i, j))
                if j > i:
                    h_bkt_bkt[i, j] = block_entropy(stats.table(m + i, j))
                    h_bkt_bkt[j, i] = h_bkt_bkt[i, j]
        return h_raw, h_bkt, h_raw_bkt, h_bkt_bkt

    def entropy_tables(
        self, dataset: Dataset, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (possibly noisy) entropy tables the greedy search consumes.

        Returns ``(H(x_i), H(bkt(x_i)), H(x_i, bkt(x_j)), H(bkt(x_i),
        bkt(x_j)))`` exactly as :meth:`learn` would see them.  Public so the
        conformance layer (:mod:`repro.testing.invariants`) can assert
        bit-exact equality between the ``"vectorized"`` and ``"reference"``
        engines without reaching into learner internals.
        """
        return self._compute_entropies(dataset, rng)

    def _compute_entropies(
        self, dataset: Dataset, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (H(x_i), H(bkt(x_i)), H(x_i, bkt(x_j)), H(bkt(x_i), bkt(x_j))).

        When the DP variant is enabled every value receives fresh Laplace noise
        scaled with the Lemma 1 sensitivity bound evaluated at a *noisy*
        record count, and the privacy expenditure is recorded.
        """
        if self._config.engine == "reference":
            h_raw, h_bkt, h_raw_bkt, h_bkt_bkt = self._entropy_tables_reference(dataset)
        else:
            h_raw, h_bkt, h_raw_bkt, h_bkt_bkt = self._entropy_tables_vectorized(dataset)

        epsilon_h = self._config.epsilon_entropy
        if epsilon_h is None:
            return h_raw, h_bkt, h_raw_bkt, h_bkt_bkt
        if rng is None:
            raise ValueError(
                "differentially-private structure learning requires an explicit "
                "rng; pass the pipeline's generator to learn()"
            )

        m = len(h_raw)
        # Randomize the record count used for the sensitivity bound (Eq. 10).
        noisy_count = laplace_mechanism(
            float(len(dataset)), 1.0, self._config.epsilon_count, rng
        )
        noisy_count = max(2.0, float(noisy_count))
        sensitivity = entropy_sensitivity_bound(int(math.ceil(noisy_count)))
        num_entropy_values = 2 * m + m * (m - 1) + (m * (m - 1)) // 2

        if self._config.engine == "reference":
            def _noisy(value: float) -> float:
                return max(0.0, laplace_mechanism(value, sensitivity, epsilon_h, rng))

            h_raw = np.array([_noisy(value) for value in h_raw])
            h_bkt = np.array([_noisy(value) for value in h_bkt])
            noisy_raw_bkt = np.zeros_like(h_raw_bkt)
            noisy_bkt_bkt = np.zeros_like(h_bkt_bkt)
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    noisy_raw_bkt[i, j] = _noisy(h_raw_bkt[i, j])
                    if j > i:
                        value = _noisy(h_bkt_bkt[i, j])
                        noisy_bkt_bkt[i, j] = value
                        noisy_bkt_bkt[j, i] = value
        else:
            # One batched draw for every entropy value.  Consumes exactly as
            # many Laplace variates as the reference loop (the stream position
            # after learning is identical) but assigns them in flat order:
            # h_raw, h_bkt, then the off-diagonal raw x bkt entries row-major,
            # then the upper-triangular bkt x bkt entries row-major.
            noise = rng.laplace(0.0, sensitivity / epsilon_h, size=num_entropy_values)
            off_diag = ~np.eye(m, dtype=bool)
            upper = np.triu(np.ones((m, m), dtype=bool), k=1)
            h_raw = np.maximum(0.0, h_raw + noise[:m])
            h_bkt = np.maximum(0.0, h_bkt + noise[m : 2 * m])
            noisy_raw_bkt = np.zeros_like(h_raw_bkt)
            noisy_raw_bkt[off_diag] = np.maximum(
                0.0, h_raw_bkt[off_diag] + noise[2 * m : 2 * m + m * (m - 1)]
            )
            noisy_bkt_bkt = np.zeros_like(h_bkt_bkt)
            noisy_bkt_bkt[upper] = np.maximum(
                0.0, h_bkt_bkt[upper] + noise[2 * m + m * (m - 1) :]
            )
            noisy_bkt_bkt = noisy_bkt_bkt + noisy_bkt_bkt.T

        if self._accountant is not None:
            self._accountant.spend(
                "structure/entropy",
                epsilon_h,
                0.0,
                count=num_entropy_values,
                scope="structure-data",
            )
            self._accountant.spend(
                "structure/count", self._config.epsilon_count, 0.0, scope="structure-data"
            )
        return h_raw, h_bkt, noisy_raw_bkt, noisy_bkt_bkt

    def _correlations(
        self, dataset: Dataset, rng: np.random.Generator | None
    ) -> _CorrelationTables:
        h_raw, h_bkt, h_raw_bkt, h_bkt_bkt = self._compute_entropies(dataset, rng)
        m = len(h_raw)
        if self._config.engine == "reference":
            target_parent = np.zeros((m, m))
            parent_parent = np.zeros((m, m))
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    target_parent[i, j] = symmetrical_uncertainty_from_entropies(
                        h_raw[i], h_bkt[j], h_raw_bkt[i, j]
                    )
                    parent_parent[i, j] = symmetrical_uncertainty_from_entropies(
                        h_bkt[i], h_bkt[j], h_bkt_bkt[i, j]
                    )
            return _CorrelationTables(
                target_parent=target_parent, parent_parent=parent_parent
            )

        off_diag = ~np.eye(m, dtype=bool)
        target_parent = _symmetrical_uncertainty_matrix(h_raw, h_bkt, h_raw_bkt)
        parent_parent = _symmetrical_uncertainty_matrix(h_bkt, h_bkt, h_bkt_bkt)
        target_parent *= off_diag
        parent_parent *= off_diag
        return _CorrelationTables(target_parent=target_parent, parent_parent=parent_parent)

    # ------------------------------------------------------------------ #
    # CFS merit and greedy search
    # ------------------------------------------------------------------ #
    @staticmethod
    def merit_score(
        target: int, parent_set: tuple[int, ...], tables: _CorrelationTables
    ) -> float:
        """The CFS merit of a candidate parent set (Eq. 4)."""
        if not parent_set:
            return 0.0
        relevance = float(
            sum(tables.target_parent[target, parent] for parent in parent_set)
        )
        redundancy = 0.0
        for index, first in enumerate(parent_set):
            for second in parent_set[index + 1 :]:
                redundancy += 2.0 * tables.parent_parent[first, second]
        denominator = math.sqrt(len(parent_set) + redundancy)
        return relevance / denominator if denominator > 0 else 0.0

    @staticmethod
    def parent_cost(parent_set: tuple[int, ...], bucket_cardinalities: list[int]) -> int:
        """Parent-configuration cost (Eq. 6) in bucketized domains."""
        cost = 1
        for parent in parent_set:
            cost *= bucket_cardinalities[parent]
        return cost

    def learn(
        self,
        dataset: Dataset,
        rng: np.random.Generator | None = None,
    ) -> DependencyStructure:
        """Learn the dependency structure from the structure-learning split DT.

        ``rng`` is only consumed by the differentially-private variant
        (``epsilon_entropy`` set), which requires it explicitly — there is no
        silent fixed-seed fallback.  Non-private learning is deterministic and
        accepts ``rng=None``.
        """
        if len(dataset) == 0:
            raise ValueError("cannot learn a structure from an empty dataset")
        tables = self._correlations(dataset, rng)
        if self._config.engine == "reference":
            parents = self._greedy_reference(tables, dataset.schema)
        else:
            parents = self._greedy_incremental(tables, dataset.schema)

        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(len(parents)))
        for child, parent_set in enumerate(parents):
            graph.add_edges_from((parent, child) for parent in parent_set)
        order = tuple(nx.lexicographical_topological_sort(graph))
        return DependencyStructure(parents=tuple(parents), order=order)

    def _target_order(self, tables: _CorrelationTables) -> list[int]:
        """Process targets in decreasing order of their best available predictor
        so that strongly-predicted attributes get first pick of parents before
        acyclicity constraints start binding."""
        best_predictor = tables.target_parent.max(axis=1)
        return list(np.argsort(-best_predictor))

    def _greedy_reference(
        self, tables: _CorrelationTables, schema
    ) -> list[tuple[int, ...]]:
        """The paper's greedy search with a full DAG probe per candidate edge."""
        m = len(schema)
        bucket_cards = schema.bucketized_cardinalities
        cardinalities = schema.cardinalities

        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(m))
        parents: list[tuple[int, ...]] = [() for _ in range(m)]

        for target in self._target_order(tables):
            current: tuple[int, ...] = ()
            current_score = 0.0
            while len(current) < self._config.max_parents:
                best_candidate = None
                best_score = current_score
                for candidate in range(m):
                    if candidate == target or candidate in current:
                        continue
                    tentative = current + (candidate,)
                    tentative_cost = self.parent_cost(tentative, bucket_cards)
                    if tentative_cost > self._config.max_parent_cost:
                        continue
                    if (
                        self._config.max_table_cells is not None
                        and tentative_cost * cardinalities[target]
                        > self._config.max_table_cells
                    ):
                        continue
                    graph.add_edge(candidate, target)
                    acyclic = nx.is_directed_acyclic_graph(graph)
                    graph.remove_edge(candidate, target)
                    if not acyclic:
                        continue
                    score = self.merit_score(target, tentative, tables)
                    if score > best_score + self._config.min_merit_gain:
                        best_score = score
                        best_candidate = candidate
                if best_candidate is None:
                    break
                current = current + (best_candidate,)
                current_score = best_score
                graph.add_edge(best_candidate, target)
            parents[target] = current
        return parents

    def _greedy_incremental(
        self, tables: _CorrelationTables, schema
    ) -> list[tuple[int, ...]]:
        """Greedy search with O(m) candidate acyclicity checks.

        Instead of probing a graph copy per candidate edge, a boolean
        reachability matrix ``reach`` (``reach[u, v]`` iff there is a directed
        path u -> v, reflexively true on the diagonal) is maintained: adding
        the edge candidate -> target creates a cycle iff the target already
        reaches the candidate, and accepting an edge updates the matrix with
        one outer product.  Candidate merits are evaluated as one array
        expression per greedy step; the sequential threshold scan over that
        array replicates the reference selection rule (a later candidate must
        beat the running best by ``min_merit_gain``) exactly.
        """
        m = len(schema)
        bucket_cards = np.asarray(schema.bucketized_cardinalities, dtype=np.int64)
        cardinalities = np.asarray(schema.cardinalities, dtype=np.int64)
        target_parent = tables.target_parent
        parent_parent = tables.parent_parent
        min_gain = self._config.min_merit_gain

        reach = np.eye(m, dtype=bool)
        parents: list[tuple[int, ...]] = [() for _ in range(m)]

        for target in self._target_order(tables):
            current: list[int] = []
            current_score = 0.0
            relevance = 0.0
            redundancy = 0.0
            cost = 1
            while len(current) < self._config.max_parents:
                tentative_cost = cost * bucket_cards
                valid = tentative_cost <= self._config.max_parent_cost
                if self._config.max_table_cells is not None:
                    valid &= (
                        tentative_cost * cardinalities[target]
                        <= self._config.max_table_cells
                    )
                valid &= ~reach[target]  # target ⇝ candidate would close a cycle
                valid[target] = False
                if current:
                    members = np.array(current, dtype=np.int64)
                    valid[members] = False
                    extra_redundancy = 2.0 * parent_parent[members, :].sum(axis=0)
                else:
                    extra_redundancy = np.zeros(m)
                if not valid.any():
                    break
                denominator = np.sqrt(
                    len(current) + 1 + redundancy + extra_redundancy
                )
                with np.errstate(divide="ignore", invalid="ignore"):
                    scores = np.where(
                        denominator > 0,
                        (relevance + target_parent[target]) / denominator,
                        0.0,
                    )

                best_candidate = None
                best_score = current_score
                for candidate in np.flatnonzero(valid):
                    score = float(scores[candidate])
                    if score > best_score + min_gain:
                        best_score = score
                        best_candidate = int(candidate)
                if best_candidate is None:
                    break
                current.append(best_candidate)
                current_score = best_score
                relevance += float(target_parent[target, best_candidate])
                redundancy += float(extra_redundancy[best_candidate])
                cost *= int(bucket_cards[best_candidate])
                # Everything that reaches the new parent now reaches everything
                # the target reaches.
                reach |= np.outer(reach[:, best_candidate], reach[target])
            parents[target] = tuple(current)
        return parents


def _symmetrical_uncertainty_matrix(
    h_first: np.ndarray, h_second: np.ndarray, h_joint: np.ndarray
) -> np.ndarray:
    """Vectorized Eq. 5 over all pairs: 2 - 2 H(x,y) / (H(x) + H(y)), clipped.

    Elementwise identical to
    :func:`repro.stats.entropy.symmetrical_uncertainty_from_entropies`.
    """
    denominator = h_first[:, None] + h_second[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 2.0 - 2.0 * h_joint / denominator
    value = np.where(denominator > 0, value, 0.0)
    return np.minimum(1.0, np.maximum(0.0, value))
