"""The end-to-end synthesis pipeline (the paper's tool, Section 5).

Given an input dataset and a :class:`~repro.core.config.GenerationConfig`, the
pipeline:

1. splits the data into the DS (seeds), DT (structure), DP (parameters) and
   test subsets,
2. fits the differentially-private Bayesian-network generative model (and the
   DP marginals baseline),
3. runs Mechanism 1 to generate and filter synthetic records — serially, or
   through the chunk-dispatching :class:`~repro.core.engine.SynthesisEngine`
   when ``num_workers`` is configured,
4. tracks the privacy budget spent on model learning and reports the overall
   (ε, δ) guarantee, including the Theorem 1 guarantee of the release step.

With a :class:`~repro.core.run_store.RunStore` attached, the whole fit phase
(splits, both models, privacy ledgers) is stored as a content-addressed
artifact keyed by the dataset fingerprint, the configuration and the initial
RNG state; a later pipeline with the same inputs — in this process or another
— loads the artifact instead of refitting, and restores the RNG to its
post-fit state so everything generated afterwards is bit-identical to an
uncached run.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import GenerationConfig
from repro.core.engine import SynthesisEngine
from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport
from repro.core.run_store import RunStore, canonical_payload, dataset_fingerprint
from repro.datasets.dataset import Dataset
from repro.datasets.splits import DataSplits, split_dataset
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.builder import fit_bayesian_network, fit_marginal_model
from repro.generative.marginal import MarginalSynthesizer
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.plausible_deniability import theorem1_guarantee

__all__ = ["PipelineTimings", "SynthesisPipeline"]


@dataclass
class PipelineTimings:
    """Wall-clock timings of the two pipeline phases (Figure 5)."""

    model_learning_seconds: float = 0.0
    synthesis_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total pipeline time."""
        return self.model_learning_seconds + self.synthesis_seconds


class SynthesisPipeline:
    """Fit the DP generative model and generate plausibly-deniable synthetics.

    ``rng`` is required: data splitting, model fitting and synthesis all
    consume randomness, and a silent ``default_rng(0)`` fallback would make
    unrelated pipelines share one stream (the same policy applied to the
    learners and the builder).  ``run_store`` optionally caches the fitted
    state across processes.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: GenerationConfig | None = None,
        rng: np.random.Generator | None = None,
        run_store: RunStore | None = None,
    ):
        if rng is None:
            raise ValueError(
                "SynthesisPipeline requires an explicit rng (e.g. "
                "np.random.default_rng(seed)); the implicit default_rng(0) "
                "fallback has been removed"
            )
        self._dataset = dataset
        self._config = config if config is not None else GenerationConfig.paper_defaults()
        self._rng = rng
        self._run_store = run_store
        self._splits: DataSplits | None = None
        self._model: BayesianNetworkSynthesizer | None = None
        self._marginal_model: MarginalSynthesizer | None = None
        self._mechanism: SynthesisMechanism | None = None
        self._accountant = PrivacyAccountant()
        self._baseline_accountant = PrivacyAccountant()
        self._timings = PipelineTimings()

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> GenerationConfig:
        """The pipeline configuration."""
        return self._config

    @property
    def splits(self) -> DataSplits:
        """The DS / DT / DP / test splits (available after :meth:`fit`)."""
        if self._splits is None:
            raise RuntimeError("call fit() before accessing the splits")
        return self._splits

    @property
    def model(self) -> BayesianNetworkSynthesizer:
        """The fitted seed-based generative model (available after :meth:`fit`)."""
        if self._model is None:
            raise RuntimeError("call fit() before accessing the model")
        return self._model

    @property
    def marginal_model(self) -> MarginalSynthesizer:
        """The fitted marginals baseline (available after :meth:`fit`)."""
        if self._marginal_model is None:
            raise RuntimeError("call fit() before accessing the marginal model")
        return self._marginal_model

    @property
    def mechanism(self) -> SynthesisMechanism:
        """Mechanism 1 wired to the fitted model (available after :meth:`fit`)."""
        if self._mechanism is None:
            raise RuntimeError("call fit() before accessing the mechanism")
        return self._mechanism

    @property
    def accountant(self) -> PrivacyAccountant:
        """The privacy ledger of the model-learning phase."""
        return self._accountant

    @property
    def timings(self) -> PipelineTimings:
        """Wall-clock timings of the phases run so far."""
        return self._timings

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def fit_artifact_key(self) -> str:
        """Content key of the fit phase: dataset + fit inputs + RNG state.

        Only the configuration the fit actually consumes (split fractions and
        the model spec) enters the key — generation-only knobs like
        ``num_workers`` or ``batch_size`` must not invalidate a cached fit.
        The key is stable before and after :meth:`fit` only when computed
        *before* fitting (fitting advances the RNG), so callers that want the
        published identity of a pipeline must capture it up front — the model
        registry does exactly that.
        """
        from dataclasses import asdict

        config = self._config
        return RunStore.artifact_key(
            "pipeline-fit",
            {
                "dataset": dataset_fingerprint(self._dataset),
                "seed_fraction": config.seed_fraction,
                "structure_fraction": config.structure_fraction,
                "parameter_fraction": config.parameter_fraction,
                "model": canonical_payload(asdict(config.model)),
                "rng_state": canonical_payload(self._rng.bit_generator.state),
            },
        )

    def fit(self) -> "SynthesisPipeline":
        """Split the data and fit the DP generative model and baseline.

        With a run store attached, a previously stored fit for the same
        (dataset, config, RNG state) is loaded instead — including the
        privacy ledgers and the post-fit RNG state, so downstream generation
        matches an uncached run exactly.
        """
        start = time.perf_counter()
        key = self.fit_artifact_key() if self._run_store is not None else None
        if key is not None and self._run_store.has_artifact(key):
            artifact = self._run_store.load_artifact(key)
            self._splits = artifact["splits"]
            self._model = artifact["model"]
            self._marginal_model = artifact["marginal_model"]
            self._accountant = artifact["accountant"]
            self._baseline_accountant = artifact["baseline_accountant"]
            self._rng.bit_generator.state = artifact["rng_state"]
            self._mechanism = SynthesisMechanism(
                self._model, self._splits.seeds, self._config.privacy
            )
            self._timings.model_learning_seconds += time.perf_counter() - start
            return self
        config = self._config
        self._splits = split_dataset(
            self._dataset,
            seed_fraction=config.seed_fraction,
            structure_fraction=config.structure_fraction,
            parameter_fraction=config.parameter_fraction,
            rng=self._rng,
        )
        self._model = fit_bayesian_network(
            self._splits.structure,
            self._splits.parameters,
            spec=config.model,
            accountant=self._accountant,
            rng=self._rng,
        )
        # The marginals baseline is a separate release used only for utility
        # comparisons, so its budget is tracked on its own ledger.
        self._marginal_model = fit_marginal_model(
            self._splits.parameters,
            epsilon=config.model.epsilon_parameters,
            alpha=config.model.alpha,
            accountant=self._baseline_accountant,
            rng=self._rng,
        )
        self._mechanism = SynthesisMechanism(
            self._model, self._splits.seeds, config.privacy
        )
        if key is not None:
            self._run_store.save_artifact(
                key,
                {
                    "splits": self._splits,
                    "model": self._model,
                    "marginal_model": self._marginal_model,
                    "accountant": copy.deepcopy(self._accountant),
                    "baseline_accountant": copy.deepcopy(self._baseline_accountant),
                    "rng_state": self._rng.bit_generator.state,
                },
            )
        self._timings.model_learning_seconds += time.perf_counter() - start
        return self

    def generate(
        self,
        num_records: int,
        max_attempts: int | None = None,
        batch_size: int | None = None,
        num_workers: int | None = None,
        run_id: str | None = None,
    ) -> SynthesisReport:
        """Generate synthetics until ``num_records`` pass the privacy test.

        ``batch_size`` overrides the config's batch size for this call; both
        default to the vectorized batched path when set, and to the
        single-record reference loop otherwise.  ``num_workers`` (or the
        config's ``num_workers``) routes the run through the chunk-dispatching
        :class:`~repro.core.engine.SynthesisEngine` — 1 runs the chunked
        loop in-process, larger counts start a shared-memory worker pool for
        the duration of the call; ``run_id`` (with an attached run store)
        checkpoints engine chunks so an interrupted run resumes.  Long-lived
        callers should construct a :class:`SynthesisEngine` directly so the
        pool persists across calls.
        """
        if self._mechanism is None:
            self.fit()
        assert self._mechanism is not None
        start = time.perf_counter()
        if max_attempts is None:
            max_attempts = self._config.max_attempts_per_release * max(1, num_records)
        if batch_size is None:
            batch_size = self._config.batch_size
        if num_workers is None:
            num_workers = self._config.num_workers
        if num_workers is None and run_id is not None:
            # Checkpointing is a property of the chunked engine path; honour
            # the request with the in-process engine rather than silently
            # running the uncheckpointed serial loop.
            num_workers = 1
        if num_workers is None:
            report = self._mechanism.generate(
                num_records, self._rng, max_attempts, batch_size=batch_size
            )
        else:
            # The chunk streams are derived from a base seed drawn from the
            # pipeline RNG, so repeated calls draw fresh candidates while the
            # whole pipeline stays reproducible from its seed.
            base_seed = int(self._rng.integers(2**63))
            with SynthesisEngine(
                self.model,
                self.splits.seeds,
                self._config.privacy,
                num_workers=num_workers,
                chunk_size=self._config.chunk_size,
                batch_size=batch_size,
                run_store=self._run_store,
                max_chunk_retries=self._config.max_chunk_retries,
            ) as engine:
                report = engine.generate(
                    num_records,
                    base_seed=base_seed,
                    max_attempts=max_attempts,
                    run_id=run_id,
                )
        self._timings.synthesis_seconds += time.perf_counter() - start
        return report

    def generate_marginals(self, num_records: int) -> Dataset:
        """Generate records from the marginals baseline (no privacy test needed)."""
        if self._marginal_model is None:
            self.fit()
        assert self._marginal_model is not None
        data = self._marginal_model.generate_many(num_records, self._rng)
        return Dataset(self._dataset.schema, data)

    # ------------------------------------------------------------------ #
    # Privacy reporting
    # ------------------------------------------------------------------ #
    def model_privacy_guarantee(self) -> tuple[float, float]:
        """Total (ε, δ) spent learning the model (DT and DP are disjoint)."""
        return self._accountant.total_guarantee(disjoint_scopes=True)

    def release_privacy_guarantee(self, t: int | None = None) -> tuple[float, float, int]:
        """Theorem 1 guarantee of releasing a single synthetic record."""
        params = self._config.privacy
        if params.epsilon0 is None:
            raise ValueError(
                "the deterministic test provides plausible deniability only; "
                "use the randomized test (epsilon0) for a differential-privacy guarantee"
            )
        return theorem1_guarantee(params.k, params.gamma, params.epsilon0, t)
