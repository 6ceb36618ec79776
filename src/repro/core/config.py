"""Configuration of the synthesis pipeline.

This mirrors the config file of the paper's C++ tool (Section 5): the privacy
parameters (k, γ, ε0, ``max_plausible``, ``max_check_plausible``), the
generative-model parameters (ω, DP epsilons for structure and parameter
learning) and the data split fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.generative.builder import GenerativeModelSpec
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = ["GenerationConfig"]


@dataclass
class GenerationConfig:
    """Everything needed to run the synthesis tool end to end.

    Parameters
    ----------
    privacy:
        Plausible-deniability test parameters (k, γ, ε0, early-termination
        knobs).  The paper's defaults are k=50, γ=4, ε0=1.
    model:
        Generative-model specification (ω, DP budgets for model learning).
    seed_fraction, structure_fraction, parameter_fraction:
        Fractions of the input data assigned to the DS / DT / DP splits; the
        remainder is held out as a test set.
    max_attempts_per_release:
        Upper bound on how many candidates the mechanism may try per released
        record before giving up (guards against parameter combinations where
        almost nothing passes the test).
    batch_size:
        Number of candidates proposed per vectorized batch of Mechanism 1
        (the default).  ``None`` or 1 selects the single-record reference
        loop.
    num_workers:
        Worker processes of the chunk-dispatching synthesis engine.  ``None``
        (the default) keeps the single-stream serial path; any value >= 1
        routes generation through :class:`~repro.core.engine.SynthesisEngine`
        (1 = in-process chunked reference, >1 = shared-memory worker pool).
    chunk_size:
        Attempts per dynamically dispatched engine chunk.  Part of a run's
        RNG layout: reproducing or resuming an engine run requires the same
        chunk size.
    max_chunk_retries:
        How many times the engine supervisor may re-execute a chunk lost to
        a crashed worker before failing the job (0 = any crash fails the
        job).  Purely operational: retried chunks are bit-identical to the
        lost originals, so this knob never affects released rows and is
        excluded from fit artifact keys.
    """

    privacy: PlausibleDeniabilityParams = field(
        default_factory=lambda: PlausibleDeniabilityParams(k=50, gamma=4.0, epsilon0=1.0)
    )
    model: GenerativeModelSpec = field(default_factory=GenerativeModelSpec)
    seed_fraction: float = 0.55
    structure_fraction: float = 0.175
    parameter_fraction: float = 0.175
    max_attempts_per_release: int = 1000
    batch_size: int | None = 256
    num_workers: int | None = None
    chunk_size: int = 512
    max_chunk_retries: int = 2

    def __post_init__(self) -> None:
        fractions = (self.seed_fraction, self.structure_fraction, self.parameter_fraction)
        if min(fractions) < 0:
            raise ValueError("split fractions must be non-negative")
        if sum(fractions) > 1.0 + 1e-9:
            raise ValueError("split fractions must sum to at most 1")
        if self.max_attempts_per_release < 1:
            raise ValueError("max_attempts_per_release must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when provided")
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be positive when provided")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be non-negative")

    @classmethod
    def paper_defaults(cls, num_attributes: int = 11, total_epsilon: float = 1.0) -> "GenerationConfig":
        """The default parameters of the paper's evaluation (Section 6.1).

        k = 50, γ = 4, ε0 = 1, ω = 9, and an overall model-learning budget of
        ``total_epsilon`` (the paper uses ε = 1, with some results at ε = 0.1)
        split across the structure- and parameter-learning queries.
        """
        return cls(
            privacy=PlausibleDeniabilityParams(k=50, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec.with_total_epsilon(
                total_epsilon, num_attributes=num_attributes, omega=9
            ),
        )
