"""Reusable invariant checkers for the paper's guarantees and fast-path parity.

PR 1-3 each re-proved the same properties with bespoke test code: the batched
Mechanism 1 against the single-record loop, the vectorized structure engine
against the reference loop, the parallel engine against the serial chunked
run.  This module turns those proofs into first-class checkers that any test,
benchmark or future fast path can call:

* :func:`check_engine_parity` — a :class:`~repro.core.engine.SynthesisEngine`
  run is bit-identical across worker counts (released rows *and* the full
  per-attempt accounting);
* :func:`check_rng_reproducibility` — a run is a pure function of its seed;
* :func:`check_batched_mechanism_parity` — batched Mechanism 1 decisions match
  re-evaluating each candidate through the single-record reference path;
* :func:`check_accountant_conservation` — the privacy ledger never
  under-reports spend under any composition mode;
* :func:`check_theorem1_bounds` — every recorded attempt obeys the
  plausible-seed test semantics, and the Theorem 1 (ε, δ) algebra is
  internally consistent;
* :func:`check_structure_engine_equivalence` — the ``"vectorized"`` and
  ``"reference"`` structure-learning engines produce bit-exact entropies and
  identical structures (and, under DP, identical spend and stream positions).

Checkers raise :class:`InvariantViolation` (an ``AssertionError`` subclass, so
pytest renders it natively) with a description of the first divergence.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.engine import SynthesisEngine
from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisAttempt, SynthesisReport
from repro.datasets.dataset import Dataset
from repro.generative.base import GenerativeModel
from repro.generative.structure import (
    DependencyStructure,
    StructureLearner,
    StructureLearningConfig,
)
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    theorem1_delta,
    theorem1_epsilon,
    theorem1_guarantee,
)

__all__ = [
    "InvariantViolation",
    "report_accounting",
    "assert_reports_identical",
    "check_engine_parity",
    "check_rng_reproducibility",
    "check_batched_mechanism_parity",
    "check_accountant_conservation",
    "check_theorem1_bounds",
    "check_structure_engine_equivalence",
]


class InvariantViolation(AssertionError):
    """A checked invariant does not hold; the message names the divergence."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def report_accounting(report: SynthesisReport) -> dict[str, list]:
    """The full per-attempt accounting of a report, as comparable plain lists."""
    arrays = report.to_arrays()
    return {name: arrays[name].tolist() for name in arrays}


def assert_reports_identical(
    expected: SynthesisReport, actual: SynthesisReport, context: str = ""
) -> None:
    """Require two reports to agree on every attempt field, bit for bit."""
    prefix = f"{context}: " if context else ""
    expected_arrays = expected.to_arrays()
    actual_arrays = actual.to_arrays()
    for name in expected_arrays:
        if not np.array_equal(expected_arrays[name], actual_arrays[name]):
            raise InvariantViolation(
                f"{prefix}reports diverge in {name!r} "
                f"(expected {expected.num_attempts} attempts / "
                f"{expected.num_released} released, got {actual.num_attempts} "
                f"attempts / {actual.num_released} released)"
            )


# --------------------------------------------------------------------------- #
# Engine parity and reproducibility
# --------------------------------------------------------------------------- #
def _engine_run(
    engine: SynthesisEngine,
    base_seed: int,
    num_attempts: int | None,
    num_released: int | None,
    max_attempts: int | None,
) -> SynthesisReport:
    if num_attempts is not None:
        return engine.run_attempts(num_attempts, base_seed=base_seed)
    assert num_released is not None
    return engine.generate(num_released, base_seed=base_seed, max_attempts=max_attempts)


def check_engine_parity(
    model: GenerativeModel,
    seed_dataset: Dataset,
    params: PlausibleDeniabilityParams,
    *,
    base_seed: int = 0,
    num_attempts: int | None = None,
    num_released: int | None = None,
    max_attempts: int | None = None,
    chunk_size: int = 16,
    batch_size: int | None = 8,
    worker_counts: Sequence[int] = (2,),
    engines: Sequence[SynthesisEngine] = (),
) -> SynthesisReport:
    """Require every worker count to reproduce the serial engine run exactly.

    Exactly one of ``num_attempts`` (fixed budget) or ``num_released``
    (until-N mode, optionally bounded by ``max_attempts``) selects the run
    mode.  Pre-started pools can be passed via ``engines`` (their chunk and
    batch sizes must match — the chunk grid is part of the RNG layout);
    otherwise a fresh pool is started per entry of ``worker_counts``.  At
    least one candidate beyond the serial reference is required — a call
    that would compare nothing is rejected rather than passing vacuously.
    Returns the serial reference report.
    """
    if (num_attempts is None) == (num_released is None):
        raise ValueError("pass exactly one of num_attempts / num_released")
    if not engines and not any(workers > 1 for workers in worker_counts):
        raise ValueError(
            "no candidate engines to compare against the serial reference "
            "(engines is empty and worker_counts has no entry > 1); parity "
            "would pass vacuously — run the serial engine directly instead"
        )
    with SynthesisEngine(
        model, seed_dataset, params, num_workers=1,
        chunk_size=chunk_size, batch_size=batch_size,
    ) as reference_engine:
        reference = _engine_run(
            reference_engine, base_seed, num_attempts, num_released, max_attempts
        )

    def _check(candidate_engine: SynthesisEngine) -> None:
        if candidate_engine.chunk_size != chunk_size:
            raise ValueError(
                f"candidate engine uses chunk_size={candidate_engine.chunk_size}, "
                f"reference uses {chunk_size}; the chunk grid is part of the "
                "run's RNG layout so parity is only defined on the same grid"
            )
        if candidate_engine.batch_size != batch_size:
            raise ValueError(
                f"candidate engine uses batch_size={candidate_engine.batch_size}, "
                f"reference uses {batch_size}; the proposal batch size is part "
                "of the run's RNG layout so parity is only defined on the same "
                "batching"
            )
        candidate = _engine_run(
            candidate_engine, base_seed, num_attempts, num_released, max_attempts
        )
        assert_reports_identical(
            reference,
            candidate,
            context=f"{candidate_engine.num_workers}-worker engine vs serial",
        )

    for engine in engines:
        _check(engine)
    for workers in worker_counts:
        if workers == 1 or any(e.num_workers == workers for e in engines):
            continue
        with SynthesisEngine(
            model, seed_dataset, params, num_workers=workers,
            chunk_size=chunk_size, batch_size=batch_size,
        ) as pool:
            _check(pool)
    return reference


def check_rng_reproducibility(
    run: Callable[[np.random.Generator], SynthesisReport],
    seed: int = 0,
    repeats: int = 2,
) -> SynthesisReport:
    """Require ``run`` to be a pure function of its RNG seed.

    ``run`` receives a fresh ``default_rng(seed)`` each time; every repeat
    must produce bit-identical accounting.  Returns the first report.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2 to compare anything")
    first = run(np.random.default_rng(seed))
    for repeat in range(1, repeats):
        again = run(np.random.default_rng(seed))
        assert_reports_identical(
            first, again, context=f"repeat {repeat} with seed {seed}"
        )
    return first


# --------------------------------------------------------------------------- #
# Batched Mechanism 1 vs the single-record reference path
# --------------------------------------------------------------------------- #
def check_batched_mechanism_parity(
    mechanism: SynthesisMechanism,
    rng: np.random.Generator,
    batch_size: int = 40,
) -> list[SynthesisAttempt]:
    """Require batched proposals to match single-record re-evaluation.

    Every attempt from :meth:`~repro.core.mechanism.SynthesisMechanism.propose_batch`
    is re-run through the reference
    :meth:`~repro.core.mechanism.SynthesisMechanism.evaluate_candidate` path.
    Partition indices must always agree (a pure function of the candidate and
    its seed).  Plausible-seed counts, scanned-record counts and the
    ``count_saturated`` flag are compared unless ``max_check_plausible``
    limits the scan (the scanned subset is then an independent rng draw on
    each path, so they are distributionally but not pointwise equal).
    Pass/fail decisions are additionally compared whenever the test is
    deterministic and scans are unrestricted — including under
    ``max_plausible`` (both paths cap identically).  Returns the batched
    attempts.
    """
    params = mechanism.params
    counts_are_pure = params.max_check_plausible is None
    decisions_are_pure = (
        not params.is_randomized and params.max_check_plausible is None
    )
    attempts = mechanism.propose_batch(batch_size, rng)
    for index, attempt in enumerate(attempts):
        reference = mechanism.evaluate_candidate(
            attempt.seed_index, attempt.candidate, rng
        )
        label = f"attempt {index} (seed {attempt.seed_index})"
        if counts_are_pure:
            _require(
                attempt.test.plausible_seeds == reference.test.plausible_seeds,
                f"{label}: batched plausible count {attempt.test.plausible_seeds} "
                f"!= reference {reference.test.plausible_seeds}",
            )
            _require(
                attempt.test.records_checked == reference.test.records_checked,
                f"{label}: batched records_checked {attempt.test.records_checked} "
                f"!= reference {reference.test.records_checked}",
            )
            _require(
                attempt.test.count_saturated == reference.test.count_saturated,
                f"{label}: batched saturation flag {attempt.test.count_saturated} "
                f"!= reference {reference.test.count_saturated}",
            )
        _require(
            attempt.test.partition_index == reference.test.partition_index,
            f"{label}: batched partition {attempt.test.partition_index} "
            f"!= reference {reference.test.partition_index}",
        )
        if decisions_are_pure:
            _require(
                attempt.test.passed == reference.test.passed,
                f"{label}: batched decision {attempt.test.passed} "
                f"!= reference {reference.test.passed}",
            )
    return attempts


# --------------------------------------------------------------------------- #
# Privacy-accountant spend conservation
# --------------------------------------------------------------------------- #
def check_accountant_conservation(
    accountant: PrivacyAccountant,
) -> tuple[float, float] | None:
    """Require the ledger's composed guarantees to conserve recorded spend.

    Checks, for a non-empty ledger (an empty one passes vacuously):

    * each scope's sequential (non-advanced) guarantee equals the exact sum of
      its entries' per-query spends;
    * advanced composition never reports more ε than sequential, and never
      less than the largest single-query ε (no spend vanishes);
    * δ never drops below the largest single-query δ;
    * the parallel-composition (disjoint scopes) total is the max over
      scopes, and never exceeds the sequential-over-scopes total.

    Returns the sequential total ``(ε, δ)``, or ``None`` for an empty ledger.
    """
    if not accountant.entries:
        return None
    scope_sequential: dict[str, tuple[float, float]] = {}
    for scope in accountant.scopes():
        entries = [entry for entry in accountant.entries if entry.scope == scope]
        epsilon = 0.0
        delta = 0.0
        for entry in entries:
            epsilon += entry.epsilon * entry.count
            delta += min(1.0, entry.delta * entry.count)
        delta = min(1.0, delta)
        reported = accountant.scope_guarantee(scope, use_advanced=False)
        _require(
            math.isclose(reported[0], epsilon, rel_tol=1e-12, abs_tol=0.0)
            and math.isclose(reported[1], delta, rel_tol=1e-12, abs_tol=0.0),
            f"scope {scope!r}: sequential guarantee {reported} does not equal "
            f"the recorded spend ({epsilon}, {delta})",
        )
        scope_sequential[scope] = (epsilon, delta)

        advanced = accountant.scope_guarantee(scope, use_advanced=True)
        _require(
            advanced[0] <= epsilon * (1 + 1e-12),
            f"scope {scope!r}: advanced composition ε {advanced[0]} exceeds "
            f"the sequential bound {epsilon}",
        )
        max_entry_epsilon = max(entry.epsilon for entry in entries)
        max_entry_delta = max(entry.delta for entry in entries)
        _require(
            advanced[0] >= max_entry_epsilon * (1 - 1e-12),
            f"scope {scope!r}: advanced composition ε {advanced[0]} "
            f"under-reports the largest single query ({max_entry_epsilon})",
        )
        _require(
            advanced[1] >= max_entry_delta * (1 - 1e-12),
            f"scope {scope!r}: composed δ {advanced[1]} under-reports the "
            f"largest single query ({max_entry_delta})",
        )

    joint = accountant.total_guarantee(use_advanced=False, disjoint_scopes=False)
    disjoint = accountant.total_guarantee(use_advanced=False, disjoint_scopes=True)
    expected_disjoint = (
        max(eps for eps, _ in scope_sequential.values()),
        max(delta for _, delta in scope_sequential.values()),
    )
    _require(
        disjoint == expected_disjoint,
        f"disjoint-scope total {disjoint} is not the max over scopes "
        f"{expected_disjoint}",
    )
    _require(
        disjoint[0] <= joint[0] * (1 + 1e-12) and disjoint[1] <= joint[1] + 1e-15,
        f"parallel-composition total {disjoint} exceeds the sequential total {joint}",
    )
    return joint


# --------------------------------------------------------------------------- #
# Theorem 1 / privacy-test semantics
# --------------------------------------------------------------------------- #
def check_theorem1_bounds(
    report: SynthesisReport,
    params: PlausibleDeniabilityParams,
    num_seed_records: int | None = None,
) -> None:
    """Require every attempt to obey the privacy-test and Theorem 1 semantics.

    Per attempt: the seed generated the candidate so its partition index is a
    real bucket (>= 0); the scan never examines more records than allowed; the
    deterministic test passes iff the plausible count reaches k exactly, and
    the randomized test iff it reaches the recorded noisy threshold.  For the
    randomized test the Theorem 1 algebra is also checked: the reported
    (ε, δ, t) reproduces the closed forms, ε decreases and δ increases in t.
    """
    scan_limit = num_seed_records if num_seed_records is not None else None
    if params.max_check_plausible is not None:
        scan_limit = (
            params.max_check_plausible
            if scan_limit is None
            else min(scan_limit, params.max_check_plausible)
        )
    for index, attempt in enumerate(report.attempts):
        test = attempt.test
        label = f"attempt {index}"
        _require(
            test.partition_index >= 0,
            f"{label}: the true seed fell outside every probability bucket "
            f"(partition {test.partition_index})",
        )
        _require(
            test.plausible_seeds >= 0,
            f"{label}: negative plausible-seed count {test.plausible_seeds}",
        )
        if params.max_check_plausible is None:
            _require(
                test.plausible_seeds >= 1,
                f"{label}: a full scan must count the true seed itself, got "
                f"{test.plausible_seeds}",
            )
        if scan_limit is not None:
            _require(
                test.records_checked <= scan_limit,
                f"{label}: scanned {test.records_checked} records, limit {scan_limit}",
            )
        if params.max_plausible is not None:
            _require(
                test.plausible_seeds <= params.max_plausible,
                f"{label}: plausible count {test.plausible_seeds} exceeds "
                f"max_plausible {params.max_plausible}",
            )
        if params.is_randomized:
            _require(
                test.passed == (test.plausible_seeds >= test.threshold),
                f"{label}: randomized decision {test.passed} contradicts count "
                f"{test.plausible_seeds} vs threshold {test.threshold}",
            )
        else:
            _require(
                test.threshold == float(params.k),
                f"{label}: deterministic threshold {test.threshold} != k={params.k}",
            )
            _require(
                test.passed == (test.plausible_seeds >= params.k),
                f"{label}: deterministic decision {test.passed} contradicts "
                f"count {test.plausible_seeds} vs k={params.k}",
            )

    if params.is_randomized and params.k >= 2:
        assert params.epsilon0 is not None
        epsilon, delta, t = theorem1_guarantee(params.k, params.gamma, params.epsilon0)
        _require(1 <= t < params.k, f"Theorem 1 chose t={t} outside [1, k)")
        _require(
            epsilon == theorem1_epsilon(params.epsilon0, params.gamma, t)
            and delta == theorem1_delta(params.epsilon0, params.k, t),
            f"Theorem 1 guarantee ({epsilon}, {delta}, t={t}) does not "
            "reproduce the closed forms",
        )
        epsilons = [
            theorem1_epsilon(params.epsilon0, params.gamma, candidate)
            for candidate in range(1, params.k)
        ]
        deltas = [
            theorem1_delta(params.epsilon0, params.k, candidate)
            for candidate in range(1, params.k)
        ]
        _require(
            all(a > b for a, b in zip(epsilons, epsilons[1:])),
            "Theorem 1 ε must be strictly decreasing in t",
        )
        _require(
            # Strictly increasing except where e^(-ε0 (k - t)) underflows to
            # exactly 0.0 (large k·ε0): consecutive underflowed values tie at
            # 0.0 without any mathematical violation.
            all(a < b for a, b in zip(deltas, deltas[1:]) if not (a == 0.0 and b == 0.0)),
            "Theorem 1 δ must be increasing in t",
        )


# --------------------------------------------------------------------------- #
# Structure-learning engine equivalence
# --------------------------------------------------------------------------- #
def check_structure_engine_equivalence(
    dataset: Dataset,
    *,
    seed: int | None = None,
    **config_kwargs,
) -> DependencyStructure:
    """Require the vectorized and reference structure engines to agree.

    Without DP (no ``epsilon_entropy`` in ``config_kwargs``) the engines must
    produce bit-exact entropy tables and identical learned structures.  With
    DP (pass ``seed`` for the noise stream) the noise is assigned to entropy
    values in a different order by design, so the checked contract is instead:
    identical ledger spend, identical generator stream position after
    learning, and a valid DAG from both engines.  Returns the vectorized
    engine's structure.
    """
    accountants = {
        engine: PrivacyAccountant() for engine in ("reference", "vectorized")
    }
    learners = {
        engine: StructureLearner(
            StructureLearningConfig(engine=engine, **config_kwargs),
            accountants[engine],
        )
        for engine in ("reference", "vectorized")
    }
    is_dp = config_kwargs.get("epsilon_entropy") is not None
    if not is_dp:
        reference_tables = learners["reference"].entropy_tables(dataset)
        vectorized_tables = learners["vectorized"].entropy_tables(dataset)
        names = ("H(x)", "H(bkt)", "H(x,bkt)", "H(bkt,bkt)")
        for name, expected, actual in zip(names, reference_tables, vectorized_tables):
            if not np.array_equal(expected, actual):
                raise InvariantViolation(
                    f"{name} entropies are not bit-identical across engines"
                )
        reference_structure = learners["reference"].learn(dataset)
        vectorized_structure = learners["vectorized"].learn(dataset)
        _require(
            reference_structure.parents == vectorized_structure.parents
            and reference_structure.order == vectorized_structure.order,
            "non-DP learned structures differ across engines: "
            f"{reference_structure.parents} vs {vectorized_structure.parents}",
        )
        return vectorized_structure

    if seed is None:
        raise ValueError("DP structure equivalence requires a seed for the noise stream")
    import networkx as nx

    results = {}
    for engine, learner in learners.items():
        rng = np.random.default_rng(seed)
        structure = learner.learn(dataset, rng)
        _require(
            nx.is_directed_acyclic_graph(structure.as_digraph()),
            f"{engine} engine produced a cyclic DP structure",
        )
        results[engine] = (structure, rng.bit_generator.state)
    _require(
        accountants["reference"].entries == accountants["vectorized"].entries,
        "DP engines recorded different privacy spend",
    )
    _require(
        results["reference"][1] == results["vectorized"][1],
        "DP engines consumed a different number of random variates "
        "(generator stream positions diverge)",
    )
    return results["vectorized"][0]
