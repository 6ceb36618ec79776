"""Conformance: the prefix-key index decides exactly as the dense matrix does.

Mechanism 1's exact privacy test has two implementations: the sorted
prefix-key index (:class:`repro.core.mechanism._SeedMatchIndex`), which counts
a candidate's plausible seeds with ``searchsorted`` queries, and the dense
seed × candidate probability matrix.  The index is a pure performance
optimization, so for every scenario family and for both the deterministic
Privacy Test 1 and the Laplace-noised Privacy Test 2 its whole attempt
stream must be bit-identical to the dense path: seeds, candidates, counts,
partitions, thresholds, decisions and released rows.  Both paths consume the
main rng identically, so the randomized test is compared pointwise too.

Each cell runs twice over the index: with the native int64 key limit (no
scenario schema reaches it) and with the limit forced down so every fold is
rank-compressed, which puts the wide-schema key encoding under every
scenario family.  At the pipeline level the released-rows and privacy-ledger
digests (golden-store recipes) must match with the dense path forced.

The subset-scan knobs (``max_check_plausible`` / ``max_plausible``) route
around the index by design, so they are cleared here.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import mechanism as mechanism_module
from repro.core.mechanism import SynthesisMechanism
from repro.core.pipeline import SynthesisPipeline
from repro.core.run_store import RunStore
from repro.testing.scenarios import get_scenario, scenario_names

MODES = ("deterministic", "randomized")
#: ``native`` keeps the int64 limit; ``compressed`` makes every fold rank its keys.
KEY_LIMITS = {"native": mechanism_module._KEY_LIMIT, "compressed": 2}
SCENARIOS = tuple(scenario_names())
SMOKE_SCENARIOS = frozenset(scenario_names(tags={"smoke"}))

FIELDS = (
    "seed_indices",
    "candidates",
    "passed",
    "thresholds",
    "partition_indices",
    "plausible_seeds",
    "records_checked",
)


def _scenario_for_mode(name: str, mode: str):
    epsilon0 = None if mode == "deterministic" else 1.0
    return dataclasses.replace(
        get_scenario(name),
        epsilon0=epsilon0,
        max_check_plausible=None,
        max_plausible=None,
    )


def _marks(name: str):
    marks = [pytest.mark.conformance]
    if name in SMOKE_SCENARIOS:
        marks.append(pytest.mark.conformance_smoke)
    return marks


def _decision_cells():
    for name in SCENARIOS:
        for mode in MODES:
            for limit in KEY_LIMITS:
                yield pytest.param(
                    name, mode, limit, marks=_marks(name), id=f"{name}-{mode}-{limit}"
                )


def _pipeline_cells():
    for name in SCENARIOS:
        for mode in MODES:
            yield pytest.param(name, mode, marks=_marks(name), id=f"{name}-{mode}")


def _force_dense(monkeypatch):
    monkeypatch.setattr(
        SynthesisMechanism, "_fast_batch_counts", lambda self, *args: None
    )


def test_matrix_covers_the_full_registry():
    assert len(SCENARIOS) >= 7
    assert len(list(_decision_cells())) == len(SCENARIOS) * len(MODES) * len(KEY_LIMITS)
    assert len(list(_pipeline_cells())) == len(SCENARIOS) * len(MODES)


@pytest.mark.parametrize("name,mode,limit", list(_decision_cells()))
def test_index_decisions_bit_identical_to_dense(name, mode, limit, monkeypatch):
    scenario = _scenario_for_mode(name, mode)
    fit = scenario.fit(seed=0)
    monkeypatch.setattr(mechanism_module, "_KEY_LIMIT", KEY_LIMITS[limit])

    indexed = SynthesisMechanism(fit.model, fit.seeds, fit.params).prepare()
    index_report = indexed.run_attempts(
        scenario.attempts, np.random.default_rng(7), batch_size=scenario.batch_size
    )
    assert indexed._match_index is not None
    assert bool(indexed._match_index._ranks) == (limit == "compressed")

    with monkeypatch.context() as patch:
        _force_dense(patch)
        dense = SynthesisMechanism(fit.model, fit.seeds, fit.params)
        dense_report = dense.run_attempts(
            scenario.attempts, np.random.default_rng(7), batch_size=scenario.batch_size
        )

    index_arrays = index_report.to_arrays()
    dense_arrays = dense_report.to_arrays()
    for field in FIELDS:
        assert np.array_equal(index_arrays[field], dense_arrays[field]), (
            f"{name}/{mode}/{limit}: index diverged from the dense matrix in {field!r}"
        )
    assert np.array_equal(
        index_report.released_dataset().data, dense_report.released_dataset().data
    )


@pytest.mark.parametrize("name,mode", list(_pipeline_cells()))
def test_pipeline_release_and_ledger_digests_match(name, mode, monkeypatch):
    """End to end: released rows and privacy-ledger digests (golden-store
    recipes) are identical whether the index or the dense matrix counts."""
    scenario = _scenario_for_mode(name, mode)
    digests = {}
    for label in ("index", "dense"):
        with monkeypatch.context() as patch:
            if label == "dense":
                _force_dense(patch)
            pipeline = SynthesisPipeline(
                scenario.dataset(0), config=scenario.config(), rng=scenario._rng(0, 1)
            )
            pipeline.fit()
            report = pipeline.generate(
                scenario.target_released, max_attempts=scenario.attempts * 4
            )
        digests[label] = {
            "released": RunStore.artifact_key(
                "golden-released", {"rows": report.released_dataset().data}
            ),
            "ledger": RunStore.artifact_key(
                "golden-ledger",
                {
                    "entries": [
                        [e.label, e.epsilon, e.delta, e.count, e.scope]
                        for e in pipeline.accountant.entries
                    ]
                },
            ),
            "released_count": report.num_released,
        }
    assert digests["index"] == digests["dense"]
