"""Service conformance: serving is bit-identical to the direct pipeline.

For three scenario families (randomized-test DP, deterministic-test with
early-termination knobs, tiny-n edge case) the suite:

* publishes the scenario through the service's fit-once registry and proves
  the published privacy ledger equals a direct
  :class:`~repro.core.pipeline.SynthesisPipeline` fit's ledger entry-for-entry;
* serves N ``/generate`` requests **concurrently** and proves each one's
  released rows and full per-attempt accounting are bit-identical to running
  the same request serially through a direct engine on the direct fit (the
  shared :func:`~repro.testing.invariants.assert_reports_identical` checker);
* proves the session's accountant spend equals the serial ground truth
  (rows × the Theorem 1 per-row rate) and conserves under composition;
* proves an over-budget request is refused with the budget remainder and
  releases nothing — never a partial over-budget release.
"""

import threading

import numpy as np
import pytest

from repro.core.engine import SynthesisEngine
from repro.core.pipeline import SynthesisPipeline
from repro.privacy.plausible_deniability import theorem1_guarantee
from repro.service import ModelRegistry, ServiceApp, ServiceError, SessionBudget
from repro.testing.invariants import (
    assert_reports_identical,
    check_accountant_conservation,
    check_theorem1_bounds,
)
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

#: Three schema families crossing the privacy-test axes: randomized DP test,
#: deterministic test with early-termination knobs, and the tiny-n edge case.
FAMILIES = ("toy-correlated", "high-cardinality", "tiny-n")
FIT_SEED = 17
REQUEST_SEEDS = (101, 202, 303)


def _direct_fit(scenario):
    pipeline = SynthesisPipeline(
        scenario.dataset(0), scenario.config(), rng=np.random.default_rng(FIT_SEED)
    )
    pipeline.fit()
    return pipeline


def _direct_reports(scenario, pipeline, rows):
    """The serial ground truth: one direct engine run per request seed."""
    config = scenario.config()
    reports = {}
    with SynthesisEngine(
        pipeline.model,
        pipeline.splits.seeds,
        config.privacy,
        num_workers=1,
        chunk_size=config.chunk_size,
        batch_size=config.batch_size,
    ) as engine:
        for seed in REQUEST_SEEDS:
            reports[seed] = engine.generate(rows, base_seed=seed)
    return reports


@pytest.mark.parametrize("name", FAMILIES)
def test_concurrent_service_matches_serial_pipeline(name):
    scenario = get_scenario(name)
    rows = scenario.target_released
    direct_pipeline = _direct_fit(scenario)
    direct = _direct_reports(scenario, direct_pipeline, rows)

    with ServiceApp(ModelRegistry(), num_workers=1) as app:
        app.publish_model(name, scenario.dataset(0), scenario.config(), seed=FIT_SEED)
        published = app.model(name)

        # Fit-phase ledger: the published model spent exactly what a direct
        # pipeline fit spends, entry for entry.
        assert (
            published.pipeline.accountant.entries
            == direct_pipeline.accountant.entries
        )

        session_id = app.create_session(name, tenant="conformance")["session_id"]
        records = {}
        failures = []
        barrier = threading.Barrier(len(REQUEST_SEEDS))

        def client(seed):
            barrier.wait()  # maximize interleaving
            try:
                records[seed] = app.generate(session_id, rows, seed=seed)
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in REQUEST_SEEDS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

        # Every concurrently served request is bit-identical — full
        # per-attempt accounting, not just the released rows — to its serial
        # direct-engine ground truth.
        for seed in REQUEST_SEEDS:
            assert_reports_identical(
                direct[seed], records[seed].report, context=f"request seed {seed}"
            )
            np.testing.assert_array_equal(
                direct[seed].released_dataset().data,
                records[seed].report.released_dataset().data,
            )
            check_theorem1_bounds(
                records[seed].report,
                published.params,
                num_seed_records=len(published.pipeline.splits.seeds),
            )

        # Accountant spend equals the serial ground truth.
        session = app._session(session_id)
        total_released = sum(direct[seed].num_released for seed in REQUEST_SEEDS)
        spent = session.spent()
        assert spent["rows"] == total_released
        eps_row, delta_row = published.per_row_cost()
        assert spent["epsilon"] == pytest.approx(total_released * eps_row)
        assert spent["delta"] == pytest.approx(total_released * delta_row)
        if published.params.epsilon0 is not None:
            expected = theorem1_guarantee(
                published.params.k, published.params.gamma, published.params.epsilon0
            )
            assert (eps_row, delta_row) == expected[:2]
        check_accountant_conservation(session.accountant)


@pytest.mark.parametrize("name", FAMILIES)
def test_rerequest_with_same_seed_is_reproducible(name):
    """A request is a pure function of (model, seed, rows) — replay matches."""
    scenario = get_scenario(name)
    rows = scenario.target_released
    with ServiceApp(ModelRegistry(), num_workers=1) as app:
        app.publish_model(name, scenario.dataset(0), scenario.config(), seed=FIT_SEED)
        first_session = app.create_session(name)["session_id"]
        second_session = app.create_session(name)["session_id"]
        first = app.generate(first_session, rows, seed=REQUEST_SEEDS[0])
        second = app.generate(second_session, rows, seed=REQUEST_SEEDS[0])
        assert_reports_identical(first.report, second.report, context="replay")


def test_overspend_is_refused_with_remainder_never_partial():
    scenario = get_scenario("toy-correlated")
    with ServiceApp(ModelRegistry(), num_workers=1) as app:
        app.publish_model(
            "toy", scenario.dataset(0), scenario.config(), seed=FIT_SEED
        )
        published = app.model("toy")
        eps_row, _delta_row = published.per_row_cost()
        assert eps_row > 0  # the randomized test carries a real per-row cost

        # Budget fits exactly one 2-row request.
        budget = {"epsilon": 2 * eps_row * 1.0000001, "max_rows": 2}
        session_id = app.create_session("toy", budget=budget)["session_id"]
        first = app.generate(session_id, 2, seed=1)
        assert first.num_released <= 2

        before = app._session(session_id).spent()
        with pytest.raises(ServiceError) as info:
            app.generate(session_id, 2, seed=2)
        assert info.value.status == 409
        assert info.value.code == "budget_exceeded"
        remaining = info.value.payload["remaining"]
        assert remaining["rows"] == 2 - first.num_released
        # The refused request spent nothing and released nothing.
        assert app._session(session_id).spent() == before
        events = [e["event"] for e in app._session(session_id).ledger()]
        assert events.count("refusal") == 1


def test_release_history_is_bounded():
    scenario = get_scenario("tiny-n")
    with ServiceApp(ModelRegistry(), num_workers=1, max_releases=2) as app:
        app.publish_model("tiny", scenario.dataset(0), scenario.config())
        session_id = app.create_session("tiny")["session_id"]
        records = [app.generate(session_id, 2, seed=seed) for seed in (1, 2, 3)]
        # The newest two survive; the oldest expired from the history.
        app.release(records[1].release_id)
        app.release(records[2].release_id)
        with pytest.raises(ServiceError) as info:
            app.release(records[0].release_id)
        assert info.value.status == 404


def test_k_deniability_floor_refuses_session_creation():
    scenario = get_scenario("tiny-n")  # model k = 4
    with ServiceApp(ModelRegistry(), num_workers=1) as app:
        app.publish_model("tiny", scenario.dataset(0), scenario.config())
        with pytest.raises(ServiceError) as info:
            app.create_session("tiny", budget={"min_k": 50})
        assert info.value.status == 409
        assert info.value.code == "k_floor_violation"


def test_unknown_budget_keys_are_refused():
    scenario = get_scenario("tiny-n")
    with ServiceApp(ModelRegistry(), num_workers=1) as app:
        app.publish_model("tiny", scenario.dataset(0), scenario.config())
        with pytest.raises(ServiceError) as info:
            app.create_session("tiny", budget={"max_rows": 5, "accuracy": "exact"})
        assert info.value.status == 400
        assert info.value.code == "bad_budget"
