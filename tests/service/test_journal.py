"""Durable budget journal: crash-safe spend accounting across restarts.

A service restart must restore every tenant budget *exactly* — forgetting
spent (ε, δ) would be a privacy violation, not an availability bug.  These
tests drive the real :class:`ServiceApp` against an on-disk journal, restart
it, and check budgets, counters, idempotency records and refunds through the
shared conservation checkers.
"""

import json

import pytest

from repro.service import ModelRegistry, ServiceApp
from repro.service.journal import (
    BudgetJournal,
    JournalCorruptionError,
    read_journal,
)
from repro.testing import truncate_file_tail
from repro.testing.invariants import (
    assert_reports_identical,
    check_accountant_conservation,
)
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

SCENARIO = get_scenario("tiny-n")


def make_app(journal_path) -> ServiceApp:
    """A fresh service process: same journal, same republished model."""
    app = ServiceApp(ModelRegistry(), num_workers=1, journal=journal_path)
    # publish_model() happens *after* construction, exactly as in `repro
    # serve`: the journaled sessions stay staged until the content-hashed
    # model id is back in the registry, then replay.
    app.publish_model("tiny", SCENARIO.dataset(0), SCENARIO.config(), seed=5)
    return app


# --------------------------------------------------------------------------- #
# The journal file format
# --------------------------------------------------------------------------- #
class TestJournalFile:
    def test_append_writes_one_sorted_json_line_per_event(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BudgetJournal(path) as journal:
            journal.append({"event": "reserve", "rows": 3})
            journal.append({"event": "commit", "rows": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["reserve", "commit"]
        assert lines[0] == json.dumps({"event": "reserve", "rows": 3}, sort_keys=True)

    def test_fsync_mode_and_idempotent_close(self, tmp_path):
        journal = BudgetJournal(tmp_path / "nested" / "j.jsonl", fsync=True)
        journal.append({"event": "reserve"})
        journal.close()
        journal.close()
        assert read_journal(journal.path) == [{"event": "reserve"}]

    def test_read_missing_journal_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "reserve"}\n{"event": "com')
        assert read_journal(path) == [{"event": "reserve"}]

    def test_corruption_before_the_tail_refuses_to_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json at all\n{"event": "reserve"}\n')
        with pytest.raises(JournalCorruptionError):
            read_journal(path)

    def test_non_object_line_refuses_to_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('[1, 2]\n{"event": "reserve"}\n')
        with pytest.raises(JournalCorruptionError):
            read_journal(path)


# --------------------------------------------------------------------------- #
# Restart durability
# --------------------------------------------------------------------------- #
class TestRestartDurability:
    def test_budgets_and_counters_survive_a_restart(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            info = app.create_session("tiny", tenant="acme", budget={"max_rows": 8})
            session_id = info["session_id"]
            record = app.generate(session_id, rows=3, seed=7)
            before = app.budget(session_id)

        with make_app(journal) as app:
            after = app.budget(session_id)
            assert after["spent"] == before["spent"]
            assert after["remaining"] == before["remaining"]
            assert after["reserved"]["rows"] == 0
            assert after["tenant"] == "acme"
            # Counters continue past the journaled history instead of
            # colliding with it.
            fresh = app.create_session("tiny")
            assert fresh["session_id"] != session_id
            next_record = app.generate(session_id, rows=2, seed=9)
            assert next_record.release_id != record.release_id
            assert next_record.request_id != record.request_id
            check_accountant_conservation(app._session(session_id).accountant)

    def test_unsettled_reservation_is_refunded_on_replay(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            info = app.create_session("tiny", budget={"max_rows": 8})
            session_id = info["session_id"]
            committed = app.generate(session_id, rows=2, seed=3).num_released
            # Simulate a crash between reserve and commit: the hold is
            # journaled, the settlement never happens.
            app._session(session_id).reserve(f"{session_id}-r99999", 5)

        with make_app(journal) as app:
            budget = app.budget(session_id)
            assert budget["reserved"]["rows"] == 0
            assert budget["spent"]["rows"] == committed
            assert budget["remaining"]["rows"] == 8 - committed
            check_accountant_conservation(app._session(session_id).accountant)
        refunds = [
            event
            for event in read_journal(journal)
            if event.get("event") == "cancel"
            and event.get("reason") == "refund_on_replay"
        ]
        assert len(refunds) == 1
        assert refunds[0]["request_id"] == f"{session_id}-r99999"

    def test_replay_does_not_duplicate_journal_events(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            app.generate(session_id, rows=2, seed=3)
        baseline = [
            event
            for event in read_journal(journal)
            if event.get("event") in ("reserve", "commit")
        ]
        with make_app(journal):
            pass  # replay only
        replayed = [
            event
            for event in read_journal(journal)
            if event.get("event") in ("reserve", "commit")
        ]
        assert replayed == baseline

    @pytest.mark.chaos
    def test_torn_journal_tail_still_restores_the_budget(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            committed = app.generate(session_id, rows=2, seed=3).num_released
        # A crash mid-append tears the final (release-meta) line; the budget
        # events before it must still replay exactly.
        truncate_file_tail(journal, drop_bytes=10)
        with make_app(journal) as app:
            budget = app.budget(session_id)
            assert budget["spent"]["rows"] == committed
            assert budget["reserved"]["rows"] == 0


# --------------------------------------------------------------------------- #
# Journals written before the privacy test had a single (exact) mode
# --------------------------------------------------------------------------- #
def _rewrite_as_legacy(journal) -> None:
    """Give a journal the fields sessions with an accuracy contract wrote.

    Sessions recorded ``"accuracy": "approximate"`` in their budget and
    releases named the engine variant they ran on as ``<model>#approx``.
    """
    events = read_journal(journal)
    for event in events:
        if event["event"] == "session_created":
            event["budget"]["accuracy"] = "approximate"
        elif event["event"] == "release":
            event["engine_key"] = event["model_id"] + "#approx"
    journal.write_text(
        "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
    )


class TestLegacyJournal:
    def test_legacy_sessions_replay_onto_the_exact_engine(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session(
                "tiny", tenant="acme", budget={"max_rows": 10}
            )["session_id"]
            first = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            before = app.budget(session_id)
        _rewrite_as_legacy(journal)

        for _restart in range(2):
            with make_app(journal) as app:
                after = app.budget(session_id)
                assert after["spent"] == before["spent"]
                assert after["remaining"] == before["remaining"]
                assert after["reserved"]["rows"] == 0
                assert after["budget"] == before["budget"]
                replayed = app.generate(
                    session_id, rows=3, seed=5, idempotency_key="k1"
                )
                assert replayed.release_id == first.release_id
                assert_reports_identical(first.report, replayed.report)
                assert app.budget(session_id)["spent"] == before["spent"]
                check_accountant_conservation(app._session(session_id).accountant)


# --------------------------------------------------------------------------- #
# Idempotent generate
# --------------------------------------------------------------------------- #
class TestIdempotency:
    def test_same_key_replays_without_spending(self, tmp_path):
        with make_app(tmp_path / "journal.jsonl") as app:
            session_id = app.create_session("tiny", budget={"max_rows": 10})[
                "session_id"
            ]
            first = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            again = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            assert again.release_id == first.release_id
            assert_reports_identical(first.report, again.report)
            assert app.budget(session_id)["spent"]["rows"] == first.num_released

    def test_idempotency_survives_a_restart_with_zero_extra_spend(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 10})[
                "session_id"
            ]
            first = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            spent = app.budget(session_id)["spent"]

        with make_app(journal) as app:
            replayed = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            # The in-memory release cache died with the process; the rows are
            # regenerated from the recorded base seed — bit-identical — and
            # charged nothing.
            assert replayed.release_id == first.release_id
            assert_reports_identical(first.report, replayed.report)
            assert app.budget(session_id)["spent"] == spent

    def test_keys_are_scoped_per_session(self, tmp_path):
        with make_app(tmp_path / "journal.jsonl") as app:
            first_session = app.create_session("tiny")["session_id"]
            second_session = app.create_session("tiny")["session_id"]
            one = app.generate(first_session, rows=2, seed=5, idempotency_key="k")
            two = app.generate(second_session, rows=2, seed=5, idempotency_key="k")
            assert one.release_id != two.release_id
