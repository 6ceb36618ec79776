"""Output checks, run after the timed window so they take no CPU from it."""

from __future__ import annotations

import hashlib
import json

from repro.datasets.acs import ACS_SCHEMA

from loadgen import BUDGET, GENERATE, HEALTHZ, METRICS, PAGE, Client, Op, Tenants

_COLUMNS = ACS_SCHEMA.names
_DOMAINS = [frozenset(attribute.values) for attribute in ACS_SCHEMA]


def _rows(op: Op) -> tuple[dict, list]:
    """The header and the released rows of a /generate or page response."""
    if op.stream:
        lines = op.body.splitlines()
        return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    page = json.loads(op.body)
    return page, page["rows"]


def _bad_rows(rows: list) -> int:
    bad = 0
    for row in rows:
        if len(row) != len(_DOMAINS) or any(
            value not in domain for value, domain in zip(row, _DOMAINS)
        ):
            bad += 1
    return bad


def check_op(op: Op) -> str | None:
    """What is wrong with one operation's response, or None."""
    if op.error is not None:
        return op.error
    if not op.ok:
        return f"{op.kind} returned HTTP {op.status}: {op.body[:200]!r}"
    if op.kind == GENERATE:
        header, rows = _rows(op)
        if header.get("columns") != _COLUMNS:
            return f"/generate columns {header.get('columns')} are not {_COLUMNS}"
        if header.get("released_rows") != op.rows or len(rows) != op.rows:
            return (
                f"/generate asked for {op.rows} rows and released "
                f"{header.get('released_rows')}, sending {len(rows)}"
            )
        bad = _bad_rows(rows)
        if bad:
            return f"/generate sent {bad} row(s) with out-of-domain values"
    elif op.kind == PAGE:
        page, rows = _rows(op)
        if len(rows) != min(100, page["total_rows"]):
            return f"page of {page['total_rows']} rows held {len(rows)} rows"
        bad = _bad_rows(rows)
        if bad:
            return f"page held {bad} row(s) with out-of-domain values"
    elif op.kind == BUDGET:
        if "spent" not in json.loads(op.body):
            return "/budget response has no 'spent'"
    elif op.kind == METRICS:
        if b"repro_" not in op.body:
            return "/metrics exposes no repro_ metric"
    elif op.kind == HEALTHZ:
        if json.loads(op.body).get("status") != "ok":
            return "/healthz status is not ok"
    return None


def rows_digest(op: Op) -> str:
    """A digest of the rows a /generate released (for canary comparison)."""
    _header, rows = _rows(op)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def reconcile_budgets(client: Client, tenants: Tenants, rows_received: list[int]) -> list[str]:
    """Each session's spend must match the rows its tenant received."""
    problems = []
    for tenant, session in enumerate(tenants.sessions):
        info = client.json("GET", f"/budget?session={session}")
        spent, reserved = info["spent"], info["reserved"]
        expected_epsilon = rows_received[tenant] * info["per_row_cost"]["epsilon"]
        if spent["rows"] != rows_received[tenant]:
            problems.append(
                f"session {session} was charged {spent['rows']} rows; "
                f"its tenant received {rows_received[tenant]}"
            )
        elif abs(spent["epsilon"] - expected_epsilon) > 1e-9 * max(1.0, expected_epsilon):
            problems.append(
                f"session {session} spent ε={spent['epsilon']}, expected {expected_epsilon}"
            )
        if reserved["rows"] != 0:
            problems.append(f"session {session} still holds {reserved['rows']} reserved rows")
    return problems
