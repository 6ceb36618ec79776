"""Checks of the benchmark's own logic; no server is started.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It exits 0 when every check holds.  The file name keeps it out of pytest's
default collection, so the repository's test suite never runs it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_op  # noqa: E402
from layers import LAYER_METRICS, _covered  # noqa: E402
from loadgen import GENERATE, HEALTHZ, METRICS, READS, WORKLOADS, Op, schedule  # noqa: E402


def check_schedules() -> None:
    interactive = WORKLOADS["interactive"]
    first = schedule(interactive, seed=7, seconds=15)
    again = schedule(interactive, seed=7, seconds=15)
    other = schedule(interactive, seed=8, seconds=15)
    assert [(op.kind, op.tenant, op.due) for op in first] == [
        (op.kind, op.tenant, op.due) for op in again
    ], "the same seed must give the same schedule"
    assert [op.due for op in first] != [op.due for op in other], "seeds must differ"
    generates = sum(op.kind == GENERATE for op in first)
    reads = sum(op.kind in READS for op in first)
    assert (generates, reads) == (240, 60), (generates, reads)  # 20 ops/s, 1 in 5 a read
    assert all(0 <= op.due < 15 for op in first)
    assert [op.due for op in first] == sorted(op.due for op in first)
    saturated = schedule(WORKLOADS["saturated"], seed=7, seconds=15)
    # The closed loops carry only the monitoring scrapes; /generate comes from the loop.
    assert {op.kind for op in saturated} == {METRICS, HEALTHZ}
    assert len(saturated) == 30  # one /metrics and one /healthz a second


def check_coverage() -> None:
    assert _covered(0.0, 10.0, []) == 0.0
    assert _covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert _covered(5.0, 6.0, [(0.0, 10.0), (0.0, 10.0)]) == 1.0


def check_output_checks() -> None:
    row = [45, "private", "schl-19", "never-married", "occ-04", "relp-01",
           "white", "female", 35, "us", "<=50K"]
    columns = ["AGEP", "COW", "SCHL", "MAR", "OCCP", "RELP", "RAC1P", "SEX", "WKHP", "WAOB", "WAGP"]
    page = {"columns": columns, "released_rows": 2, "rows": [row, row]}
    good = Op(GENERATE, rows=2, status=200, body=json.dumps(page).encode())
    assert check_op(good) is None, check_op(good)
    short = Op(GENERATE, rows=3, status=200, body=json.dumps(page).encode())
    assert "asked for 3 rows" in check_op(short)
    page["rows"] = [row, row[:-1] + ["rich"]]
    bad = Op(GENERATE, rows=2, status=200, body=json.dumps(page).encode())
    assert "out-of-domain" in check_op(bad)
    assert "HTTP 409" in check_op(Op(GENERATE, rows=2, status=409, body=b"{}"))


def check_declared_metrics() -> None:
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _moves) in LAYER_METRICS.items()}


if __name__ == "__main__":
    for check in (check_schedules, check_coverage, check_output_checks, check_declared_metrics):
        check()
        print(f"ok  {check.__name__}")
