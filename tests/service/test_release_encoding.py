"""Released rows on the wire: token-table encoding against a per-row oracle.

:class:`~repro.service.api.ReleaseRecord` encodes NDJSON from per-attribute
JSON token tables and pages from per-attribute JSON-native value tables.
Both must produce exactly the bytes the straightforward encoder writes:
decode the codes through :meth:`Dataset.decoded_records`, then
``json.dumps(json_native(row))`` one row at a time.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.results import REPORT_COLUMNS, SynthesisReport
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Attribute, AttributeType, Schema, json_native
from repro.service import ModelRegistry, ServiceApp, build_server
from repro.service.api import _NDJSON_SLAB_ROWS, ReleaseRecord
from repro.testing.scenarios import get_scenario, iter_scenarios

pytestmark = pytest.mark.service

ROW_COUNTS = (0, 1, _NDJSON_SLAB_ROWS - 1, _NDJSON_SLAB_ROWS, _NDJSON_SLAB_ROWS + 1)


def awkward_schema() -> Schema:
    """Values whose JSON spelling is easy to get wrong."""
    return Schema(
        [
            Attribute(
                "text",
                AttributeType.CATEGORICAL,
                ("plain", 'quo"te', "back\\slash", "tab\there", "café", "☃", ""),
            ),
            Attribute("ints", AttributeType.NUMERICAL, (np.int64(-3), 0, 7, 10**12)),
            Attribute("floats", AttributeType.NUMERICAL, (0.1, np.float64(2.5), -1e-9)),
            Attribute("flags", AttributeType.CATEGORICAL, (True, "no", None)),
            Attribute("pairs", AttributeType.CATEGORICAL, ((1, "a"), (np.int32(2), 3.5))),
        ]
    )


SCHEMAS = {scenario.name: scenario.schema for scenario in iter_scenarios()}
SCHEMAS["awkward"] = awkward_schema


def random_codes(schema: Schema, rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    columns = [rng.integers(card, size=rows) for card in schema.cardinalities]
    return np.stack(columns, axis=1).reshape(rows, len(schema))


def make_record(schema: Schema, codes: np.ndarray) -> ReleaseRecord:
    return ReleaseRecord(
        release_id="rel000001",
        request_id="s00001-r00001",
        session_id="s00001",
        model_id="m",
        base_seed=11,
        requested_rows=len(codes),
        created_at=0.0,
        schema=schema,
        rows=Dataset(schema, codes).compact_codes(),
        attempts=2 * len(codes) + 1,
    )


def oracle_rows(schema: Schema, codes: np.ndarray) -> list[list]:
    return json_native(Dataset(schema, codes).decoded_records())


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_ndjson_is_byte_identical_to_per_row_dumps(name, rows):
    schema = SCHEMAS[name]()
    codes = random_codes(schema, rows, seed=rows)
    record = make_record(schema, codes)
    expected = b"".join(
        (json.dumps(json_native(row)) + "\n").encode()
        for row in oracle_rows(schema, codes)
    )
    slabs = list(record.ndjson_slabs())
    assert len(slabs) == -(-rows // _NDJSON_SLAB_ROWS)  # one write per slab
    assert b"".join(slabs) == expected


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_page_body_is_byte_identical(name, rows):
    schema = SCHEMAS[name]()
    codes = random_codes(schema, rows, seed=rows + 1)
    record = make_record(schema, codes)
    expected_rows = oracle_rows(schema, codes)
    assert record.decoded_rows() == expected_rows
    for offset, limit in ((0, 100), (max(rows - 3, 0), 7), (0, max(rows, 1))):
        page = record.page(offset, limit)
        expected = dict(page, rows=expected_rows[offset : offset + limit])
        assert json.dumps(json_native(page)) == json.dumps(json_native(expected))


def test_code_dtype_is_the_narrowest_unsigned_type():
    def schema_with(cardinality):
        return Schema(
            [Attribute("a", AttributeType.NUMERICAL, tuple(range(cardinality)))]
        )

    assert schema_with(1).code_dtype == np.uint8
    assert schema_with(256).code_dtype == np.uint8
    assert schema_with(257).code_dtype == np.uint16
    assert schema_with(70000).code_dtype == np.uint32


def test_released_codes_reject_out_of_range_codes():
    schema = get_scenario("tiny-n").schema()
    arrays = {
        name: np.zeros((1, len(schema)) if name == "candidates" else 1, dtype=dtype)
        for name, dtype in REPORT_COLUMNS.items()
    }
    arrays["passed"][:] = True
    arrays["candidates"][0, 0] = schema.cardinalities[0]  # one past the domain
    report = SynthesisReport.from_arrays(schema, arrays)
    with pytest.raises(ValueError, match="outside"):
        report.released_dataset().compact_codes()


class TestServedReleases:
    @pytest.fixture(scope="class")
    def service(self):
        scenario = get_scenario("tiny-n")
        app = ServiceApp(ModelRegistry(), num_workers=1)
        app.publish_model("tiny", scenario.dataset(0), scenario.config(), seed=5)
        server = build_server(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield app, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        app.close()

    @staticmethod
    def _post(url, body):
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read()

    def test_history_keeps_narrow_codes_and_no_report(self, service):
        app, _url = service
        session_id = app.create_session("tiny")["session_id"]
        record = app.generate(session_id, 4, seed=3)
        assert record.report is not None
        held = app.release(record.release_id)
        assert held.report is None
        assert held.rows.dtype == held.schema.code_dtype == np.uint8
        np.testing.assert_array_equal(held.rows, record.report.released_dataset().data)
        assert held.attempts == record.report.num_attempts
        assert held.describe() == record.describe()
        assert held.describe()["pass_rate"] == record.report.pass_rate

    def test_stream_and_page_match_the_oracle(self, service):
        app, url = service
        session_id = json.loads(self._post(f"{url}/sessions", {"model": "tiny"}))[
            "session_id"
        ]
        body = self._post(
            f"{url}/generate",
            {"session": session_id, "rows": 5, "seed": 9, "stream": True},
        )
        header_line, _, rows_text = body.partition(b"\n")
        header = json.loads(header_line)
        record = app.release(header["release_id"])
        expected = oracle_rows(record.schema, record.rows)
        assert header["columns"] == record.schema.names
        assert header["released_rows"] == len(expected)
        assert rows_text == b"".join(
            (json.dumps(row) + "\n").encode() for row in expected
        )
        with urllib.request.urlopen(
            f"{url}/releases/{record.release_id}?limit=3", timeout=60
        ) as response:
            page = json.load(response)
        assert page["rows"] == expected[:3]
        assert page["attempts"] == record.attempts
