"""Tests for the encoded Dataset container."""

import csv

import numpy as np
import pytest

from repro.datasets.dataset import Dataset
from repro.datasets.schema import Attribute, AttributeType, Schema


@pytest.fixture()
def schema():
    return Schema(
        [
            Attribute("num", AttributeType.NUMERICAL, (10, 20, 30)),
            Attribute("cat", AttributeType.CATEGORICAL, ("a", "b")),
        ]
    )


@pytest.fixture()
def dataset(schema):
    return Dataset(schema, np.array([[0, 1], [2, 0], [1, 1]]))


class TestConstruction:
    def test_basic_shape_properties(self, dataset):
        assert len(dataset) == 3
        assert dataset.num_records == 3
        assert dataset.num_attributes == 2

    def test_rejects_wrong_column_count(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, np.zeros((2, 3), dtype=np.int64))

    def test_rejects_out_of_range_codes(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, np.array([[5, 0]]))

    def test_rejects_non_2d_data(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, np.array([0, 1]))

    def test_from_records_encodes_raw_values(self, schema):
        dataset = Dataset.from_records(schema, [[20, "b"], [10, "a"]])
        assert dataset.data.tolist() == [[1, 1], [0, 0]]

    def test_from_records_empty(self, schema):
        dataset = Dataset.from_records(schema, [])
        assert len(dataset) == 0

    def test_equality(self, schema, dataset):
        clone = Dataset(schema, dataset.data.copy())
        assert clone == dataset
        different = Dataset(schema, np.array([[0, 0]]))
        assert different != dataset


class TestAccess:
    def test_column_by_name_and_index(self, dataset):
        assert dataset.column("cat").tolist() == [1, 0, 1]
        assert dataset.column(0).tolist() == [0, 2, 1]

    def test_record(self, dataset):
        assert dataset.record(1).tolist() == [2, 0]

    def test_decoded_records(self, dataset):
        assert dataset.decoded_records() == [[10, "b"], [30, "a"], [20, "b"]]

    def test_bucketized_matches_schema_buckets(self, toy_dataset):
        bucketized = toy_dataset.bucketized()
        assert bucketized.shape == toy_dataset.data.shape
        # The age column (bucket size 5) is compressed into 4 buckets.
        assert bucketized[:, 0].max() <= 3
        # Unbucketized columns are unchanged.
        assert np.array_equal(bucketized[:, 1], toy_dataset.data[:, 1])


class TestTransformation:
    def test_take_preserves_order(self, dataset):
        subset = dataset.take(np.array([2, 0]))
        assert subset.data.tolist() == [[1, 1], [0, 1]]

    def test_head(self, dataset):
        assert len(dataset.head(2)) == 2

    def test_sample_without_replacement(self, dataset, rng):
        sample = dataset.sample(2, rng)
        assert len(sample) == 2

    def test_sample_too_many_raises(self, dataset, rng):
        with pytest.raises(ValueError):
            dataset.sample(10, rng)

    def test_sample_with_replacement_allows_more(self, dataset, rng):
        sample = dataset.sample(10, rng, replace=True)
        assert len(sample) == 10

    def test_concat(self, dataset):
        combined = dataset.concat(dataset)
        assert len(combined) == 6

    def test_concat_requires_same_schema(self, dataset, toy_dataset):
        with pytest.raises(ValueError):
            dataset.concat(toy_dataset)

    def test_unique_fraction(self, schema):
        data = Dataset(schema, np.array([[0, 0], [0, 0], [1, 1]]))
        assert data.unique_fraction() == pytest.approx(1 / 3)

    def test_unique_fraction_empty(self, schema):
        data = Dataset(schema, np.empty((0, 2), dtype=np.int64))
        assert data.unique_fraction() == 0.0


class TestCsvRoundTrip:
    def test_to_csv_and_back(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        dataset.to_csv(path)
        loaded = Dataset.from_csv(dataset.schema, path)
        assert loaded == dataset

    def test_from_csv_rejects_wrong_header(self, dataset, tmp_path, schema):
        path = tmp_path / "data.csv"
        path.write_text("wrong,header\n1,a\n")
        with pytest.raises(ValueError, match="header"):
            Dataset.from_csv(schema, path)

    def test_from_csv_rejects_empty_file(self, tmp_path, schema):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            Dataset.from_csv(schema, path)


def reference_from_csv(schema, path, delimiter=","):
    """The cell-by-cell CSV reader ``Dataset.from_csv`` must agree with."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"CSV file {path} is empty")
        if [name.strip() for name in header] != schema.names:
            raise ValueError(
                f"CSV header {header} does not match schema columns {schema.names}"
            )
        records = []
        for row in reader:
            if not row:
                continue
            typed_row = []
            for cell, attribute in zip(row, schema):
                if isinstance(attribute.values[0], (int, np.integer)):
                    typed_row.append(int(cell))
                else:
                    typed_row.append(cell.strip())
            records.append(typed_row)
    return Dataset.from_records(schema, records)


def outcome(load, schema, path):
    """The loaded codes, or the type and message of the error raised."""
    try:
        return load(schema, path).data.tolist()
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


class TestCsvIngest:
    """``from_csv`` gives the same codes and errors as the cell-by-cell reader."""

    def load(self, schema, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        expected = outcome(reference_from_csv, schema, path)
        assert outcome(Dataset.from_csv, schema, path) == expected
        return expected

    def test_crlf_line_endings(self, schema, tmp_path):
        codes = self.load(schema, tmp_path, "num,cat\r\n10,a\r\n30,b\r\n")
        assert codes == [[0, 0], [2, 1]]

    def test_quoted_fields(self, tmp_path):
        schema = Schema(
            [
                Attribute("num", AttributeType.NUMERICAL, (1, 2)),
                Attribute("cat", AttributeType.CATEGORICAL, ("x,y", 'say "hi"')),
            ]
        )
        text = 'num,cat\n1,"x,y"\n"2","say ""hi"""\n'
        assert self.load(schema, tmp_path, text) == [[0, 0], [1, 1]]

    def test_whitespace_and_int_spellings(self, schema, tmp_path):
        text = "num,cat\n 10 , a \n020,b\n+30,\tb\n"
        assert self.load(schema, tmp_path, text) == [[0, 0], [1, 1], [2, 1]]

    def test_blank_lines_are_skipped(self, schema, tmp_path):
        text = "num,cat\n\n10,a\n\n\r\n20,b\n\n"
        assert self.load(schema, tmp_path, text) == [[0, 0], [1, 1]]

    def test_header_only(self, schema, tmp_path):
        assert self.load(schema, tmp_path, "num,cat\n") == []

    def test_bad_value_keeps_its_error(self, schema, tmp_path):
        error = self.load(schema, tmp_path, "num,cat\n10,a\n20,zz\n")
        assert error == (
            "ValueError",
            "value 'zz' is not in the domain of attribute 'cat'",
        )
        error = self.load(schema, tmp_path, "num,cat\n10,a\nten,b\n")
        assert error == ("ValueError", "invalid literal for int() with base 10: 'ten'")
        error = self.load(schema, tmp_path, "num,cat\n10,a\n40,b\n")
        assert error == (
            "ValueError",
            "value 40 is not in the domain of attribute 'num'",
        )

    def test_wrong_field_counts(self, schema, tmp_path):
        # Extra fields are ignored, as csv's reader zipped against the schema.
        assert self.load(schema, tmp_path, "num,cat\n10,a,extra\n20,b\n") == [
            [0, 0],
            [1, 1],
        ]
        error = self.load(schema, tmp_path, "num,cat\n10,a\n20\n")
        assert error[0] == "IndexError"

    def test_random_texts_match_the_reference(self, schema, tmp_path):
        rng = np.random.default_rng(0)
        nums = ["10", "20", "30", " 10", "020", "+30", "40", "x", ""]
        cats = ["a", "b", " a", "b ", "zz", '"b"', ""]
        ends = ["\n", "\r\n", "\r", "\n\n", ",\n", "\n,\n"]
        loaded = 0
        for _ in range(300):
            clean = rng.random() < 0.5
            lines = [
                rng.choice(nums[:3] if clean else nums)
                + ","
                + rng.choice(cats[:2] if clean else cats)
                + rng.choice(ends[:3] if clean else ends)
                for _ in range(rng.integers(0, 8))
            ]
            result = self.load(schema, tmp_path, "num,cat\n" + "".join(lines))
            loaded += isinstance(result, list)
        assert loaded > 150  # most texts load; the rest compare their errors

    def test_semicolon_delimiter(self, schema, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("num;cat\n10;a\n30;b\n")
        assert Dataset.from_csv(schema, path, delimiter=";").data.tolist() == [
            [0, 0],
            [2, 1],
        ]
