"""Columnar, integer-encoded dataset container with CSV round-trip support.

A :class:`Dataset` pairs a :class:`~repro.datasets.schema.Schema` with a 2-D
numpy matrix of encoded values (one row per record, one column per attribute,
cell value = index into the attribute's domain).  Everything downstream —
structure learning, parameter learning, synthesis, the privacy test and the ML
evaluation — operates on this representation.
"""

from __future__ import annotations

import csv
import io
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.datasets.schema import Attribute, Schema

__all__ = ["Dataset"]

#: Lines split and encoded per step of the column-wise CSV reader.
_CSV_BLOCK_LINES = 1 << 14


def _cell_parser(attribute: Attribute) -> Callable[[str], object]:
    """How a CSV cell of ``attribute`` becomes a raw value: ``int`` or strip."""
    if isinstance(attribute.values[0], (int, np.integer)):
        return int
    return str.strip


def _read_csv_records(
    schema: Schema, path: Path, text: str, delimiter: str
) -> list[list]:
    """The raw records of a CSV text, parsed cell by cell with ``csv``."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"CSV file {path} is empty")
    if [name.strip() for name in header] != schema.names:
        raise ValueError(
            f"CSV header {header} does not match schema columns {schema.names}"
        )
    parsers = [_cell_parser(attribute) for attribute in schema]
    return [
        [parse(cell) for cell, parse in zip(row, parsers)] for row in reader if row
    ]


def _cell_codes(attribute: Attribute) -> dict[str, int]:
    """Cell text -> code for each value's own spelling (``str(value)``).

    A spelling is kept only where the per-cell parse maps it to that same
    code, so a lookup hit always agrees with :func:`_read_csv_records`.
    """
    parse = _cell_parser(attribute)
    codes = {}
    for value in attribute.values:
        text = str(value)
        try:
            code = attribute.code_lookup.get(parse(text))
        except ValueError:
            continue
        if code is not None:
            codes[text] = code
    return codes


def _encode_plain_csv(schema: Schema, text: str, delimiter: str) -> np.ndarray | None:
    """The code matrix of a CSV text, encoded a block of lines at a time.

    Each block is split on the delimiter in one call and each column slice
    is mapped through :func:`_cell_codes`; a cell the lookup misses
    (surrounding whitespace, spellings such as ``045``) is parsed on its own
    as the ``csv`` path would.  Returns ``None`` for what only that path
    handles exactly: quote characters, a header that does not match, a row
    with the wrong number of fields, or a cell that does not encode (whose
    error the ``csv`` path then raises).
    """
    if '"' in text or "\0" in text:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if [name.strip() for name in lines[0].split(delimiter)] != schema.names:
        return None
    body = [line for line in lines[1:] if line]
    del lines
    width = len(schema)
    fields = np.fromiter(
        map(str.count, body, repeat(delimiter)), dtype=np.int64, count=len(body)
    )
    if np.any(fields != width - 1):
        return None
    lookups = [_cell_codes(attribute) for attribute in schema]
    parsers = [_cell_parser(attribute) for attribute in schema]
    codes = np.empty((len(body), width), dtype=np.int64)
    for start in range(0, len(body), _CSV_BLOCK_LINES):
        cells = delimiter.join(body[start : start + _CSV_BLOCK_LINES]).split(delimiter)
        block = codes[start : start + len(cells) // width]
        for col, attribute in enumerate(schema):
            column = cells[col::width]
            block[:, col] = np.fromiter(
                map(lookups[col].get, column, repeat(-1)), dtype=np.int64, count=len(column)
            )
            for row in np.flatnonzero(block[:, col] < 0):
                try:
                    code = attribute.code_lookup.get(parsers[col](column[row]))
                except ValueError:
                    return None
                if code is None:
                    return None
                block[row, col] = code
    return codes


class Dataset:
    """An encoded dataset: a schema plus a matrix of integer codes."""

    def __init__(self, schema: Schema, data: np.ndarray):
        matrix = np.asarray(data, dtype=np.int64)
        if matrix.ndim != 2:
            raise ValueError(f"data must be a 2-D matrix, got shape {matrix.shape}")
        if matrix.shape[1] != len(schema):
            raise ValueError(
                f"data has {matrix.shape[1]} columns but schema has "
                f"{len(schema)} attributes"
            )
        for col, attribute in enumerate(schema):
            column = matrix[:, col]
            if column.size and (column.min() < 0 or column.max() >= attribute.cardinality):
                raise ValueError(
                    f"column {attribute.name!r} contains codes outside "
                    f"[0, {attribute.cardinality})"
                )
        self._schema = schema
        self._data = matrix

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, schema: Schema, records: Iterable[Sequence]) -> "Dataset":
        """Build a dataset from raw (un-encoded) records."""
        rows = list(records)
        if not rows:
            return cls(schema, np.empty((0, len(schema)), dtype=np.int64))
        columns = []
        for col, attribute in enumerate(schema):
            raw_column = [row[col] for row in rows]
            columns.append(attribute.encode(raw_column))
        return cls(schema, np.column_stack(columns))

    @classmethod
    def from_csv(cls, schema: Schema, path: str | Path, delimiter: str = ",") -> "Dataset":
        """Load a dataset from a CSV file with a header row of attribute names.

        Files without quote characters are encoded column by column
        (:func:`_encode_plain_csv`); anything that path cannot map exactly
        goes through the per-cell ``csv`` reader, which gives the same codes
        and raises the same errors.
        """
        path = Path(path)
        with path.open(newline="") as handle:
            text = handle.read()
        codes = _encode_plain_csv(schema, text, delimiter)
        if codes is not None:
            return cls(schema, codes)
        return cls.from_records(schema, _read_csv_records(schema, path, text, delimiter))

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and np.array_equal(self._data, other._data)

    def __repr__(self) -> str:
        return f"Dataset(records={len(self)}, attributes={len(self._schema)})"

    @property
    def schema(self) -> Schema:
        """The dataset's schema."""
        return self._schema

    @property
    def data(self) -> np.ndarray:
        """The encoded data matrix (a defensive copy is *not* made)."""
        return self._data

    @property
    def num_records(self) -> int:
        """Number of records (rows)."""
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        """Number of attributes (columns)."""
        return self._data.shape[1]

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def column(self, name_or_index: str | int) -> np.ndarray:
        """Encoded values of one attribute column."""
        index = (
            self._schema.index_of(name_or_index)
            if isinstance(name_or_index, str)
            else int(name_or_index)
        )
        return self._data[:, index]

    def record(self, row: int) -> np.ndarray:
        """Encoded values of one record."""
        return self._data[row]

    def compact_codes(self) -> np.ndarray:
        """The code matrix in the schema's narrowest unsigned dtype.

        The constructor already checked every code against its attribute's
        cardinality, so the cast cannot wrap (see :attr:`Schema.code_dtype`).
        """
        return self._data.astype(self._schema.code_dtype)

    def decoded_records(self) -> list[list]:
        """All records decoded back to raw attribute values."""
        decoded_columns = [
            attribute.decode(self._data[:, col])
            for col, attribute in enumerate(self._schema)
        ]
        return [list(row) for row in zip(*decoded_columns)] if len(self) else []

    def bucketized(self) -> np.ndarray:
        """The data matrix with every column mapped to its structure-learning buckets.

        Equivalent to applying :meth:`Attribute.bucketize` column by column,
        but in one whole-matrix pass: the constructor already validated every
        code, so the per-column range checks are skipped and all
        ``bucket_size`` divisions happen in a single ``floor_divide``.
        """
        if self._data.size == 0:
            return self._data.copy()
        divisors = np.array(
            [attribute.bucket_size or 1 for attribute in self._schema], dtype=np.int64
        )
        result = self._data // divisors[None, :]
        for col, attribute in enumerate(self._schema):
            if attribute.bucket_map is not None:
                mapping = np.asarray(attribute.bucket_map, dtype=np.int64)
                result[:, col] = mapping[self._data[:, col]]
        return result

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Dataset":
        """A new dataset containing the rows at ``indices`` (in that order)."""
        return Dataset(self._schema, self._data[np.asarray(indices, dtype=np.int64)])

    def head(self, count: int) -> "Dataset":
        """The first ``count`` records."""
        return Dataset(self._schema, self._data[:count])

    def sample(self, count: int, rng: np.random.Generator, replace: bool = False) -> "Dataset":
        """A uniformly random sample of ``count`` records."""
        if not replace and count > len(self):
            raise ValueError(
                f"cannot sample {count} records without replacement from {len(self)}"
            )
        indices = rng.choice(len(self), size=count, replace=replace)
        return self.take(indices)

    def concat(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets with identical schemas."""
        if self._schema != other._schema:
            raise ValueError("cannot concatenate datasets with different schemas")
        return Dataset(self._schema, np.vstack([self._data, other._data]))

    def unique_fraction(self) -> float:
        """Fraction of records that are unique (Table 2 reports this for ACS)."""
        if len(self) == 0:
            return 0.0
        _, counts = np.unique(self._data, axis=0, return_counts=True)
        return float(np.sum(counts == 1)) / len(self)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def to_csv(self, path: str | Path, delimiter: str = ",") -> None:
        """Write the dataset (decoded) to a CSV file with a header row."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(self._schema.names)
            for row in self.decoded_records():
                writer.writerow(row)
