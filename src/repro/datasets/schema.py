"""Attribute and schema definitions, including bucketization.

A :class:`Schema` describes the columns of a dataset: each :class:`Attribute`
has a name, a type (categorical or numerical), a list of values (its domain)
and, optionally, a bucketization used *only* for structure learning (Section
3.3 of the paper: parent attributes are discretized into coarser bins so that
the parent-configuration space stays small, see Eq. 6-7).  Both input and
output data keep the original domain; bucketization never changes the format
of released records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = ["AttributeType", "Attribute", "Schema", "json_native"]


def json_native(value):
    """``value`` with numpy scalars unwrapped so that ``json.dumps`` takes it.

    Dicts (keys as strings), lists and tuples (as lists) are converted
    recursively; every other value is returned as it is.
    """
    if isinstance(value, dict):
        return {str(key): json_native(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_native(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _object_array(items: Sequence) -> np.ndarray:
    """A 1-D object array of ``items`` (never a deeper array of nested lists)."""
    array = np.empty(len(items), dtype=object)
    for index, item in enumerate(items):
        array[index] = item
    return array


class AttributeType(Enum):
    """Type of a data attribute."""

    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class Attribute:
    """A single data attribute (column).

    Parameters
    ----------
    name:
        Human-readable attribute name (e.g. ``"AGEP"``).
    attribute_type:
        Whether the attribute is categorical or numerical.  Numerical
        attributes are still discrete here (the ACS attributes are integer
        valued); the distinction only matters for default bucketization.
    values:
        The ordered domain of the attribute.  Encoded data stores the *index*
        into this tuple.
    bucket_size:
        If set, structure learning groups consecutive values into buckets of
        this many values.  ``None`` means the attribute is used un-bucketized.
    bucket_map:
        Explicit value-index -> bucket-index mapping.  Overrides
        ``bucket_size`` when provided (used e.g. for the education attribute
        whose buckets are semantic rather than uniform).
    """

    name: str
    attribute_type: AttributeType
    values: tuple = ()
    bucket_size: int | None = None
    bucket_map: tuple[int, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if len(self.values) == 0:
            raise ValueError(f"attribute {self.name!r} must have at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate values")
        if self.bucket_size is not None and self.bucket_size < 1:
            raise ValueError("bucket_size must be a positive integer")
        if self.bucket_map is not None:
            if len(self.bucket_map) != len(self.values):
                raise ValueError(
                    f"bucket_map of attribute {self.name!r} must map every value"
                )
            buckets = set(self.bucket_map)
            if buckets != set(range(len(buckets))):
                raise ValueError(
                    f"bucket_map of attribute {self.name!r} must use contiguous "
                    "bucket indices starting at 0"
                )

    @property
    def cardinality(self) -> int:
        """Number of distinct values the attribute can take."""
        return len(self.values)

    @property
    def bucketized_cardinality(self) -> int:
        """Number of buckets used for structure learning."""
        if self.bucket_map is not None:
            return max(self.bucket_map) + 1
        if self.bucket_size is None:
            return self.cardinality
        return int(np.ceil(self.cardinality / self.bucket_size))

    @cached_property
    def code_lookup(self) -> dict:
        """The value -> code mapping (built once, then cached)."""
        return {value: index for index, value in enumerate(self.values)}

    @cached_property
    def json_values(self) -> np.ndarray:
        """The JSON-native form (:func:`json_native`) of each value, by code."""
        return _object_array([json_native(value) for value in self.values])

    @cached_property
    def json_tokens(self) -> tuple[str, ...]:
        """``json.dumps`` of each JSON-native value, by code."""
        return tuple(json.dumps(value) for value in self.json_values)

    def encode(self, raw_values: Iterable) -> np.ndarray:
        """Encode raw values to integer codes (indices into ``values``)."""
        lookup = self.code_lookup
        try:
            return np.array([lookup[v] for v in raw_values], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(
                f"value {exc.args[0]!r} is not in the domain of attribute {self.name!r}"
            ) from None

    def decode(self, codes: np.ndarray) -> list:
        """Decode integer codes back to raw values."""
        arr = np.asarray(codes, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.cardinality):
            raise ValueError(
                f"codes out of range [0, {self.cardinality}) for attribute {self.name!r}"
            )
        return [self.values[int(code)] for code in arr]

    def bucketize(self, codes: np.ndarray) -> np.ndarray:
        """Map encoded values to (coarser) bucket indices for structure learning."""
        arr = np.asarray(codes, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.cardinality):
            raise ValueError(
                f"codes out of range [0, {self.cardinality}) for attribute {self.name!r}"
            )
        if self.bucket_map is not None:
            mapping = np.asarray(self.bucket_map, dtype=np.int64)
            return mapping[arr]
        if self.bucket_size is None:
            return arr.copy()
        return arr // self.bucket_size


class Schema:
    """An ordered collection of attributes describing a dataset."""

    def __init__(self, attributes: Sequence[Attribute]):
        if not attributes:
            raise ValueError("a schema needs at least one attribute")
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        self._attributes = tuple(attributes)
        self._index = {attribute.name: i for i, attribute in enumerate(attributes)}

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self):
        return iter(self._attributes)

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            return self._attributes[self.index_of(key)]
        return self._attributes[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __repr__(self) -> str:
        names = ", ".join(attribute.name for attribute in self._attributes)
        return f"Schema([{names}])"

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes, in column order."""
        return self._attributes

    @property
    def names(self) -> list[str]:
        """Attribute names in column order."""
        return [attribute.name for attribute in self._attributes]

    @property
    def cardinalities(self) -> list[int]:
        """Cardinality of each attribute, in column order."""
        return [attribute.cardinality for attribute in self._attributes]

    @property
    def bucketized_cardinalities(self) -> list[int]:
        """Bucketized cardinality of each attribute, in column order."""
        return [attribute.bucketized_cardinality for attribute in self._attributes]

    def index_of(self, name: str) -> int:
        """Column index of the attribute with the given name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"schema has no attribute named {name!r}") from None

    @property
    def code_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds every attribute's codes."""
        return np.min_scalar_type(max(self.cardinalities) - 1)

    def json_rows(self, codes: np.ndarray) -> list[list]:
        """Rows of codes decoded to their JSON-native values, one list per row."""
        cells = np.empty(codes.shape, dtype=object)
        for col, attribute in enumerate(self._attributes):
            cells[:, col] = attribute.json_values[codes[:, col]]
        return cells.tolist()

    def json_lines(self, codes: np.ndarray) -> str:
        """Rows of codes as JSON lines: ``json.dumps(row) + "\\n"`` per row.

        The text is byte-identical to dumping each row of :meth:`json_rows`
        with the default separators, but it is joined from per-column token
        tables (:meth:`_row_tokens`) in one pass instead of one
        ``json.dumps`` per row.
        """
        cells = np.empty(codes.shape, dtype=object)
        for col, tokens in enumerate(self._row_tokens):
            cells[:, col] = tokens[codes[:, col]]
        return "".join(cells.ravel().tolist())

    @cached_property
    def _row_tokens(self) -> list[np.ndarray]:
        """Per column, each code's JSON token with its row separators attached.

        The first column opens the row with ``[``, the others follow a
        ``", "`` and the last one closes the row with ``]`` and a newline, so
        a row's line is the plain concatenation of its cells' tokens.
        """
        last = len(self._attributes) - 1
        return [
            _object_array(
                [
                    ("[" if col == 0 else ", ") + token + ("]\n" if col == last else "")
                    for token in attribute.json_tokens
                ]
            )
            for col, attribute in enumerate(self._attributes)
        ]

    def possible_records(self) -> int:
        """Size of the record universe (product of cardinalities, Table 2)."""
        total = 1
        for attribute in self._attributes:
            total *= attribute.cardinality
        return total
