"""One-pass pairwise contingency statistics for discrete data.

The CFS structure learner (Section 3.3) needs the joint distribution of every
attribute pair.  Computing each pair's contingency table independently costs
~m² full passes over the dataset; this module shares a single scan instead:
the dataset is encoded once into a one-hot indicator matrix X (one column per
(attribute, value) combination) and the Gram product X.T @ X then contains
*every* pairwise contingency table at once — block (i, j) of the Gram matrix
is exactly the (cardinality_i x cardinality_j) joint count table of attributes
i and j, and the diagonal of block (i, i) holds attribute i's marginal counts.

Three interchangeable backends compute the product, all returning bit-identical
integer counts:

* ``"dense"`` — chunked float32 one-hot blocks multiplied with BLAS and
  accumulated into a float64 Gram (exact: every partial count stays far below
  2^24, every total below 2^53).  Fastest for the moderate total domain sizes
  typical of the paper's datasets; needs only numpy.
* ``"sparse"`` — a scipy CSR indicator (m non-zeros per row) and one
  sparse-sparse matmul.  Its cost is independent of the domain sizes, so it
  wins when the summed cardinalities grow large.
* ``"bincount"`` — per attribute j, the combined codes
  ``(offset_k + value_k) * card_j + value_j`` of all columns k are counted in
  one raveled chunked ``np.bincount``, filling attribute j's Gram column
  block.  The no-scipy fallback for large domains.

``method=None`` auto-selects: dense for small Gram shapes, then sparse when
scipy is available, bincount otherwise.

:class:`CrossPairwiseStats` generalizes the product to two different column
sets (Gram A.T @ B), which lets the structure learner compute only the
raw x bucketized and bucketized x bucketized quadrants it actually needs.

All marginal and joint entropies can then be derived from the Gram matrix with
vectorized numpy (probability-weighted log2 summed per block via
``np.add.reduceat``) — the raw records are never rescanned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairwiseStats",
    "CrossPairwiseStats",
    "block_entropy",
    "pairwise_entropies",
    "scipy_available",
]

_METHODS = ("dense", "sparse", "bincount")

# Auto-select the dense BLAS backend while the Gram matrix stays below this
# many cells; beyond it the n x (total_a x total_b) multiply outgrows the
# domain-size-independent sparse/bincount sweeps.
_DENSE_CELL_LIMIT = 1 << 18

# Row-chunk cap for the float32 dense backend: per-chunk partial counts must
# stay exactly representable in float32 (< 2^24).
_DENSE_CHUNK_CAP = 1 << 20


def _scipy_sparse():
    """``scipy.sparse``, imported on first use (None without scipy).

    The import stays out of module load so that processes which never
    compute a Gram matrix, such as engine workers, do not pay for scipy.
    """
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover
        return None
    return sparse


def scipy_available() -> bool:
    """Whether the sparse (scipy) Gram backend can be used."""
    return _scipy_sparse() is not None


def _validate_matrix(matrix: np.ndarray, cardinalities: tuple[int, ...]) -> np.ndarray:
    data = np.asarray(matrix)
    if data.ndim != 2:
        raise ValueError(f"matrix must be 2-D (rows x attributes), got shape {data.shape}")
    if data.shape[1] != len(cardinalities):
        raise ValueError(
            f"matrix has {data.shape[1]} columns but {len(cardinalities)} "
            "cardinalities were given"
        )
    if any(card < 1 for card in cardinalities):
        raise ValueError("every cardinality must be at least 1")
    data = data.astype(np.int64, copy=False)
    if data.size:
        mins = data.min(axis=0)
        maxs = data.max(axis=0)
        for col, card in enumerate(cardinalities):
            if mins[col] < 0 or maxs[col] >= card:
                raise ValueError(
                    f"column {col} contains codes outside [0, {card})"
                )
    return data


def _offsets(cardinalities: tuple[int, ...]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(cardinalities)]).astype(np.int64)


def _resolve_method(method: str | None, total_a: int, total_b: int) -> str:
    if method is not None:
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS} or None, got {method!r}")
        if method == "sparse" and not scipy_available():
            raise RuntimeError("scipy is not available; use the dense or bincount method")
        return method
    if total_a * total_b <= _DENSE_CELL_LIMIT:
        return "dense"
    return "sparse" if scipy_available() else "bincount"


def _csr_indicator(shifted: np.ndarray, total: int):
    num_records, num_attributes = shifted.shape
    indptr = np.arange(0, num_records * num_attributes + 1, num_attributes)
    data = np.ones(num_records * num_attributes, dtype=np.int64)
    return _scipy_sparse().csr_matrix((data, shifted.ravel(), indptr), shape=(num_records, total))


def _cross_gram_sparse(
    data_a: np.ndarray, offsets_a: np.ndarray, data_b: np.ndarray, offsets_b: np.ndarray
) -> np.ndarray:
    """A.T @ B via scipy CSR one-hot indicators."""
    total_a = int(offsets_a[-1])
    total_b = int(offsets_b[-1])
    left = _csr_indicator(data_a + offsets_a[:-1][None, :], total_a)
    right = (
        left
        if data_b is data_a and np.array_equal(offsets_a, offsets_b)
        else _csr_indicator(data_b + offsets_b[:-1][None, :], total_b)
    )
    return np.asarray((left.T @ right).todense(), dtype=np.int64)


def _cross_gram_dense(
    data_a: np.ndarray,
    offsets_a: np.ndarray,
    data_b: np.ndarray,
    offsets_b: np.ndarray,
    chunk_size: int,
) -> np.ndarray:
    """A.T @ B accumulated from chunked float32 one-hot BLAS products.

    Exact despite the float32 one-hot blocks: per-chunk partial counts stay
    below 2^24 (the chunk size is capped) and the float64 accumulator is
    exact below 2^53.
    """
    num_records = data_a.shape[0]
    total_a = int(offsets_a[-1])
    total_b = int(offsets_b[-1])
    chunk = min(chunk_size, _DENSE_CHUNK_CAP)
    gram = np.zeros((total_a, total_b), dtype=np.float64)
    for start in range(0, num_records, chunk):
        stop = min(start + chunk, num_records)
        rows = np.arange(stop - start)[:, None]
        left = np.zeros((stop - start, total_a), dtype=np.float32)
        left[rows, data_a[start:stop] + offsets_a[:-1]] = 1.0
        if data_b is data_a and np.array_equal(offsets_a, offsets_b):
            right = left
        else:
            right = np.zeros((stop - start, total_b), dtype=np.float32)
            right[rows, data_b[start:stop] + offsets_b[:-1]] = 1.0
        gram += left.T @ right
    return np.rint(gram).astype(np.int64)


def _cross_gram_bincount(
    data_a: np.ndarray,
    offsets_a: np.ndarray,
    data_b: np.ndarray,
    cardinalities_b: tuple[int, ...],
    chunk_size: int,
) -> np.ndarray:
    """A.T @ B accumulated from one chunked raveled bincount per B attribute."""
    num_records = data_a.shape[0]
    total_a = int(offsets_a[-1])
    total_b = int(sum(cardinalities_b))
    offsets_b = _offsets(cardinalities_b)
    gram = np.zeros((total_a, total_b), dtype=np.int64)
    for attribute, card in enumerate(cardinalities_b):
        card = int(card)
        block = np.zeros(total_a * card, dtype=np.int64)
        for start in range(0, num_records, chunk_size):
            stop = min(start + chunk_size, num_records)
            codes = (data_a[start:stop] + offsets_a[:-1]) * card + data_b[
                start:stop, attribute : attribute + 1
            ]
            block += np.bincount(codes.ravel(), minlength=total_a * card)
        gram[:, offsets_b[attribute] : offsets_b[attribute + 1]] = block.reshape(
            total_a, card
        )
    return gram


@dataclass
class CrossPairwiseStats:
    """Every (A attribute x B attribute) contingency table from one shared scan.

    ``gram[row_offsets[i]:row_offsets[i+1], col_offsets[j]:col_offsets[j+1]]``
    is the joint count table of A attribute i against B attribute j.
    """

    row_cardinalities: tuple[int, ...]
    col_cardinalities: tuple[int, ...]
    row_offsets: np.ndarray
    col_offsets: np.ndarray
    gram: np.ndarray
    num_records: int

    @classmethod
    def from_matrices(
        cls,
        matrix_a: np.ndarray,
        cardinalities_a: list[int] | tuple[int, ...],
        matrix_b: np.ndarray,
        cardinalities_b: list[int] | tuple[int, ...],
        method: str | None = None,
        chunk_size: int = 8192,
        validate: bool = True,
    ) -> "CrossPairwiseStats":
        """Compute the rectangular Gram product A.T @ B of two encodings.

        Both matrices must describe the same records (equal row counts).
        ``method`` picks the backend (``"dense"``, ``"sparse"``,
        ``"bincount"`` or ``None`` for auto-selection by Gram size).
        ``validate=False`` skips the per-column range scan for callers whose
        data is already invariant-checked (e.g. comes out of a
        :class:`~repro.datasets.dataset.Dataset`).
        """
        cards_a = tuple(int(card) for card in cardinalities_a)
        cards_b = tuple(int(card) for card in cardinalities_b)
        if validate:
            data_a = _validate_matrix(matrix_a, cards_a)
            data_b = (
                data_a
                if matrix_b is matrix_a and cards_b == cards_a
                else _validate_matrix(matrix_b, cards_b)
            )
        else:
            data_a = np.asarray(matrix_a).astype(np.int64, copy=False)
            data_b = (
                data_a
                if matrix_b is matrix_a and cards_b == cards_a
                else np.asarray(matrix_b).astype(np.int64, copy=False)
            )
        if data_a.shape[0] != data_b.shape[0]:
            raise ValueError("both matrices must describe the same records")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        total_a = int(sum(cards_a))
        total_b = int(sum(cards_b))
        offsets_a = _offsets(cards_a)
        offsets_b = _offsets(cards_b)

        resolved = _resolve_method(method, total_a, total_b)
        if resolved == "sparse":
            gram = _cross_gram_sparse(data_a, offsets_a, data_b, offsets_b)
        elif resolved == "dense":
            gram = _cross_gram_dense(data_a, offsets_a, data_b, offsets_b, chunk_size)
        else:
            gram = _cross_gram_bincount(data_a, offsets_a, data_b, cards_b, chunk_size)
        return cls(
            row_cardinalities=cards_a,
            col_cardinalities=cards_b,
            row_offsets=offsets_a,
            col_offsets=offsets_b,
            gram=gram,
            num_records=data_a.shape[0],
        )

    def table(self, i: int, j: int) -> np.ndarray:
        """The contingency table of A attribute i against B attribute j."""
        rows = slice(self.row_offsets[i], self.row_offsets[i + 1])
        cols = slice(self.col_offsets[j], self.col_offsets[j + 1])
        return self.gram[rows, cols]


@dataclass
class PairwiseStats:
    """All pairwise contingency tables of one encoding, from one shared scan.

    Parameters
    ----------
    cardinalities:
        Per-attribute domain sizes.
    offsets:
        Prefix sums of the cardinalities: attribute i owns Gram rows/columns
        ``offsets[i]:offsets[i + 1]``.
    gram:
        The (total x total) integer Gram matrix X.T @ X of the one-hot
        encoding; block (i, j) is the joint count table of attributes i, j.
    num_records:
        Number of encoded records the statistics were computed from.
    """

    cardinalities: tuple[int, ...]
    offsets: np.ndarray
    gram: np.ndarray
    num_records: int

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        cardinalities: list[int] | tuple[int, ...],
        method: str | None = None,
        chunk_size: int = 8192,
    ) -> "PairwiseStats":
        """Compute every pairwise contingency table in one pass.

        Parameters
        ----------
        matrix:
            Integer-encoded data, one row per record and one column per
            attribute, values in ``[0, cardinality)``.
        cardinalities:
            Domain size of each column.
        method:
            Gram backend: ``"dense"``, ``"sparse"``, ``"bincount"`` or
            ``None`` to auto-select.
        chunk_size:
            Row-chunk size of the dense/bincount backends (bounds their peak
            memory).
        """
        cross = CrossPairwiseStats.from_matrices(
            matrix, cardinalities, matrix, cardinalities, method=method, chunk_size=chunk_size
        )
        return cls(
            cardinalities=cross.row_cardinalities,
            offsets=cross.row_offsets,
            gram=cross.gram,
            num_records=cross.num_records,
        )

    @property
    def num_attributes(self) -> int:
        """Number of attributes the statistics cover."""
        return len(self.cardinalities)

    def table(self, i: int, j: int) -> np.ndarray:
        """The (cardinality_i x cardinality_j) contingency table of (i, j).

        For ``i == j`` the block is ``diag(marginal counts)`` — records always
        agree with themselves — so use :meth:`marginal` for marginals.
        """
        rows = slice(self.offsets[i], self.offsets[i + 1])
        cols = slice(self.offsets[j], self.offsets[j + 1])
        return self.gram[rows, cols]

    def marginal(self, i: int) -> np.ndarray:
        """Marginal counts of attribute i (diagonal of the (i, i) block)."""
        return np.diagonal(self.table(i, i)).copy()

    def entropies(self) -> np.ndarray:
        """Every marginal and joint Shannon entropy (bits), vectorized.

        Returns an (m x m) matrix H with ``H[i, j] = H(x_i, x_j)`` for
        ``i != j`` and ``H[i, i] = H(x_i)`` (the diagonal blocks of the Gram
        matrix are diagonal, so their block entropy *is* the marginal
        entropy).

        The batched reduceat reduction sums probabilities in a different
        order than :func:`~repro.stats.entropy.entropy_from_counts`, so
        values may differ from the per-pair loop by ~1 ulp; use
        :func:`block_entropy` on individual :meth:`table` blocks when
        bit-exact parity with the loop matters.
        """
        if self.num_records == 0:
            return np.zeros((self.num_attributes, self.num_attributes))
        probabilities = self.gram / float(self.num_records)
        plogp = np.zeros_like(probabilities)
        positive = probabilities > 0
        np.log2(probabilities, out=plogp, where=positive)
        plogp *= probabilities
        starts = self.offsets[:-1]
        block_sums = np.add.reduceat(np.add.reduceat(plogp, starts, axis=0), starts, axis=1)
        return np.maximum(-block_sums, 0.0)

    def exact_entropies(self) -> np.ndarray:
        """Like :meth:`entropies`, but bit-identical to the per-pair loop.

        Applies :func:`block_entropy` to every Gram block, reproducing the
        reference float pipeline exactly (at some per-block Python overhead).
        This is the variant to use when downstream decisions tie-break on
        exactly equal values — ulp-level differences from the reduceat
        reduction are enough to flip learned structures (see
        :mod:`repro.generative.structure`).
        """
        m = self.num_attributes
        result = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                # Both orientations are reduced independently: H(x_i, x_j)
                # and H(x_j, x_i) are equal mathematically but their blocks
                # ravel in different orders, and matching the loop bit for
                # bit requires summing in the loop's order for each entry.
                block = self.marginal(i) if i == j else self.table(i, j)
                result[i, j] = block_entropy(block)
        return result


def block_entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of one count block, bit-identical to the loop.

    Performs exactly the float operations of
    :func:`repro.stats.entropy.entropy_from_counts` (normalize, compact the
    positive probabilities, ``-np.sum(p * log2(p))``) without its input
    validation, so entropies derived from Gram blocks match the per-pair
    reference loop to the last bit.
    """
    arr = np.asarray(counts, dtype=np.float64).ravel()
    total = arr.sum()
    if total <= 0:
        return 0.0
    probs = arr / total
    positive = probs[probs > 0]
    return float(-np.sum(positive * np.log2(positive)))


def pairwise_entropies(
    matrix: np.ndarray,
    cardinalities: list[int] | tuple[int, ...],
    method: str | None = None,
) -> np.ndarray:
    """Marginal/joint entropy matrix of an encoded data matrix (one scan)."""
    return PairwiseStats.from_matrix(matrix, cardinalities, method=method).entropies()
