"""Array kernels for sign-vector tables and elimination scans.

The elimination scan is vectorized numpy: one pass over the table per
eliminator row, chunked so temporaries stay bounded on large tables.
``tests/test_kernels.py`` checks it against the brute-force oracles and
``benchmarks/bench_kernels.py`` times it.

Encoding: sign entries are int8 values -1, 0, +1. Total-sign rows may also
contain UNDETERMINED (2), the "u" entry that forbids any nonzero coordinate
in an eliminated vector.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: int8 code for the undetermined total-sign entry, serialized as "u".
UNDETERMINED = 2

# The scan materializes (rows x n) temporaries per eliminator; chunking keeps
# peak memory bounded on large tables.
_CHUNK_ROWS = 1 << 18


def backend_name() -> str:
    """Name of the scan implementation, reported in JSON output."""
    return "numpy"


# ---------------------------------------------------------------------------
# table generation (allocation-exact)
# ---------------------------------------------------------------------------


def _build_table(n: int) -> np.ndarray:
    """All canonical sign vectors of length n as an int8 array, fixed order.

    A vector is canonical when it is nonzero and its first nonzero entry is
    +1. Rows are ordered entrywise by 0 < +1 < -1 with the leading coordinate
    most significant, which is the base-3 counting order under the digit map
    0 -> 0, 1 -> +1, 2 -> -1 restricted to first-nonzero-digit-one numbers.
    The block of vectors whose first nonzero sits at position p is contiguous,
    so the table is assembled block-wise without filtering a 3**n buffer.
    """
    blocks = []
    for p in range(n - 1, -1, -1):
        width = n - p - 1
        count = 3**width
        block = np.zeros((count, n), dtype=np.int8)
        block[:, p] = 1
        if width:
            suffix = np.arange(count)
            for q in range(width):
                digits = (suffix // 3 ** (width - 1 - q)) % 3
                block[:, p + 1 + q] = np.where(digits == 2, -1, digits).astype(
                    np.int8
                )
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


@lru_cache(maxsize=16)
def _cached_table(n: int) -> np.ndarray:
    table = _build_table(n)
    table.setflags(write=False)
    return table


def sign_vector_table(n: int) -> np.ndarray:
    """Canonical sign vectors of length n, shape ((3**n - 1) // 2, n), int8.

    Cached (read-only view) for small n; built fresh above n = 12 so huge
    tables are not pinned in memory.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 12:
        return _cached_table(n)
    return _build_table(n)


# ---------------------------------------------------------------------------
# elimination scans
# ---------------------------------------------------------------------------
#
# Row s of `table` is eliminated by eliminator row t when:
#   * no index has t == u and s != 0,
#   * among indices with t in {-1, +1} and s != 0, the products t*s are all
#     +1 or all -1, and at least one such index exists.


def _single_mask(table: np.ndarray, row: np.ndarray) -> np.ndarray:
    undet_bad = ((row == UNDETERMINED) & (table != 0)).any(axis=1)
    shared = (row != 0) & (row != UNDETERMINED) & (table != 0)
    prod = table * row
    pos = (shared & (prod > 0)).any(axis=1)
    neg = (shared & (prod < 0)).any(axis=1)
    return ~undet_bad & (pos ^ neg)


def _reduce_masks(table: np.ndarray, elim: np.ndarray, every: bool) -> np.ndarray:
    """OR of the per-eliminator masks, or their AND when ``every`` is set."""
    combine = np.logical_and if every else np.logical_or
    out = np.zeros(table.shape[0], dtype=bool)
    for start in range(0, table.shape[0], _CHUNK_ROWS):
        chunk = table[start : start + _CHUNK_ROWS]
        acc = np.full(chunk.shape[0], every, dtype=bool)
        for row in elim:
            combine(acc, _single_mask(chunk, row), out=acc)
        out[start : start + _CHUNK_ROWS] = acc
    return out


def eliminated_any_mask(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """Mask over table rows eliminated by at least one eliminator row."""
    return _reduce_masks(table, elim, every=False)


def eliminated_all_mask(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """Mask over table rows eliminated by every eliminator row."""
    if elim.shape[0] == 0:
        raise ValueError("eliminator matrix must have at least one row")
    return _reduce_masks(table, elim, every=True)
