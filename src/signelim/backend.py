"""Array kernels for sign-vector tables and elimination masks.

Two kernels compute which table rows an eliminator matrix eliminates; both
return the same masks and ``tests/test_kernels.py`` checks them against the
brute-force oracles.

* The scan: one per-row rule, ``_row_masks``, evaluated for a block of
  eliminator rows against a block of table rows at once (a per-coordinate
  product and its running maximum and minimum, so the temporaries are a few
  eliminators x rows int8 arrays), then OR-ed or AND-ed over the
  eliminators. Blocks hold at most ``_CHUNK_ROWS`` eliminator-row pairs, so
  temporaries stay bounded on large tables. It costs about
  len(elim) * rows * n.
* The transform: let C+- be the eliminator rows together with their
  negations (-u = u), as a multiset. For a sign vector s let f(s) count the
  members that on supp(s) are 0 or equal to s (so u only where s is 0), and
  g(s) those that are 0 on supp(s). Then f(s) - g(s) is the number of
  eliminator rows that eliminate s, so the any-mask is f - g > 0 and the
  all-mask is f - g == len(elim). f and g are Kronecker-product (Yates, fast
  zeta) transforms of C+-'s indicator on a k**n grid, k = 4 when a u entry
  is present and 3 otherwise, with one 3 x k 0/1 matrix per axis; the
  indicator is one ``np.bincount`` of the members' grid cells. They cost
  about n * k**n whatever the eliminator count.

``eliminated_any_mask`` and ``eliminated_all_mask`` take the transform when a
fixed cost model of the two, fed by the table's and the eliminator matrix's
sizes, rates it cheaper, and never when its grid exceeds a fixed cell budget,
so peak memory stays bounded at every n. A single eliminator row always
takes the scan. ``benchmarks/bench_kernels.py`` times both paths. Callers
that need one mask per eliminator row (the certificate's mask matrix, the
cover search's member masks) call ``_row_masks`` directly, in bounded
blocks.

Encoding: sign entries are int8 values -1, 0, +1. Total-sign rows may also
contain UNDETERMINED (2), the "u" entry that forbids any nonzero coordinate
in an eliminated vector.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: int8 code for the undetermined total-sign entry, serialized as "u".
UNDETERMINED = 2

# The scan materializes (eliminators x rows) int8 temporaries; blocks of at
# most this many cells keep peak memory bounded on large tables.
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
# elimination kernels
# ---------------------------------------------------------------------------
#
# Row s of `table` is eliminated by eliminator row t when:
#   * no index has t == u and s != 0,
#   * among indices with t in {-1, +1} and s != 0, the products t*s are all
#     +1 or all -1, and at least one such index exists.


def _row_masks(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """Mask [k, i]: whether eliminator row k eliminates table row i.

    Per coordinate take the product p = t * s, where u * s is +-2 for s != 0.
    Then t eliminates s exactly when max(0, p) - min(0, p) == 1 over the
    coordinates: the products are all in {0, 1} or all in {0, -1}, some are
    nonzero, and no u meets a nonzero of s. The temporaries are a few int8
    arrays of the output's (len(elim), rows) shape.
    """
    shape = (elim.shape[0], table.shape[0])
    hi = np.zeros(shape, dtype=np.int8)
    lo = np.zeros(shape, dtype=np.int8)
    for j in range(table.shape[1]):
        prod = np.multiply.outer(elim[:, j], table[:, j])
        np.maximum(hi, prod, out=hi)
        np.minimum(lo, prod, out=lo)
    hi -= lo
    return hi == 1


def _scan_masks(table: np.ndarray, elim: np.ndarray, every: bool) -> np.ndarray:
    """OR of the per-eliminator masks, or their AND when ``every`` is set.

    Reduces _row_masks over blocks of at most _CHUNK_ROWS eliminator-row
    pairs (or one table row against _CHUNK_ROWS eliminators).
    """
    combine = np.logical_and if every else np.logical_or
    out = np.full(table.shape[0], every, dtype=bool)
    step = max(1, min(elim.shape[0], _CHUNK_ROWS))
    width = max(1, _CHUNK_ROWS // step)
    for start in range(0, table.shape[0], width):
        acc = out[start : start + width]
        for first in range(0, elim.shape[0], step):
            masks = _row_masks(table[start : start + width], elim[first : first + step])
            combine(acc, masks.all(axis=0) if every else masks.any(axis=0), out=acc)
    return out


# Transform digits of an eliminator entry, indexed by the int8 code mod 4:
# 0 -> 0, +1 -> 1, u (2) -> 3, -1 (3 mod 4) -> 2. Digits 0-2 of a table row
# are its own base-3 digits, so the transform's output grid is indexed like
# the table. _NEGATED maps the digit of t_i to the digit of -t_i.
_DIGIT = np.array([0, 1, 3, 2], dtype=np.int64)
_NEGATED = np.array([0, 2, 1, 3], dtype=np.int64)


def _axis_transform(grid: np.ndarray, n: int, k: int, conformal: bool) -> np.ndarray:
    """Apply a 3 x k 0/1 matrix along every axis of a flat k**n count grid.

    Output digit 0 (s_i = 0) sums every eliminator digit. Output digits 1 and
    2 (s_i = +1, -1) take eliminator digit 0, plus, when ``conformal`` (f),
    the digit of the same sign. Axes go first to last, each step turning one
    k-axis into a 3-axis while the others keep their C-order place (Yates'
    algorithm), so the result is the flat 3**n grid indexed like the table.
    """
    for axis in range(n):
        x = grid.reshape(3**axis, k, k ** (n - 1 - axis))
        grid = np.empty((3**axis, 3, k ** (n - 1 - axis)), dtype=np.int32)
        np.add(x[:, 0], x[:, 1], out=grid[:, 0])
        for digit in range(2, k):
            grid[:, 0] += x[:, digit]
        if conformal:
            np.add(x[:, :1], x[:, 1:3], out=grid[:, 1:])
        else:
            grid[:, 1:] = x[:, :1]
    return grid.reshape(-1)


@lru_cache(maxsize=16)
def _canonical_index(n: int) -> np.ndarray:
    return _base3_index(_cached_table(n))


def _base3_index(table: np.ndarray) -> np.ndarray:
    n = table.shape[1]
    return (table % 3).astype(np.int64) @ (3 ** np.arange(n - 1, -1, -1, dtype=np.int64))


def _elimination_counts(table: np.ndarray, elim: np.ndarray, has_u: bool) -> np.ndarray:
    """Per table row, how many rows of ``elim`` eliminate it (transform path).

    With C+- the multiset of eliminator rows and their negations, the count
    is f(s) - g(s): each row t eliminates s exactly when one of t, -t is
    conformal to s on supp(s) with a nonzero there, which is what f counts
    beyond g. Counts stay below 2 * len(elim) < 2**31.
    """
    n = table.shape[1]
    k = 4 if has_u else 3
    digits = _DIGIT[elim % 4]
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    cells = np.concatenate((digits @ powers, _NEGATED[digits] @ powers))
    grid = np.bincount(cells, minlength=k**n).astype(np.int32)
    f = _axis_transform(grid, n, k, conformal=True)
    g = _axis_transform(grid, n, k, conformal=False)
    if n <= 12 and table is _cached_table(n):
        index = _canonical_index(n)
    else:
        index = _base3_index(table)
    return f[index] - g[index]


# Dispatch cost model, in microseconds, fitted to timings of both paths on a
# shared 2-core x86-64 VM (benchmarks/bench_kernels.py times them side by
# side). The scan pays a fixed numpy overhead per eliminator row plus work per
# table cell; the transform pays a fixed overhead, an overhead per axis and
# work per grid cell it writes. Grids above _GRID_BUDGET cells always take the
# chunked scan, which bounds the transform's memory at every n.
_SCAN_ROW_US = 40.0
_SCAN_CELL_US = 0.013
_TRANSFORM_US = 20.0
_TRANSFORM_AXIS_US = 20.0
_TRANSFORM_CELL_US = 0.005
_GRID_BUDGET = 1 << 22


def _use_transform(rows: int, n: int, count: int, has_u: bool) -> bool:
    """Whether the transform is cheaper than the scan for these sizes.

    One row always takes the scan: the model rates the transform cheaper for
    it on the full table at n = 9 to 13, where its grids leave the cache.
    """
    k = 4 if has_u else 3
    if count < 2 or k**n > _GRID_BUDGET:
        return False
    written = sum(3 ** (axis + 1) * k ** (n - 1 - axis) for axis in range(n))
    scan = count * (_SCAN_ROW_US + _SCAN_CELL_US * rows * n)
    transform = _TRANSFORM_US + _TRANSFORM_AXIS_US * n + _TRANSFORM_CELL_US * written
    return transform < scan


def _masks(table: np.ndarray, elim: np.ndarray, every: bool) -> np.ndarray:
    has_u = bool((elim == UNDETERMINED).any())
    if _use_transform(table.shape[0], table.shape[1], elim.shape[0], has_u):
        counts = _elimination_counts(table, elim, has_u)
        return counts == elim.shape[0] if every else counts > 0
    return _scan_masks(table, elim, every)


def eliminated_any_mask(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """Mask over table rows eliminated by at least one eliminator row."""
    return _masks(table, elim, every=False)


def eliminated_all_mask(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """Mask over table rows eliminated by every eliminator row."""
    if elim.shape[0] == 0:
        raise ValueError("eliminator matrix must have at least one row")
    return _masks(table, elim, every=True)
