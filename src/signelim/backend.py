"""Array kernels for sign-vector tables and eliminated sets.

Two kernels compute which rows of the enumeration table(n) a set of sign
vectors eliminates. Each serves one job, named by the function its callers
call; ``tests/test_kernels.py`` checks both against the brute-force oracles.

* Eliminator rows, which may contain "u" (witness total signs, certificates,
  collision rows, covers, the set functions of ``signvec``): the scan. One
  per-row rule, ``_row_masks``, is evaluated for all eliminator rows of a
  call against a slice of the table at once, and one schedule, ``_blocks``,
  cuts only the table, into slices of about ``_CHUNK_ROWS`` eliminator-row
  pairs, so temporaries stay bounded on large tables; it costs about
  len(elim) * rows * n. Its two outputs pack each block: a set is a uint8
  row, one bit per table row in ``np.packbits`` order and zero past the
  table, so its size is its popcount (``unpacked`` gives its bool mask, for
  code that selects rows). ``eliminated_any_masks`` ORs the rows of each of
  a list of groups (the new row sets of one block of a sweep, or one group
  for ``eliminated_any_mask``); ``row_mask_bits`` keeps one set per row, for
  the certificate, the cover search and the joint count.
* The complement of the set a base point scores, unpacked per batch into a
  bool mask over table(n): the transform, ``_elimination_counts``. Let C+-
  be the members and their negations. For a sign vector s let f(s) count the
  members of C+- that on supp(s) are 0 or equal to s, and g(s) those that
  are 0 on supp(s). Then f(s) - g(s) is the number of members that
  eliminate s. f and g are Kronecker-product (Yates, fast zeta) transforms
  of C+-'s indicator on the grid of the 3**n base-3 codes, one 3 x 3 0/1
  matrix per axis; the indicator is the mask written at the members'
  cached canonical and negated codes. They cost about n * 3**n whatever the
  set's size. It takes a stack of sets, one grid each, transformed along a
  leading batch axis, and its callers stack at most ``_BATCH_CELLS`` grid
  cells. Members are canonical, so no "u" reaches the grid.

The transform needs no memory budget beyond the batch's. An int32 grid
takes 4 * 3**n bytes and table(n) takes n * (3**n - 1) / 2, so from n = 8
on a grid is no larger than the table, and from n = 9 on a batch holds one
grid. The transform holds about three grids and the two int64 code arrays
at once, a fixed multiple of 3**n bytes (a tracemalloc peak of 110 MB at
n = 14), so the length cap that bounds the table (``SIGNELIM_MAX_N``)
bounds the transform too.

Encoding: sign entries are int8 values -1, 0, +1. Total-sign rows may also
contain UNDETERMINED (2), the "u" entry that forbids any nonzero coordinate
in an eliminated vector. The base-3 code of a sign vector reads its entries
as digits 0 -> 0, +1 -> 1, -1 -> 2, the first entry most significant.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Sequence

import numpy as np

#: int8 code for the undetermined total-sign entry, serialized as "u".
UNDETERMINED = 2

# The scan materializes (eliminators x rows) int8 temporaries; table slices
# of at most this many cells, or of 8 rows where a call's eliminators alone
# exceed it, keep peak memory bounded on large tables.
_CHUNK_ROWS = 1 << 18

_BATCH_CELLS = 1 << 14
"""The cells of one batch or block: sets times 3**n grid cells in a batch of
the transform, int8 sign entries in a block of base points of the sweep,
table rows per side in a batch of the document's cross-check scan, and
(set, pair) rows in a pass of the counting module's union count. The scan
itself takes all its groups in one call; _CHUNK_ROWS bounds its blocks.

Derivation. Batching serves short tables, where a call's numpy overhead
outweighs its work; at n >= 9 a transform batch must hold one set, as one
call per set did before. The grid of n = 9 has 3**9 = 19,683 cells, and
2**14 is the largest power of two below it. At n = 5-6 (243-729 grid
cells) a batch still holds 22-67 masks, so an analysis of a gate of that
size makes one or a few transform calls. Batches of up to _CHUNK_ROWS cells
raised the peak RSS of analyze_gate on large gates, in a fresh process:
(3,)^5 with two outputs read 47.1 MB against 43.3 MB, and (2,)^9 with two
outputs 43.4 MB against 38.5 MB.
"""


def backend_name() -> str:
    """Name of the scan implementation, reported in JSON output."""
    return "numpy"


def _kept_up_to_12(build):
    """``build(n, *args)``, read-only, memoized for n <= 12, built afresh above.

    Above n = 12 a table or code array takes tens of megabytes, so it is
    not pinned in memory for the life of the process.
    """
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def get(n: int, *args) -> np.ndarray:
        out = cached(n, *args) if n <= 12 else build(n, *args)
        out.setflags(write=False)
        return out

    get.cache_info = cached.cache_info
    return get


# ---------------------------------------------------------------------------
# the enumeration and its base-3 codes
# ---------------------------------------------------------------------------


@_kept_up_to_12
def _canonical_index(n: int) -> np.ndarray:
    """The base-3 codes of the canonical sign vectors of length n, ascending.

    A vector is canonical when it is nonzero and its first nonzero entry is
    +1: its code's first nonzero digit is 1. With w digits after that one,
    the codes run from 3**w to 2 * 3**w - 1.
    """
    return np.concatenate([np.arange(3**w, 2 * 3**w) for w in range(n)])


@_kept_up_to_12
def _negated_index(n: int) -> np.ndarray:
    """The base-3 codes of the negations of table(n)'s rows, in table order.

    Negation swaps the digits 1 and 2, so the row with code 3**w + r, r < 3**w,
    negates to 2 * 3**w + swap(r). swap over all w-digit numbers grows one
    leading digit at a time: a leading 0, 1 or 2 becomes 0, 2 or 1.
    """
    swap = np.zeros(1, dtype=np.int64)
    blocks = []
    for w in range(n):
        blocks.append(2 * 3**w + swap)
        swap = np.concatenate((swap, swap + 2 * 3**w, swap + 3**w))
    return np.concatenate(blocks)


@_kept_up_to_12
def sign_vector_table(n: int) -> np.ndarray:
    """Canonical sign vectors of length n, shape ((3**n - 1) // 2, n), int8.

    Rows are in ascending order of their base-3 codes, _canonical_index(n):
    entrywise by 0 < +1 < -1 with the leading coordinate most significant.
    The block of 3**w rows whose leading +1 sits in column n - 1 - w is
    written in place: column n - 1 - k after it cycles 0, +1, -1, each held
    for 3**k rows. Read-only, and cached for n <= 12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = np.zeros(((3**n - 1) // 2, n), dtype=np.int8)
    for w in range(n):
        block = table[3**w // 2 : 3**w // 2 + 3**w]
        block[:, n - 1 - w] = 1
        for k in range(w):
            block[:, n - 1 - k].reshape(-1, 3, 3**k)[:, 1:] = [[1], [-1]]
    return table


def _base3_index(rows: np.ndarray) -> np.ndarray:
    """The base-3 code of each row of a sign matrix, as int64."""
    n = rows.shape[1]
    return (rows % 3).astype(np.int64) @ (3 ** np.arange(n - 1, -1, -1, dtype=np.int64))


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


def _blocks(table: np.ndarray, elim: np.ndarray):
    """Yield (i, _row_masks(table[i], elim)) for slices i over the table.

    The one block schedule of the scan: every block holds all of the call's
    eliminators against a slice of the table whose length is a multiple of
    8, so at most max(_CHUNK_ROWS, 8 * len(elim)) pairs, and every slice
    but the table's last packs to whole bytes. Without eliminators it yields
    nothing.
    """
    if elim.shape[0]:
        width = max(8, _CHUNK_ROWS // elim.shape[0] // 8 * 8)
        for start in range(0, table.shape[0], width):
            i = slice(start, start + width)
            yield i, _row_masks(table[i], elim)


def _batches(cells: Sequence[int]):
    """Split items into runs whose cells sum to at most _BATCH_CELLS.

    Yields (start, stop) over consecutive items, in order; an item larger
    than the budget makes a run of its own, so every run holds one item at
    least.
    """
    start, total = 0, 0
    for k, size in enumerate(cells):
        if k > start and total + size > _BATCH_CELLS:
            yield start, k
            start, total = k, 0
        total += size
    if cells:
        yield start, len(cells)


def eliminated_any_masks(table: np.ndarray, groups: Sequence[np.ndarray]) -> np.ndarray:
    """Row g: the table rows eliminated by some row of groups[g], packed.

    All groups' rows make one eliminator matrix, cut by _blocks, whose every
    block holds all of them; in a block, a group's union is the OR of its
    rows' packed bits, one bitwise_or.reduceat over the groups' first rows.
    A group without rows eliminates nothing and stays out of the reduceat,
    which would give it a row.
    """
    out = np.zeros((len(groups), (table.shape[0] + 7) // 8), dtype=np.uint8)
    sizes = np.array([group.shape[0] for group in groups], dtype=np.intp)
    live = np.flatnonzero(sizes)
    if live.size:
        firsts = (np.cumsum(sizes) - sizes)[live]
        for i, block in _blocks(table, np.concatenate(groups)):
            out[live, i.start // 8 : i.stop // 8] = np.bitwise_or.reduceat(np.packbits(block, axis=1), firsts)
    return out


def eliminated_any_mask(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """The table rows eliminated by at least one eliminator row, packed."""
    return eliminated_any_masks(table, [elim])[0]


def unpacked(bits: np.ndarray, rows: int) -> np.ndarray:
    """The bool mask over ``rows`` table rows of each packed row of ``bits``."""
    return np.unpackbits(bits, axis=-1, count=rows).view(bool)


def row_mask_bits(table: np.ndarray, elim: np.ndarray) -> np.ndarray:
    """Row k: the table rows eliminator row k eliminates, packed."""
    out = np.empty((elim.shape[0], (table.shape[0] + 7) // 8), dtype=np.uint8)
    for i, block in _blocks(table, elim):
        out[:, i.start // 8 : i.stop // 8] = np.packbits(block, axis=1)
    return out


def _axis_transform(grid: np.ndarray, n: int, conformal: bool) -> np.ndarray:
    """Apply a 3 x 3 0/1 matrix along every axis of flat 3**n count grids.

    ``grid`` is one grid or a stack of them shaped (batch, 3**n), and the
    result has its shape. Output digit 0 (s_i = 0) sums every member digit.
    Output digits 1 and 2 (s_i = +1, -1) take member digit 0, plus, when
    ``conformal`` (f), the digit of the same sign. Axes go first to last
    (Yates' algorithm), so the result is indexed like the input, by base-3
    code.
    """
    shape = grid.shape
    for axis in range(n):
        # the batch axis and the axes before this one merge into the first
        x = grid.reshape(-1, 3, 3 ** (n - 1 - axis))
        grid = np.empty_like(x)
        np.add(x[:, 0], x[:, 1], out=grid[:, 0])
        grid[:, 0] += x[:, 2]
        if conformal:
            np.add(x[:, :1], x[:, 1:], out=grid[:, 1:])
        else:
            grid[:, 1:] = x[:, :1]
    return grid.reshape(shape)


def _elimination_counts(n: int, members: np.ndarray) -> np.ndarray:
    """Per set and row of table(n), how many members of the set eliminate it.

    ``members`` is a stack of boolean masks over table(n), shaped (sets,
    rows), and so is the result. With C+- a set's members and their
    negations, the count is f(s) - g(s): a member t eliminates s exactly
    when one of t, -t is conformal to s on supp(s) with a nonzero there,
    which is what f counts beyond g. A canonical code and a negated one
    never coincide, so C+-'s indicator is the masks written at both codes.
    Counts stay below 3**n, within int32 for every n whose table fits in
    memory.
    """
    # both code arrays before the grid: above n = 12 they are built afresh,
    # and a build next to the grid would raise the peak
    canonical, negated = _canonical_index(n), _negated_index(n)
    grid = np.zeros((members.shape[0], 3**n), dtype=np.int32)
    grid[:, canonical] = members
    grid[:, negated] = members
    del negated  # not held through the transforms
    f = _axis_transform(grid, n, conformal=True)
    g = _axis_transform(grid, n, conformal=False)
    return f[:, canonical] - g[:, canonical]
