"""Eliminating covers: sets of canonical vectors that eliminate everything.

A set X of canonical sign vectors of length n is an eliminating cover when
the union of its eliminated sets is the full canonical enumeration. Covers
form an upward-closed family; the minimal ones are those that stop covering
after removing any single member (single removal suffices because eliminated
sets grow monotonically with X), that is, those where every member alone
eliminates some vector. Each member's eliminated set is held as the scan's
packed row over table(n), one bit per vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from . import backend
from .counting import SignMatrix
from .errors import DomainError, check_cap
from .gates import parse_rational_vector
from .signvec import (
    _check_length,
    as_fraction_dot,
    canonicalize,
    eliminates,
    sign_rows,
    table,
    vector_count,
)

__all__ = [
    "CoverReport",
    "DEFAULT_SEARCH_CAP",
    "ENV_SEARCH_CAP",
    "is_eliminating_cover",
    "is_minimal_cover",
    "full_support_vectors",
    "unit_vectors",
    "column_rank",
    "minimal_covers",
    "cover_reports",
    "orthogonality_implication_holds",
    "describe_cover",
    "covered_fraction",
]

DEFAULT_SEARCH_CAP = 200_000
ENV_SEARCH_CAP = "SIGNELIM_SEARCH_CAP"

# Bytes per chunk of the cover search: a combination of k members takes k
# 8-byte indices and k gathered masks.
_CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class CoverReport:
    """Judgement about one candidate cover.

    is_minimal is None when the set is not a cover.
    """

    members: tuple[tuple[int, ...], ...]
    n: int
    is_cover: bool
    is_minimal: Optional[bool]
    column_rank: int


def _judge(members: np.ndarray, count: int):
    """(packed union, is_cover, is_minimal) of each set of member masks.

    ``members`` has shape (sets, k, bytes): k rows of backend.row_mask_bits
    per set, over ``count`` vectors. A cover is minimal when every member
    alone eliminates some vector. One pass over the members tracks the
    vectors eliminated once and those eliminated twice; a member is needed
    when it eliminates a vector outside the second.
    """
    once = np.zeros_like(members[:, 0])
    twice = np.zeros_like(once)
    for j in range(members.shape[1]):
        twice |= once & members[:, j]
        once |= members[:, j]
    covers = np.bitwise_count(once).sum(axis=1) == count  # no bit past the table is set
    minimal = covers & (members & ~twice[:, None]).any(axis=2).all(axis=1)
    return once, covers, minimal


def _judge_set(X: Iterable[Sequence[int]], n: int):
    """(members, packed union, is_cover, is_minimal) of one candidate set."""
    rows = sign_rows(X, n)
    if not rows:
        raise DomainError("a candidate cover must be nonempty")
    masks = backend.row_mask_bits(table(n), np.array(rows, dtype=np.int8))
    union, covers, minimal = _judge(masks[None], vector_count(n))
    return rows, union[0], bool(covers[0]), bool(minimal[0])


def is_eliminating_cover(X: Iterable[Sequence[int]], n: int) -> bool:
    """Whether X eliminates every canonical vector of length n."""
    _, _, covers, _ = _judge_set(X, n)
    return covers


def is_minimal_cover(X: Iterable[Sequence[int]], n: int) -> bool:
    """Whether X is a cover that stops covering after any single removal."""
    _, _, covers, minimal = _judge_set(X, n)
    if not covers:
        raise DomainError("is_minimal_cover requires an eliminating cover")
    return minimal


def full_support_vectors(n: int) -> frozenset[tuple[int, ...]]:
    """The 2**(n-1) canonical vectors with no zero entries."""
    _check_length(n)
    out = []
    for bits in range(2 ** (n - 1)):
        vec = [1]
        for i in range(n - 1):
            vec.append(1 if (bits >> (n - 2 - i)) & 1 == 0 else -1)
        out.append(tuple(vec))
    return frozenset(out)


def unit_vectors(n: int, positions: Optional[Iterable[int]] = None) -> frozenset[tuple[int, ...]]:
    """Standard unit sign vectors e_i for the given 0-based positions."""
    _check_length(n)
    if positions is None:
        positions = range(n)
    out = set()
    for i in positions:
        if type(i) is not int or not 0 <= i < n:
            raise DomainError(f"unit position {i} out of range for length {n}")
        out.add(tuple(1 if j == i else 0 for j in range(n)))
    if not out:
        raise DomainError("need at least one unit position")
    return frozenset(out)


def column_rank(matrix: SignMatrix) -> int:
    """Exact rank of the matrix over the rationals (= rank of its columns)."""
    return _rank(matrix.rows)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of a nonempty list of equal-length rows.

    Fraction-free (Bareiss) elimination: after k pivots every remaining entry
    is a (k + 1)-minor of the matrix, so each step divides exactly by the
    previous pivot and the work stays in integers.
    """
    work = [list(row) for row in rows]
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    previous = 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        p = lead[col]
        for row in work[rank + 1 :]:
            f = row[col]
            for c in range(col + 1, n_cols):
                row[c] = (p * row[c] - f * lead[c]) // previous
            row[col] = 0
        previous = p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _cover_search(n: int, max_size: int):
    """Yield (members, minimal) for every cover of size <= max_size.

    The length n is checked by _check_length, then the subset count is
    summed size by size until it passes SIGNELIM_SEARCH_CAP, before any mask
    is built. Subsets of one size are judged in chunks of combinations of
    about _CHUNK_BYTES each.
    """
    if type(max_size) is not int or max_size < 1:
        raise DomainError(f"max_size must be >= 1, got {max_size}")
    _check_length(n)
    count = vector_count(n)
    max_size = min(max_size, count)
    nodes = 0
    what = "cover search subset count at least"
    for size in range(1, max_size + 1):
        nodes += comb(count, size)
        check_cap(nodes, ENV_SEARCH_CAP, DEFAULT_SEARCH_CAP, what)
    rows = table(n)
    vectors = [tuple(r) for r in rows.tolist()]
    masks = backend.row_mask_bits(rows, rows)
    for size in range(1, max_size + 1):
        combos = combinations(range(count), size)
        step = max(1, _CHUNK_BYTES // (size * (8 + masks.shape[1])))
        while True:
            flat = chain.from_iterable(islice(combos, step))
            chunk = np.fromiter(flat, dtype=np.intp).reshape(-1, size)
            if not chunk.size:
                break
            _, covers, minimal = _judge(masks[chunk], count)
            for combo, flag in zip(chunk[covers].tolist(), minimal[covers].tolist()):
                yield tuple(vectors[idx] for idx in combo), flag


def minimal_covers(n: int, max_size: int) -> list[frozenset[tuple[int, ...]]]:
    """All minimal eliminating covers of size <= max_size, in search order.

    Order is deterministic: by size, then by member positions in enumeration
    order. The search is exhaustive whenever max_size reaches the number of
    canonical vectors (always feasible for n <= 3 under the default cap).
    """
    return [
        frozenset(members)
        for members, minimal in _cover_search(n, max_size)
        if minimal
    ]


def cover_reports(n: int, max_size: int) -> list[CoverReport]:
    """Reports for every cover of size <= max_size, minimality flagged."""
    out = []
    for members, minimal in _cover_search(n, max_size):
        rank = _rank(members)
        out.append(
            CoverReport(
                members=members,
                n=n,
                is_cover=True,
                is_minimal=minimal,
                column_rank=rank,
            )
        )
    return out


def describe_cover(X: Iterable[Sequence[int]], n: int) -> CoverReport:
    """Judge one explicit candidate set; minimality is reported for a cover."""
    rows, _, covers, minimal = _judge_set(X, n)
    return CoverReport(
        members=tuple(rows),
        n=n,
        is_cover=covers,
        is_minimal=minimal if covers else None,
        column_rank=_rank(rows),
    )


def orthogonality_implication_holds(x: Sequence[int], v: Sequence) -> bool:
    """Check the orthogonality consequence of elimination for one pair.

    If the sign pattern of v (up to global negation) lies in the eliminated
    set of {x}, then v and x must not be orthogonal. Returns True when the
    implication holds for this x and v; the premise failing counts as holding.
    """
    (vec,) = sign_rows([x])
    values = parse_rational_vector(v, "v")
    if not any(values):
        raise DomainError("v must be nonzero")
    pattern, _ = canonicalize(values)
    if not eliminates(vec, pattern):
        return True
    return as_fraction_dot(values, vec) != 0


def covered_fraction(X: Iterable[Sequence[int]], n: int) -> tuple[int, int]:
    """(eliminated, total) counts for a candidate set; diagnostic helper."""
    _, union, _, _ = _judge_set(X, n)
    return int(np.bitwise_count(union).sum()), vector_count(n)
