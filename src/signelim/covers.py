"""Eliminating covers: sets of canonical vectors that eliminate everything.

A set X of canonical sign vectors of length n is an eliminating cover when
the union of its eliminated sets is the full canonical enumeration. Covers
form an upward-closed family; the minimal ones are those that stop covering
after removing any single member (single removal suffices because eliminated
sets grow monotonically with X).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from . import backend
from .counting import SignMatrix
from .errors import DomainError, check_cap
from .signvec import (
    as_fraction_dot,
    canonicalize,
    eliminated_mask,
    eliminated_set,
    enumeration_key,
    is_canonical,
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
]

DEFAULT_SEARCH_CAP = 200_000
ENV_SEARCH_CAP = "SIGNELIM_SEARCH_CAP"


@dataclass(frozen=True)
class CoverReport:
    """Judgement about one candidate cover.

    is_minimal is None when minimality was not checked.
    """

    members: tuple[tuple[int, ...], ...]
    n: int
    is_cover: bool
    is_minimal: Optional[bool]
    column_rank: int


def _clean_set(X: Iterable[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    rows = set()
    for x in X:
        vec = tuple(x)
        if not is_canonical(vec):
            raise DomainError(f"{vec!r} is not canonical")
        if len(vec) != n:
            raise DomainError(f"expected length {n}, got {vec!r}")
        rows.add(vec)
    if not rows:
        raise DomainError("a candidate cover must be nonempty")
    return sorted(rows, key=enumeration_key)


def is_eliminating_cover(X: Iterable[Sequence[int]], n: int) -> bool:
    """Whether X eliminates every canonical vector of length n."""
    rows = _clean_set(X, n)
    return bool(eliminated_mask(rows, n).all())


def is_minimal_cover(X: Iterable[Sequence[int]], n: int) -> bool:
    """Whether X is a cover that stops covering after any single removal."""
    rows = _clean_set(X, n)
    if not is_eliminating_cover(rows, n):
        raise DomainError("is_minimal_cover requires an eliminating cover")
    if len(rows) == 1:
        # Dropping the only member leaves the empty set, which eliminates
        # nothing. (A single vector covers only at n = 1: {(1,)}.)
        return True
    for drop in range(len(rows)):
        rest = rows[:drop] + rows[drop + 1 :]
        if eliminated_mask(rest, n).all():
            return False
    return True


def full_support_vectors(n: int) -> frozenset[tuple[int, ...]]:
    """The 2**(n-1) canonical vectors with no zero entries."""
    out = []
    for bits in range(2 ** (n - 1)):
        vec = [1]
        for i in range(n - 1):
            vec.append(1 if (bits >> (n - 2 - i)) & 1 == 0 else -1)
        out.append(tuple(vec))
    return frozenset(out)


def unit_vectors(n: int, positions: Optional[Iterable[int]] = None) -> frozenset[tuple[int, ...]]:
    """Standard unit sign vectors e_i for the given 0-based positions."""
    if positions is None:
        positions = range(n)
    out = set()
    for i in positions:
        if not 0 <= i < n:
            raise DomainError(f"unit position {i} out of range for length {n}")
        out.add(tuple(1 if j == i else 0 for j in range(n)))
    if not out:
        raise DomainError("need at least one unit position")
    return frozenset(out)


def column_rank(matrix: SignMatrix) -> int:
    """Exact rank of the matrix over the rationals (= rank of its columns)."""
    work = [[Fraction(v) for v in row] for row in matrix.rows]
    n_rows, n_cols = matrix.m, matrix.n
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, n_rows):
            if work[r][col] != 0:
                factor = work[r][col] / lead
                for c in range(col, n_cols):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _element_bitmasks(n: int) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Per-vector elimination bitmasks over enumeration ranks."""
    rows = table(n)
    vectors = [tuple(r) for r in rows.tolist()]
    masks = []
    for i in range(rows.shape[0]):
        mask = backend.eliminated_any_mask(rows, rows[i : i + 1])
        bits = 0
        for idx in np.nonzero(mask)[0]:
            bits |= 1 << int(idx)
        masks.append(bits)
    full = (1 << rows.shape[0]) - 1
    return vectors, masks, full


def _cover_search(n: int, max_size: int):
    """Yield (members, minimal) for every cover of size <= max_size."""
    if max_size < 1:
        raise DomainError(f"max_size must be >= 1, got {max_size}")
    count = vector_count(n)
    max_size = min(max_size, count)
    nodes = sum(comb(count, k) for k in range(1, max_size + 1))
    check_cap(nodes, ENV_SEARCH_CAP, DEFAULT_SEARCH_CAP, "cover search subset count")
    vectors, masks, full = _element_bitmasks(n)
    for size in range(1, max_size + 1):
        for combo in combinations(range(count), size):
            union = 0
            for idx in combo:
                union |= masks[idx]
            if union != full:
                continue
            minimal = True
            if size > 1:
                for drop in combo:
                    rest = 0
                    for idx in combo:
                        if idx != drop:
                            rest |= masks[idx]
                    if rest == full:
                        minimal = False
                        break
            yield tuple(vectors[idx] for idx in combo), minimal


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
        rank = column_rank(SignMatrix(members))
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


def describe_cover(X: Iterable[Sequence[int]], n: int, *, check_minimal: bool = True) -> CoverReport:
    """Judge one explicit candidate set."""
    rows = _clean_set(X, n)
    covers = is_eliminating_cover(rows, n)
    minimal: Optional[bool] = None
    if covers and check_minimal:
        minimal = is_minimal_cover(rows, n)
    rank = column_rank(SignMatrix(tuple(rows)))
    return CoverReport(
        members=tuple(rows),
        n=n,
        is_cover=covers,
        is_minimal=minimal,
        column_rank=rank,
    )


def orthogonality_implication_holds(x: Sequence[int], v: Sequence) -> bool:
    """Check the orthogonality consequence of elimination for one pair.

    If the sign pattern of v (up to global negation) lies in the eliminated
    set of {x}, then v and x must not be orthogonal. Returns True when the
    implication holds for this x and v; the premise failing counts as holding.
    """
    vec = tuple(x)
    if not is_canonical(vec):
        raise DomainError(f"{vec!r} is not canonical")
    values = tuple(v)
    if len(values) != len(vec):
        raise DomainError(f"length mismatch: {len(values)} vs {len(vec)}")
    if all(Fraction(c) == 0 for c in values):
        raise DomainError("v must be nonzero")
    pattern, _ = canonicalize(values)
    if pattern not in eliminated_set([vec], len(vec)):
        return True
    return as_fraction_dot(values, vec) != 0


def covered_fraction(X: Iterable[Sequence[int]], n: int) -> tuple[int, int]:
    """(eliminated, total) counts for a candidate set; diagnostic helper."""
    rows = _clean_set(X, n)
    return int(eliminated_mask(rows, n).sum()), vector_count(n)
