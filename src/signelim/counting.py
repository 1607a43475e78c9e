"""Exact counting of eliminated sets.

All counts are plain Python ints (arbitrary precision, no floats). Each
closed form has a brute-force oracle counterpart in this module, the
enumeration scan, whose per-row rule is also ``signvec.eliminates``, so the
two routes can be compared at any scale the enumeration cap allows:

  * ``count_eliminated_single(x)``    = 3**z * (2**(n - z) - 1), z zeros of x
  * ``count_eliminated_intersection`` sums signed powers of 2 over canonical
    row-sign assignments, weighted by aligned column counts (``_aligned``,
    the one alignment rule, which ``aligned_columns`` also reads)
  * ``count_eliminated_union``        inclusion-exclusion over row subsets
  * ``count_pair``                    the two-row case in closed form, from a
                                      column-type profile
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, check_cap
from .signvec import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    eliminated_count,
    jointly_eliminated_count,
    sign_rows,
    table,
    zero_count,
)

__all__ = [
    "SignMatrix",
    "PairProfile",
    "DEFAULT_SUBSET_CAP",
    "ENV_SUBSET_CAP",
    "count_eliminated_single",
    "aligned_columns",
    "count_eliminated_intersection",
    "count_eliminated_union",
    "pair_profile",
    "count_pair",
    "count_eliminated_oracle",
    "count_intersection_oracle",
]

DEFAULT_SUBSET_CAP = 12
ENV_SUBSET_CAP = "SIGNELIM_SUBSET_CAP"

# Row-sign assignments per broadcast in _intersection_count; one chunk covers
# every assignment up to m = 9 rows.
_ALPHA_CHUNK = 1 << 14


@dataclass(frozen=True)
class SignMatrix:
    """A matrix whose rows are pairwise distinct canonical sign vectors."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DomainError("SignMatrix needs at least one row")
        # sign_rows checks the rows (canonical, one width) and drops repeats
        if len(sign_rows(self.rows)) != len(self.rows):
            raise DomainError("SignMatrix rows must be pairwise distinct")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "SignMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.n:
            raise DomainError(f"column index {j} out of range")
        return tuple(row[j] for row in self.rows)

    def zero_columns(self) -> int:
        return sum(
            1 for j in range(self.n) if all(row[j] == 0 for row in self.rows)
        )


def count_eliminated_single(x: Sequence[int]) -> int:
    """|eliminated set of {x}| = 3**z(x) * (2**(n - z(x)) - 1)."""
    (vec,) = sign_rows([x])
    n = len(vec)
    z = zero_count(vec)
    return 3**z * (2 ** (n - z) - 1)


def _aligned(cols: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Entry [a, j]: whether column c = cols[:, j] (a nonzero column) is aligned
    with alpha = alphas[a], that is c[i] in {0, alpha[i]} for every row i or
    c[i] in {0, -alpha[i]} for every row i (so c[i] = 0 wherever alpha[i] = 0)."""
    blank = cols == 0
    alphas = alphas[:, :, None]
    return (blank | (cols == alphas)).all(axis=1) | (blank | (cols == -alphas)).all(axis=1)


def aligned_columns(matrix: SignMatrix, alpha: Sequence[int]) -> frozenset[int]:
    """The 0-based positions of the nonzero columns aligned with row-sign
    assignment alpha by _aligned's rule; equal columns appear once each."""
    (assignment,) = sign_rows([alpha])
    if len(assignment) != matrix.m:
        raise DomainError(f"assignment length {len(assignment)} != row count {matrix.m}")
    rows = np.array(matrix.rows, dtype=np.int8)
    nonzero = np.flatnonzero(rows.any(axis=0))
    hits = _aligned(rows[:, nonzero], np.array([assignment], dtype=np.int8))[0]
    return frozenset(nonzero[hits].tolist())


@lru_cache(maxsize=1 << 16)
def _intersection_count(rows: tuple[tuple[int, ...], ...]) -> int:
    """The aligned_columns sum over every assignment alpha, as array work.

    _aligned marks each chunk's aligned columns. The weights z(alpha) +
    aligned count are small ints, so their bincount, split by the parity of
    z(alpha), times Python-int powers of 2 keeps the sum exact. Assignments
    go in chunks to bound the temporaries. ``rows`` are a SignMatrix's rows,
    already checked by both callers.
    """
    m, n = len(rows), len(rows[0])
    cols = np.array(rows, dtype=np.int8)
    cols = cols[:, cols.any(axis=0)]
    size = 2 * (m + cols.shape[1] + 1)
    tally = np.zeros(size, dtype=np.int64)  # at 2 * weight + parity of z(alpha)
    assignments = table(m)
    for start in range(0, assignments.shape[0], _ALPHA_CHUNK):
        alphas = assignments[start : start + _ALPHA_CHUNK]
        z_alpha = (alphas == 0).sum(axis=1)
        weights = z_alpha + _aligned(cols, alphas).sum(axis=1)
        tally += np.bincount(2 * weights + z_alpha % 2, minlength=size)
    even, odd = tally[0::2].tolist(), tally[1::2].tolist()
    acc = -((-2) ** (m - 1))
    acc += sum((e - o) << w for w, (e, o) in enumerate(zip(even, odd)))
    return 3 ** (n - cols.shape[1]) * acc


def count_eliminated_intersection(matrix: SignMatrix) -> int:
    """Exact size of the intersection of the rows' eliminated sets.

    The sum enumerates the canonical row-sign assignments, table(m), so the
    row count m is checked against SIGNELIM_MAX_N (default 16) first.
    """
    check_cap(matrix.m, ENV_MAX_N, DEFAULT_MAX_N, "intersection row count")
    return _intersection_count(matrix.rows)


def count_eliminated_union(X: Iterable[Sequence[int]]) -> int:
    """|union of eliminated sets| by inclusion-exclusion over row subsets.

    For m distinct vectors there are 2**m - 1 subsets, and a subset of k rows
    enumerates its (3**k - 1) // 2 canonical row-sign assignments, so the
    cost grows as (4**m - 2**m) / 2 assignments in all, about 4x per row. The
    row count is checked before any subset is counted, against the subset cap
    (default 12, env SIGNELIM_SUBSET_CAP) and, because the full subset
    enumerates the assignments of all m rows, against SIGNELIM_MAX_N.
    """
    rows = sign_rows(X)
    if not rows:
        raise DomainError("need at least one vector")
    check_cap(len(rows), ENV_SUBSET_CAP, DEFAULT_SUBSET_CAP, "union row count")
    check_cap(len(rows), ENV_MAX_N, DEFAULT_MAX_N, "union row count")
    total = 0
    for size in range(1, len(rows) + 1):
        sign = 1 if size % 2 else -1
        for subset in combinations(rows, size):
            total += sign * _intersection_count(subset)
    return total


@dataclass(frozen=True)
class PairProfile:
    """Column-type counts of a two-row SignMatrix, up to column negation.

    agree:       columns +-(+1, +1)
    oppose:      columns +-(+1, -1)
    first_only:  columns +-(+1, 0)
    second_only: columns +-(0, +1)
    zero:        columns (0, 0)
    """

    agree: int
    oppose: int
    first_only: int
    second_only: int
    zero: int

    def __post_init__(self) -> None:
        for name in ("agree", "oppose", "first_only", "second_only", "zero"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.agree + self.oppose + self.first_only == 0:
            raise DomainError("first row would be zero (not a sign vector)")
        if self.agree + self.oppose + self.second_only == 0:
            raise DomainError("second row would be zero (not a sign vector)")
        if self.oppose + self.first_only + self.second_only == 0:
            raise DomainError("rows would coincide (SignMatrix rows are distinct)")

    @property
    def n(self) -> int:
        return self.agree + self.oppose + self.first_only + self.second_only + self.zero


def pair_profile(matrix: SignMatrix) -> PairProfile:
    """Classify the columns of a two-row SignMatrix into the five types."""
    if matrix.m != 2:
        raise DomainError(f"pair profile needs exactly 2 rows, got {matrix.m}")
    x, y = matrix.rows
    agree = oppose = first_only = second_only = zero = 0
    for p, q in zip(x, y):
        if p == 0 and q == 0:
            zero += 1
        elif q == 0:
            first_only += 1
        elif p == 0:
            second_only += 1
        elif p == q:
            agree += 1
        else:
            oppose += 1
    return PairProfile(agree, oppose, first_only, second_only, zero)


def count_pair(profile: PairProfile) -> tuple[int, int]:
    """(intersection, union) sizes of two eliminated sets, in closed form.

    With a1 = agree, a2 = oppose, b1 = first_only, b2 = second_only, c = zero:

      intersection = 3**c * (2**(b1+b2) * (2**a1 + 2**a2)
                             - 2**(b1+1) - 2**(b2+1) + 2)
      union        = 3**c * (3**b1 * 2**(a1+a2+b2) + 3**b2 * 2**(a1+a2+b1)
                             - 2**(b1+b2) * (2**a1 + 2**a2)
                             - 3**b1 - 3**b2 + 2**(b1+1) + 2**(b2+1) - 2)
    """
    a1, a2 = profile.agree, profile.oppose
    b1, b2 = profile.first_only, profile.second_only
    c = profile.zero
    intersection = 3**c * (
        2 ** (b1 + b2) * (2**a1 + 2**a2) - 2 ** (b1 + 1) - 2 ** (b2 + 1) + 2
    )
    union = 3**c * (
        3**b1 * 2 ** (a1 + a2 + b2)
        + 3**b2 * 2 ** (a1 + a2 + b1)
        - 2 ** (b1 + b2) * (2**a1 + 2**a2)
        - 3**b1
        - 3**b2
        + 2 ** (b1 + 1)
        + 2 ** (b2 + 1)
        - 2
    )
    return intersection, union


def count_eliminated_oracle(X: Iterable[Sequence[int]], n: int) -> int:
    """Brute-force |union of eliminated sets| via the enumeration scan.

    Accepts total-sign eliminators (entries may include "u"), unlike the
    closed forms, which are defined for canonical sign vectors.
    """
    return eliminated_count(list(X), n)


def count_intersection_oracle(matrix: SignMatrix) -> int:
    """Brute-force intersection size via the enumeration scan."""
    return jointly_eliminated_count(matrix.rows, matrix.n)
