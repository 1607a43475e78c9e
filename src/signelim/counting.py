"""Exact counting of eliminated sets.

All counts are plain Python ints (arbitrary precision, no floats). Each
closed form has a brute-force oracle counterpart in this module so the two
routes can be compared at any scale the enumeration cap allows:

  * ``count_eliminated_single(x)``    = 3**z * (2**(n - z) - 1), z zeros of x
  * ``count_eliminated_intersection`` sums signed powers of 2 over canonical
    row-sign assignments, weighted by aligned column counts
  * ``count_eliminated_union``        inclusion-exclusion over row subsets
  * ``count_pair``                    the two-row case in closed form, from a
                                      column-type profile
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError, ResourceLimitError, env_cap
from .signvec import (
    canonical_sign_vectors,
    eliminated_count,
    enumeration_key,
    is_canonical,
    jointly_eliminated_count,
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

DEFAULT_SUBSET_CAP = 20
ENV_SUBSET_CAP = "SIGNELIM_SUBSET_CAP"


@dataclass(frozen=True)
class SignMatrix:
    """A matrix whose rows are pairwise distinct canonical sign vectors."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DomainError("SignMatrix needs at least one row")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise DomainError("SignMatrix rows must share one length")
            if not is_canonical(row):
                raise DomainError(f"SignMatrix row {row!r} is not canonical")
        if len(set(self.rows)) != len(self.rows):
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
    vec = tuple(x)
    if not is_canonical(vec):
        raise DomainError(f"{vec!r} is not canonical")
    n = len(vec)
    z = zero_count(vec)
    return 3**z * (2 ** (n - z) - 1)


def aligned_columns(matrix: SignMatrix, alpha: Sequence[int]) -> frozenset[int]:
    """Column positions compatible with row-sign assignment alpha.

    A nonzero column c qualifies when either c[i] in {0, alpha[i]} for every
    row i, or c[i] in {0, -alpha[i]} for every row i. Wherever alpha[i] is 0
    this forces c[i] = 0. Positions are 0-based and counted as positions, so
    equal columns contribute once each.
    """
    assignment = tuple(alpha)
    if len(assignment) != matrix.m:
        raise DomainError(
            f"assignment length {len(assignment)} != row count {matrix.m}"
        )
    if not is_canonical(assignment):
        raise DomainError(f"assignment {assignment!r} is not canonical")
    out = []
    for j in range(matrix.n):
        col = matrix.column(j)
        if all(c == 0 for c in col):
            continue
        if all(c == 0 or c == a for c, a in zip(col, assignment)):
            out.append(j)
        elif all(c == 0 or c == -a for c, a in zip(col, assignment)):
            out.append(j)
    return frozenset(out)


@lru_cache(maxsize=1 << 16)
def _intersection_count(rows: tuple[tuple[int, ...], ...]) -> int:
    matrix = SignMatrix(rows)
    m = matrix.m
    z_shared = matrix.zero_columns()
    acc = -((-2) ** (m - 1))
    for alpha in canonical_sign_vectors(m):
        z_alpha = zero_count(alpha)
        weight = z_alpha + len(aligned_columns(matrix, alpha))
        acc += (-1) ** z_alpha * 2**weight
    return 3**z_shared * acc


def count_eliminated_intersection(matrix: SignMatrix) -> int:
    """Exact size of the intersection of the rows' eliminated sets."""
    return _intersection_count(matrix.rows)


def _distinct_rows(X: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    rows = set()
    for x in X:
        vec = tuple(x)
        if not is_canonical(vec):
            raise DomainError(f"{vec!r} is not canonical")
        rows.add(vec)
    if not rows:
        raise DomainError("need at least one vector")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DomainError("vectors must share one length")
    return sorted(rows, key=enumeration_key)


def count_eliminated_union(X: Iterable[Sequence[int]]) -> int:
    """|union of eliminated sets| by inclusion-exclusion over row subsets.

    Cost is 2**m intersection evaluations for m distinct vectors; guarded by
    the subset cap (default 20, env SIGNELIM_SUBSET_CAP).
    """
    rows = _distinct_rows(X)
    cap = env_cap(ENV_SUBSET_CAP, DEFAULT_SUBSET_CAP)
    if len(rows) > cap:
        raise ResourceLimitError(
            f"{len(rows)} vectors exceed the inclusion-exclusion cap {cap}; "
            f"set {ENV_SUBSET_CAP} to raise it"
        )
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
