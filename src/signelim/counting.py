"""Exact counting of eliminated sets.

All counts are plain Python ints (arbitrary precision, no floats). Each
closed form has a brute-force oracle counterpart in this module, the
enumeration scan, whose per-row rule is also ``signvec.eliminates``, so the
two routes can be compared at any scale the enumeration cap allows:

  * ``count_eliminated_single(x)``    = 3**z * (2**(n - z) - 1), z zeros of x
  * ``count_eliminated_union``        inclusion-exclusion over row subsets:
    signed powers of 3 and 2 over every pair (row subset S, canonical
    row-sign assignment on S), weighted by aligned column counts
  * ``count_eliminated_intersection`` the same sum over the pairs whose S
    is all rows
  * ``count_pair``                    the two-row case in closed form, from a
                                      column-type profile

Both sums are one evaluator, ``_union_counts``, which counts a batch of
sets at once: a column is a bitmask of its +1 rows and one of its -1 rows,
a pair three bitmasks (S and the +1 and -1 rows of the assignment), and
alignment (``_aligned``, the one rule, which ``aligned_columns`` also
calls), zero columns, z and |S| are bit operations over columns x pairs,
_ALPHA_CHUNK pairs at a time, whose exponents one bincount tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .backend import _batches
from .errors import DomainError, check_cap
from .signvec import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    eliminated_count,
    jointly_eliminated_count,
    sign_rows,
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

# Pairs (row subset, row-sign assignment) per array pass of _union_counts,
# and the codes _pairs decodes at a time: one chunk covers every pair of a
# set of up to 7 rows, the union's 4**7 codes or the intersection's 3**8.
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
        if type(j) is not int or not 0 <= j < self.n:
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


def _aligned(cols, S, plus, minus, shift: int) -> np.ndarray:
    """Entry [j, a]: whether column j is aligned on the row set S[a] with
    the assignment alpha whose +1 and -1 rows are plus[a] and minus[a],
    both within S[a]: on S, c[i] in {0, alpha[i]} for every row i or
    c[i] in {0, -alpha[i]} for every row i. cols[j, a] is column j as one
    bitmask, bit i set where c[i] = +1 and bit shift + i where c[i] = -1. A
    column that is 0 on S passes; callers leave it out."""
    not_plus, not_minus = S ^ plus, S ^ minus
    same = (cols & (not_plus | not_minus << shift)) == 0
    return same | ((cols & (not_minus | not_plus << shift)) == 0)


def _column_masks(sets: Sequence[np.ndarray], shift: int) -> np.ndarray:
    """Entry [j, g]: column j of the sign matrix sets[g] as one bitmask, bit
    i set where row i is +1 and bit shift + i where it is -1. A set
    narrower than the widest has 0 in its missing columns."""
    width = max(s.shape[1] for s in sets)
    rows = np.concatenate(
        [s if s.shape[1] == width else np.pad(s, ((0, 0), (0, width - s.shape[1]))) for s in sets]
    )
    counts = [s.shape[0] for s in sets]
    starts = np.cumsum(counts) - counts
    row = np.arange(rows.shape[0]) - np.repeat(starts, counts)  # within its set
    unit = (rows == 1) | (rows == -1).astype(np.int64) << shift
    return np.add.reduceat(unit << row[:, None], starts).T


def aligned_columns(matrix: SignMatrix, alpha: Sequence[int]) -> frozenset[int]:
    """The 0-based positions of the nonzero columns aligned with row-sign
    assignment alpha by _aligned's rule; equal columns appear once each."""
    (assignment,) = sign_rows([alpha])
    if len(assignment) != matrix.m:
        raise DomainError(f"assignment length {len(assignment)} != row count {matrix.m}")
    m = matrix.m
    cols = _column_masks([np.array(matrix.rows, dtype=np.int8)], m)
    plus, minus = (sum(1 << i for i, a in enumerate(assignment) if a == v) for v in (1, -1))
    hits = _aligned(cols, (1 << m) - 1, plus, minus, m) & (cols != 0)
    return frozenset(np.flatnonzero(hits).tolist())


# a row's state in a pair (S, alpha): (in S, alpha = +1, alpha = -1)
_STATES = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1]])


def _words(codes: np.ndarray, rows: int, radix: int) -> np.ndarray:
    """Rows (S, plus, minus): the bitmasks of the pairs whose row states
    are the base-``radix`` digits of ``codes``, row i's digit the i-th least
    significant: outside S (base 4 only), then 0, +1 or -1 on S."""
    states = _STATES[4 - radix :]
    out = np.zeros((3, codes.size), dtype=np.int64)
    for i in range(rows):
        out |= states[codes // radix**i % radix].T << i
    return out


def _canonical(words: np.ndarray) -> np.ndarray:
    """Positions of the words whose assignment is nonzero and canonical:
    its first (lowest) nonzero row is +1."""
    live = words[1] | words[2]
    return np.flatnonzero(live & -live & words[1])


@lru_cache(maxsize=None)
def _low_words(rows: int, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """_words of all radix**rows codes, at most _ALPHA_CHUNK, and the
    _canonical positions among them, read-only."""
    words = _words(np.arange(radix**rows), rows, radix)
    keep = _canonical(words)
    words.setflags(write=False)
    keep.setflags(write=False)
    return words, keep


def _pairs(m: int, subsets: bool):
    """Yield (codes, words) over the pairs of m rows in code order, from at
    most _ALPHA_CHUNK codes at a time, words[:, k] = (S, plus, minus) of
    codes[k]: a row set S (any nonempty one when ``subsets``, else all m
    rows) and a nonzero canonical assignment alpha on S, of +1 rows plus
    and -1 rows minus. As a code below 4**k has rows k on outside S, with
    ``subsets`` the pairs of the first k rows lead."""
    radix = 4 if subsets else 3
    low = next(r for r in range(m, -1, -1) if radix**r <= _ALPHA_CHUNK)
    lo, keep = _low_words(low, radix)
    if low == m:
        yield keep, lo[:, keep]
        return
    high = np.arange(radix ** (m - low))
    step = _ALPHA_CHUNK // lo.shape[1]
    for start in range(0, high.size, step):
        hi = _words(high[start : start + step], m - low, radix)
        words = (hi[:, :, None] << low | lo[:, None, :]).reshape(3, -1)
        keep = _canonical(words)
        yield start * lo.shape[1] + keep, words[:, keep]


def _union_counts(sets: Sequence, subsets: bool = True) -> list[int]:
    """|union of the eliminated sets of a set's rows| for every set, by
    inclusion-exclusion over row subsets, all sets in one array pass.

    Sets are nonempty matrices of distinct canonical rows, checked by the
    callers, of any row count and length. For a row subset S of k rows with
    e of the n columns 0 on S, the rows' eliminated sets meet in
    3**e * (-(-2)**(k - 1) + sum of (-1)**z * 2**(z + a) over the canonical
    alpha on S), z the rows of S where alpha is 0 and a the columns nonzero
    on S and _aligned with alpha. Weighed by (-1)**(k + 1), each subset adds
    -2**(k - 1) * 3**e and each pair (S, alpha) (-1)**(k + 1 + z) *
    3**e * 2**(z + a): bincounts over (set, e, 2-exponent, sign), times
    Python-int powers, so the sums are exact. Without ``subsets`` a set's
    one subset is all its m rows, every set has the same m, and the count
    is (-1)**(m + 1) times the rows' intersection count.
    """
    sets = [np.asarray(s, dtype=np.int8) for s in sets]
    ms = np.array([s.shape[0] for s in sets])
    top = int(ms.max())
    cols = _column_masks(sets, top)
    width, count = cols.shape
    span = 2 * (top + width + 1)  # bins of one (set, e): 2-exponent, sign
    subs = np.arange(1 << top)
    live = np.count_nonzero((cols | cols >> top)[:, :, None] & subs, axis=0)
    k = np.bitwise_count(subs)
    e = np.array([s.shape[1] for s in sets])[:, None] - live
    full = (1 << ms)[:, None] - 1
    family = (subs <= full) & (k > 0) if subsets else subs == full
    # the (set, e) of its subsets, in order, so the bins grow with n, not n**2
    classes, slot = np.unique((np.arange(count)[:, None] * (width + 1) + e)[family], return_inverse=True)
    # per set and row subset of the top rows: its bin of 2-exponent 0 less
    # twice its columns that are 0 on S, and the subset's constant
    first = np.zeros(family.shape, dtype=np.intp)
    first[family] = span * slot - 2 * (width - live[family])
    size = classes.size * span
    tally = np.bincount((first + 2 * (width - live + k) - 1)[family], minlength=size)
    first = first.ravel()
    bits = np.min_scalar_type((1 << 2 * top) - 1)  # the narrowest column mask
    cols = cols.astype(bits)
    for codes, words in _pairs(top, subsets):
        S, plus, minus = words.astype(bits)
        ends = np.searchsorted(codes, (4 if subsets else 3) ** ms)  # each set's pairs lead
        for lo, hi in _batches(ends.tolist()):
            run = ends[lo:hi]
            g = np.repeat(np.arange(lo, hi), run)
            i = np.arange(g.size) - np.repeat(np.cumsum(run) - run, run)
            s, alpha_p, alpha_m = S.take(i), plus.take(i), minus.take(i)
            z = np.bitwise_count(s ^ alpha_p ^ alpha_m)
            # every column 0 on S passes _aligned, and first discounts it
            aligned = _aligned(cols.take(g, axis=1), s, alpha_p, alpha_m, top)
            a = np.add.reduce(aligned, axis=0, dtype=np.intp)  # 2 * (z + a) may pass 255
            sign = (np.bitwise_count(s) + z + 1) & 1
            tally += np.bincount(first.take(g << top | s) + 2 * (z + a) + sign, minlength=size)
    diff = (tally[0::2] - tally[1::2]).reshape(classes.size, -1)
    e = classes % (width + 1)
    # every partial sum is at most sum |diff| * 3**max(e) * 2**max(y) in size
    top_weight = 3 ** int(e.max()) << span // 2 - 1
    exact = np.int64 if max(int(np.abs(diff).sum()), 1) * top_weight < 2**63 else object
    twos = np.array([1 << y for y in range(span // 2)], dtype=exact)
    threes = np.array([3 ** int(x) for x in e], dtype=exact)
    starts = np.searchsorted(classes, np.arange(count) * (width + 1))  # each set's first
    return np.add.reduceat((diff.astype(exact) @ twos) * threes, starts).tolist()


def count_eliminated_intersection(matrix: SignMatrix) -> int:
    """Exact size of the intersection of the rows' eliminated sets.

    The sum runs over the canonical row-sign assignments of all m rows, so
    the row count m is checked against SIGNELIM_MAX_N (default 16) first.
    """
    check_cap(matrix.m, ENV_MAX_N, DEFAULT_MAX_N, "intersection row count")
    (signed,) = _union_counts([matrix.rows], subsets=False)
    return signed if matrix.m % 2 else -signed


def count_eliminated_union(X: Iterable[Sequence[int]]) -> int:
    """|union of eliminated sets| by inclusion-exclusion over row subsets.

    For m distinct vectors there are 2**m - 1 subsets, and a subset of k rows
    has (3**k - 1) // 2 canonical row-sign assignments, so _union_counts
    evaluates (4**m - 2**m) / 2 pairs, about 4x per row. The row count is
    checked before any pair is counted, against the subset cap (default 12,
    env SIGNELIM_SUBSET_CAP) and, as the subset of all m rows takes the
    assignments of length m, against SIGNELIM_MAX_N.
    """
    rows = sign_rows(X)
    if not rows:
        raise DomainError("need at least one vector")
    check_cap(len(rows), ENV_SUBSET_CAP, DEFAULT_SUBSET_CAP, "union row count")
    check_cap(len(rows), ENV_MAX_N, DEFAULT_MAX_N, "union row count")
    return _union_counts([rows])[0]


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
        for name, value in vars(self).items():
            # type(), not isinstance: True is a bool, which subclasses int
            if type(value) is not int or value < 0:
                raise DomainError(f"{name} must be an int >= 0, got {value!r}")
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
