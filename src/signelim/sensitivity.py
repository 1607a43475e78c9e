"""Region signs, total signs, sensitivity bounds, and reversibility.

Fix a base point z (one truth value per input block). The region of interest
is the set of points of the simplex product whose base coordinate is nonzero
in every block; the free coordinates are the remaining ones, listed block by
block in input order with the base coordinate skipped. Their count is the
reduced dimension N.

The region-sign rule decides the sign of a scalar multilinear form over the
region exactly from its coefficient tensor, which any positive scale keeps:
the anchor (all-base) coefficient's own sign, except UNDETERMINED ("u") when
the coefficients take both signs, or when the anchor is 0 and some is not
(every region point gives positive weight to the anchor monomial, and every
coefficient is a limit of region values). _region_sign is that rule, on the
coefficients' signs, and the only copy of it.

The total sign of a projection w at z collects the region signs of the N
reduced partial derivatives of w composed with the expansion. They come for
every base point and functional at once from the expansion's integer tensor
T. With the functionals scaled to integers W too (a family's ``weights``),
S = T . W^T holds every functional's value at every table cell. Row c of
_free(a), the one free-coordinate rule, lists the j != c of a block of arity
a. Along block i, D[c, k] = S[i = _free(a)[c, k]] - S[i = c], a tensor over
the other blocks, is the reduced partial along (i, _free(a)[c, k]) at z_i =
c, whose anchor coefficient sits at z_{-i}.

Total signs eliminate sign vectors; the union of eliminated sets over a
projection family is a lower approximation of the sensitive directions at z,
and

    score(S) = 3**N - 2 * |eliminated set of (all canonical vectors not in S)|

is monotone in S, equals 3**N exactly when S is everything, and its base-3
logarithm is the sensitivity value reported by this module. Scores from the
lower approximation are lower bounds; collision data gives upper bounds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .backend import (
    _base3_index,
    _batches,
    _canonical_index,
    _elimination_counts,
    eliminated_any_mask,
    eliminated_any_masks,
    row_mask_bits,
    unpacked,
)
from .errors import DomainError, ValidationError, check_cap
from .gates import (
    Gate,
    MultilinearExpansion,
    _ValueIds,
    _base_point,
    _cleared,
    _scaled,
    base_points,
    expand,
    parse_rational_vector,
    rational_string,
    reduced_dimension,
    validate_base_point,
)
from .signvec import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    UNDETERMINED,
    _check_length,
    canonical_sign_vectors,
    eliminated_set,
    sign_rows,
    table,
    vector_count,
)

__all__ = [
    "ProjectionFamily",
    "ScorePair",
    "BasePointReport",
    "Certificate",
    "GateAnalysis",
    "DataBound",
    "ExperimentRecord",
    "BooleanSensitivity",
    "ENV_BASE_POINT_CAP",
    "DEFAULT_BASE_POINT_CAP",
    "default_family",
    "sign_over_region",
    "total_sign",
    "reduced_coordinates",
    "sensitivity_lower_set",
    "sensitivity_score",
    "log3_value",
    "format_log3",
    "analyze_gate",
    "reversibility_certificate",
    "verify_certificate",
    "boolean_sensitivity",
    "parse_experiment_csv",
    "data_upper_bound",
    "witness_signs",
    "experiment_header",
]

DEFAULT_BASE_POINT_CAP = 4096
ENV_BASE_POINT_CAP = "SIGNELIM_BASE_POINT_CAP"

Index = tuple[int, ...]
Vector = tuple[Fraction, ...]
Witnesses = tuple[tuple[Vector, tuple[int, ...]], ...]  # (functional, total sign) pairs


def _check_caps(expansion: MultilinearExpansion) -> None:
    """Reject a sweep whose base points or reduced dimension exceed their caps."""
    count = math.prod(expansion.arities)
    check_cap(count, ENV_BASE_POINT_CAP, DEFAULT_BASE_POINT_CAP, "base point count")
    n_reduced = reduced_dimension(expansion)
    check_cap(n_reduced, ENV_MAX_N, DEFAULT_MAX_N, "reduced dimension")


def _weights(functionals: Sequence[Sequence[Fraction]], width: int) -> np.ndarray:
    """The functionals of ``width`` components scaled by _cleared (which keeps
    every sign), one row each of exact Python ints in an object matrix."""
    scaled, _ = _cleared(functionals)
    return np.array(scaled, dtype=object).reshape(len(scaled), width)


@dataclass(frozen=True)
class ProjectionFamily:
    """Nonzero rational output functionals, one representative per +- class.

    Every entry is read by parse_rational (errors name ``functional <pos>``);
    each functional's sign is normalized (first nonzero component positive)
    and duplicates are dropped, keeping first occurrences. Derived once:
    ``weights``, the functionals scaled by _weights (read-only), and
    ``strings``, each entry's rational_string, which the CLI prints.
    """

    functionals: tuple[Vector, ...]
    output_dim: int
    weights: np.ndarray = field(init=False, compare=False, repr=False)
    strings: tuple[tuple[str, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # type(), not isinstance: True is a bool, which subclasses int
        if type(self.output_dim) is not int or self.output_dim < 1:
            raise DomainError(f"output_dim must be an int >= 1, got {self.output_dim!r}")
        seen = {}  # a dict keeps first-occurrence order
        for pos, raw in enumerate(self.functionals):
            w = parse_rational_vector(raw, f"functional {pos}")
            if len(w) != self.output_dim:
                raise ValidationError(
                    f"functional {pos}: expected {self.output_dim} components, got {len(w)}"
                )
            lead = next((c for c in w if c != 0), None)
            if lead is None:
                raise ValidationError(f"functional {pos}: must be nonzero")
            seen.setdefault(w if lead > 0 else tuple(-c for c in w))
        if not seen:
            raise ValidationError("a projection family must be nonempty")
        object.__setattr__(self, "functionals", tuple(seen))
        object.__setattr__(self, "weights", _weights(self.functionals, self.output_dim))
        self.weights.setflags(write=False)
        object.__setattr__(self, "strings", tuple(tuple(map(rational_string, w)) for w in seen))

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], output_dim: int) -> "ProjectionFamily":
        """The family of ``vectors``, normalized and deduplicated."""
        return cls(functionals=tuple(vectors), output_dim=output_dim)


@lru_cache(maxsize=8, typed=True)
def default_family(output_dim: int) -> ProjectionFamily:
    """All {-1, 0, +1} functionals, one per +- class, in enumeration order.

    Cached per output_dim (typed, so 1.0 and True still fail the length
    check): the family is frozen and holds only tuples.
    """
    vectors = canonical_sign_vectors(output_dim)
    return ProjectionFamily.from_vectors(vectors, output_dim)


def reduced_coordinates(arities: Sequence[int], z: Sequence[int]) -> list[tuple[int, int]]:
    """The free (block, coordinate) pairs at base point z, in report order."""
    point = _base_point(arities, z)
    return [(i, j) for i, (a, c) in enumerate(zip(arities, point)) for j in _free(a)[c].tolist()]


def _free(a: int) -> np.ndarray:
    """Row c: the coordinates j != c of a block of arity a, in order."""
    k = np.arange(a - 1)
    return k + (k >= np.arange(a)[:, None])


def _region_sign(signs: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The region-sign rule as int8 codes, elementwise: each entry of the
    int8 ``signs`` is an anchor whose coefficients are the entries along
    ``axes``."""
    pos = (signs > 0).any(axis=axes, keepdims=True)
    neg = (signs < 0).any(axis=axes, keepdims=True)
    return np.where(pos & neg | (signs == 0) & (pos | neg), UNDETERMINED, signs)


def sign_over_region(form: MultilinearExpansion, base: Sequence[int]) -> int:
    """Exact sign of a scalar form over the region anchored at `base`.

    Returns +1, -1, 0, or UNDETERMINED, by _region_sign on the form's tensor.
    Exactness rests on multilinearity: region values are convex combinations
    of coefficients with strictly positive weight on the anchor coefficient.
    """
    if form.output_dim != 1:
        raise DomainError("sign_over_region expects a scalar form")
    anchor = validate_base_point(form, base)
    # over zero blocks np.sign of the 0-d array is a Python int
    signs = np.asarray(np.sign(form.tensor[..., 0]), dtype=np.int8)
    return int(_region_sign(signs, tuple(range(signs.ndim)))[anchor])


def _sign_dtype(tensor: np.ndarray, weights: np.ndarray):
    """int64 when it holds every integer _total_signs forms, else object.

    Let B = max |T| * max_f sum_k |W[f, k]| for the tensor T and the weight
    rows W[f]. A value of T @ W.T is a sum of products whose magnitudes add
    up to at most B, so the value and every partial sum of it lie in
    [-B, B], and a pair difference of two values lies in [-2B, 2B]. So when
    2B < 2**63 every one of them is an int64, and int64 arithmetic is exact.
    Each factor of B is taken as at least 1, so T and W fit as well.
    """
    largest = int(np.abs(tensor).max(initial=1))
    weight = int(np.abs(weights).sum(axis=1).max(initial=1))
    return np.int64 if 2 * largest * weight < 2**63 else object


def _total_signs(expansion: MultilinearExpansion, weights: np.ndarray) -> np.ndarray:
    """Total sign of every functional at every base point, as int8 codes.

    ``weights`` holds the functionals as _weights scales them, one row each.
    Entry [z][f] is the total sign of functional f at base point z, in
    reduced_coordinates order; the shape is arities + (len(weights), N).
    An expansion over zero blocks has no free coordinate, so no total sign.
    """
    arities, dim = expansion.arities, expansion.output_dim
    if not arities:
        raise DomainError("vector length must be a positive int, got 0")
    if weights.shape[1] != dim:
        raise DomainError(f"functional must have {dim} components, got {weights.shape[1]}")
    exact = _sign_dtype(expansion.tensor, weights)
    values = expansion.tensor.astype(exact) @ weights.T.astype(exact)
    blocks = []
    for i, a in enumerate(arities):
        x = np.moveaxis(values, i, 0)
        # [c, j, rest..., f]: the sign of the partial's coefficient along
        # (i, _free(a)[c, j]) at z_i = c
        signs = np.sign(x[_free(a)] - x[:, None]).astype(np.int8)
        codes = _region_sign(signs, tuple(range(2, signs.ndim - 1)))
        blocks.append(np.moveaxis(codes, (0, 1), (i, -1)))  # to [z..., f, j]
    return np.concatenate(blocks, axis=-1)


def total_sign(
    expansion: MultilinearExpansion, z: Sequence[int], w: Sequence
) -> tuple[int, ...]:
    """Region signs of the N reduced partials of w composed with the expansion."""
    base = validate_base_point(expansion, z)
    w = parse_rational_vector(w, "w")
    return tuple(_total_signs(expansion, _weights([w], len(w)))[base][0].tolist())


def _paired(functionals: Sequence[Vector], codes: np.ndarray) -> Witnesses:
    """(functional, total sign) pairs: functionals[k] with row k of ``codes``."""
    return tuple(zip(functionals, map(tuple, codes.tolist())))


def witness_signs(expansion: MultilinearExpansion, z: Sequence[int], family: ProjectionFamily) -> Witnesses:
    """(functional, total sign) for every family member, in family order."""
    base = validate_base_point(expansion, z)
    return _paired(family.functionals, _total_signs(expansion, family.weights)[base])


def sensitivity_lower_set(
    expansion: MultilinearExpansion, z: Sequence[int], family: ProjectionFamily
) -> frozenset[tuple[int, ...]]:
    """Canonical vectors eliminated by some witness total sign at z.

    A subset of the true sensitive set: every vector in it is certified
    sensitive by an explicit projection, so downstream scores are lower
    bounds.
    """
    signs = [ts for _, ts in witness_signs(expansion, z, family)]
    n_reduced = reduced_dimension(expansion)
    return eliminated_set(signs, n_reduced)


@dataclass(frozen=True)
class ScorePair:
    """An exact sensitivity score and its base-3 logarithm."""

    value: int
    log3: float


def log3_value(value: int) -> float:
    """Base-3 logarithm, exact at integer powers of 3."""
    if value < 1:
        raise DomainError(f"score must be >= 1, got {value}")
    exponent = round(math.log(value) / math.log(3)) if value > 1 else 0
    if exponent >= 0 and 3**exponent == value:
        return float(exponent)
    return math.log(value) / math.log(3)


def format_log3(value: int) -> str:
    """12-digit decimal rendering used in machine output."""
    return f"{log3_value(value):.12f}"


def _score(n_reduced: int, eliminated: int) -> ScorePair:
    """The score 3**N - 2 * (size of an eliminated set), with its log3."""
    value = 3**n_reduced - 2 * eliminated
    return ScorePair(value=value, log3=log3_value(value))


class _LowerSet:
    """A set of sign vectors of length n: ``bits``, its read-only packed row
    over table(n), and ``size``, its popcount, with ``rows``: the read-only
    int8 matrix of the live total signs (with a +-1 entry) that eliminate
    it, no two equal up to sign, or None for a set given without them. Its
    bool ``mask`` and its frozenset of tuples are built on first use."""

    def __init__(self, bits: np.ndarray, n: int, rows: Optional[np.ndarray] = None) -> None:
        self.bits, self.n, self.rows = bits, n, rows
        self.size = int(np.bitwise_count(bits).sum())

    @cached_property
    def mask(self) -> np.ndarray:
        mask = unpacked(self.bits, vector_count(self.n))
        mask.setflags(write=False)
        return mask

    @cached_property
    def vectors(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, table(self.n)[self.mask].tolist()))


def _lower_scores(n_reduced: int, records: Sequence[_LowerSet]) -> list[ScorePair]:
    """Score of each set ``records`` holds, all of length N.

    Elimination is symmetric and reflexive on sign vectors, so the score of
    a set S is also 1 + 2 * #{s in S : E(s) within S}, and three closed forms
    need no kernel call:

    * an empty set scores 1, and a full set 3**N (its complement is empty);
    * a set whose ``rows`` have a column j that is "u" in every row scores
      1: every s in S = E(rows) has s_j = 0, and s eliminates s + e_j (the
      products on supp(s) are all +1), which lies outside S, so no s in S is
      interior;
    * any other set of one row t (t has no "u") scores 3. Up to sign, an s
      in S = E(t) equals t on a nonempty part A of t's +-1 positions P, is 0
      on the rest of P, and is free on t's 0 positions. E(s) lies within S
      exactly when s = +-t; else s eliminates s_j e_j, for a nonzero s_j at
      a 0 position j of t, or s - t_k e_k, for k in P outside A, not in S.

    The other complements go to the transform, whose cost does not grow with
    their size, stacked in _batches of 3**N grid cells per set.
    """
    scores: list[Optional[ScorePair]] = [None] * len(records)
    mixed, count = [], vector_count(n_reduced)
    for k, record in enumerate(records):
        if record.size in (0, count):  # S's complement is everything or nothing
            scores[k] = _score(n_reduced, count - record.size)
        elif record.rows is not None and (record.rows == UNDETERMINED).all(axis=0).any():
            scores[k] = _score(n_reduced, count)  # no s in S is interior
        elif record.rows is not None and len(record.rows) == 1:
            scores[k] = _score(n_reduced, count - 1)  # only +-rows[0] is interior
        else:
            mixed.append(k)
    for lo, hi in _batches([3**n_reduced] * len(mixed)):
        batch = mixed[lo:hi]
        complements = unpacked(~np.stack([records[k].bits for k in batch]), count)
        counts = _elimination_counts(n_reduced, complements)
        for k, eliminated in zip(batch, np.count_nonzero(counts, axis=1).tolist()):
            scores[k] = _score(n_reduced, eliminated)
    return scores


def sensitivity_score(n_reduced: int, sens_subset: Iterable[Sequence[int]]) -> ScorePair:
    """score(S) = 3**N - 2 * |eliminated set of the complement of S|.

    S must consist of canonical vectors of length N. Monotone in S, from the
    empty set to everything, so log3 ranges over [0, N].
    """
    rows = sign_rows(sens_subset, n_reduced)
    _check_length(n_reduced)
    mask = np.zeros(vector_count(n_reduced), dtype=bool)
    if rows:
        # table(N) is in ascending order of its rows' base-3 codes
        codes = _base3_index(np.array(rows, dtype=np.int8))
        mask[np.searchsorted(_canonical_index(n_reduced), codes)] = True
    return _lower_scores(n_reduced, [_LowerSet(np.packbits(mask), n_reduced)])[0]


@dataclass(frozen=True)
class Certificate:
    """A replayable injectivity witness: base point plus covering projections.

    Valid when the recorded total signs match a recomputation and their
    eliminated sets jointly cover every canonical vector of the reduced
    dimension; verify_certificate replays exactly that. ``_picks``, not
    compared, holds each witness's position in the family it was found in.
    """

    base_point: Index
    witnesses: Witnesses
    n_reduced: int
    _picks: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)


def _greedy_certificate(
    z: Index, functionals: Sequence[Vector], signs: np.ndarray, n_reduced: int
) -> Certificate:
    """Pruned greedy cover; the witnesses must jointly eliminate everything.

    Row k of the int8 matrix ``signs`` is the total sign of functionals[k],
    and row k of row_mask_bits its eliminated set, packed. Each step takes
    the first witness of largest gain, the popcount of the vectors it adds,
    until no vector is left uncovered; pruning then drops, in the order
    chosen, every witness the others still cover without.
    """
    rows = table(n_reduced)
    masks = row_mask_bits(rows, signs)
    # every vector, as the witnesses eliminate them all
    uncovered, left, chosen = np.bitwise_or.reduce(masks), rows.shape[0], []
    while left:
        gains = np.bitwise_count(masks & uncovered).sum(axis=1)
        best = int(np.argmax(gains))  # first maximum
        chosen.append(best)
        left -= int(gains[best])
        uncovered &= ~masks[best]
    pruned = list(chosen)
    for k in chosen:
        trial = [j for j in pruned if j != k]
        if trial and np.bitwise_count(np.bitwise_or.reduce(masks[trial])).sum() == rows.shape[0]:
            pruned = trial
    return Certificate(
        base_point=z,
        witnesses=_paired([functionals[k] for k in pruned], signs[pruned]),
        n_reduced=n_reduced,
        _picks=tuple(pruned),
    )


def verify_certificate(
    expansion: MultilinearExpansion, certificate: Certificate
) -> bool:
    """Replay the certificate: recompute total signs and coverage."""
    n_reduced = reduced_dimension(expansion)
    if certificate.n_reduced != n_reduced:
        return False
    try:
        z = validate_base_point(expansion, certificate.base_point)
    except DomainError:
        return False
    witnesses = certificate.witnesses
    functionals = [parse_rational_vector(w, f"certificate witness {k}") for k, (w, _) in enumerate(witnesses)]
    if any(len(w) != expansion.output_dim for w in functionals):
        return False
    codes = _total_signs(expansion, _weights(functionals, expansion.output_dim))[z]
    if codes.tolist() != [list(ts) for _, ts in witnesses]:
        return False
    rows = table(n_reduced)
    return int(np.bitwise_count(eliminated_any_mask(rows, codes)).sum()) == rows.shape[0]


@dataclass(frozen=True)
class BasePointReport:
    """Everything computed at one base point.

    The witnesses are stored once: ``_functionals``, the family's tuple,
    which all reports of an analysis share, and ``_sign_bytes``, the bytes
    of their int8 (F, N) total signs. ``witnesses`` pairs them on first
    access, and ``_signs`` is their read-only int8 view. ``mask`` marks,
    over ``table(N)``, the vectors some witness eliminates, and
    ``sens_lower`` holds them as tuples: views of the sweep's _LowerSet,
    built on first access once per record, which reports with equal witness
    signs share; determined by the sign bytes, the record takes no part in
    equality or hashing.
    """

    base_point: Index
    score: ScorePair
    certificate: Optional[Certificate]
    data_upper: Optional[ScorePair]
    _lower: _LowerSet = field(compare=False, repr=False)
    _functionals: tuple[Vector, ...] = field(repr=False)
    _sign_bytes: bytes = field(repr=False)

    @cached_property
    def witnesses(self) -> Witnesses:
        return _paired(self._functionals, self._signs)

    @property
    def _signs(self) -> np.ndarray:
        return np.frombuffer(self._sign_bytes, dtype=np.int8).reshape(len(self._functionals), -1)

    @property
    def mask(self) -> np.ndarray:
        """The bool mask over table(N) of the vectors some witness eliminates."""
        return self._lower.mask

    @property
    def sens_lower(self) -> frozenset[tuple[int, ...]]:
        """The vectors ``mask`` marks, as tuples."""
        return self._lower.vectors


@dataclass(frozen=True)
class DataBound:
    """Upper bound extracted from output collisions in experiment records."""

    score: ScorePair
    base_point: Index
    collisions: int
    heuristic: bool


@dataclass(frozen=True)
class GateAnalysis:
    """Per-base-point reports plus the gate-level extremes."""

    reports: tuple[BasePointReport, ...]
    lower: ScorePair
    lower_base_point: Index
    certificate: Optional[Certificate]
    data: Optional[DataBound]
    n_reduced: int


@dataclass(frozen=True)
class ExperimentRecord:
    """One observation: a point of the simplex product and the gate output."""

    point: tuple[Vector, ...]
    output: Vector


@dataclass(frozen=True)
class _Coded:
    """Experiment records as one matrix of value ids, with ``lines``, the
    rows' CSV line numbers if read from a CSV.

    Row k holds record k's coordinates, block by block, then its output, as
    indices into ``values``, the distinct exact values in ascending order: an
    id is its value's rank, whatever the spelling (1/2, 2/4, 0.5 share one).
    """

    ids: np.ndarray
    values: tuple[Fraction, ...]
    lines: tuple[int, ...] = ()

    @classmethod
    def ranked(cls, flat: list[int], values: list[Fraction], width: int, lines=()):
        """From row-major ids into distinct ``values``, renumbered by value."""
        order = np.argsort(_scaled(values, np.arange(len(values)))[0])
        ids = np.argsort(order)[np.array(flat, dtype=np.intp).reshape(-1, width)]
        return cls(ids, tuple(values[k] for k in order.tolist()), tuple(lines))


def _coded(records, arities: Sequence[int], output_dim: int) -> _Coded:
    """ExperimentRecords as one coded matrix, once the first record with a
    wrong length or an inexact entry (by parse_rational's rule) has raised;
    a _Coded passes through."""
    if isinstance(records, _Coded):
        return records
    ids, flat = _ValueIds(), []  # every entry's id, row-major
    for pos, record in enumerate(records, start=1):
        if len(record.point) != len(arities):
            raise ValidationError(f"record {pos}: expected {len(arities)} blocks")
        for i, (block, arity) in enumerate(zip(record.point, arities), 1):
            if len(block) != arity:
                raise ValidationError(f"record {pos}: block {i} must have {arity} coordinates")
        if len(record.output) != output_dim:
            raise ValidationError(f"record {pos}: output must have {output_dim} components")
        try:
            flat += ids.row(list(chain(*record.point, record.output)))
        except ValidationError as exc:
            raise ValidationError(f"record {pos}: {exc}")
    return _Coded.ranked(flat, list(ids.values), sum(arities) + output_dim)


def _first_faults(coded: _Coded, arities: Sequence[int], bad) -> tuple[np.ndarray, np.ndarray]:
    """Each record's first faulty block, and whether its fault is the sum.

    A block is faulty when its coordinates do not sum to 1 or ``bad`` holds
    for one of them (asked once per distinct value); the sum is checked
    first. Blocks are 0-based, -1 where a record has no fault.
    """
    ids = coded.ids[:, : sum(arities)]
    points, scale = _scaled(coded.values, ids)
    marked = np.array([bad(v) for v in coded.values], dtype=bool)[ids]
    starts = np.cumsum((0,) + tuple(arities[:-1]))
    off_sum = np.add.reduceat(points, starts, axis=1) != scale
    faulty = off_sum | np.logical_or.reduceat(marked, starts, axis=1)
    first = np.where(faulty.any(axis=1), faulty.argmax(axis=1), -1)
    is_sum = off_sum[np.arange(first.size), first] & (first >= 0)
    return first, is_sum


def _validate_records(records, expansion: MultilinearExpansion, delta: Fraction) -> _Coded:
    """The records as _coded's matrix, once checked.

    Every record must have the expansion's block and output lengths, every
    block must sum to 1, and every coordinate must be > 0 and >= delta. A
    record is checked block by block up to its first faulty block: a sum
    fault there raises at once, an interior fault rejects the record, and
    the rejected positions are reported together.
    """
    if delta < 0:
        raise DomainError("delta must be >= 0")
    coded = _coded(records, expansion.arities, expansion.output_dim)
    first, is_sum = _first_faults(coded, expansion.arities, lambda v: v <= 0 or v < delta)
    if is_sum.any():
        k = int(is_sum.argmax())
        raise ValidationError(f"record {k + 1}: block {first[k] + 1} coordinates must sum to 1")
    if (first >= 0).any():
        margin = f" and >= {delta}" if delta > 0 else ""
        raise ValidationError(
            f"records not strictly interior (every coordinate must be > 0{margin}): "
            f"positions {(np.flatnonzero(first >= 0) + 1).tolist()}"
        )
    return coded


def _sorted_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows' lexicographic order, and along it whether each row differs
    from the row before it: the distinct rows are matrix[order[first]]."""
    order = np.lexsort(matrix.T[::-1])
    # the sorted rows as one opaque value each, so neighbours compare at once
    row = np.dtype((np.void, matrix.itemsize * matrix.shape[1]))
    ordered = np.take(matrix, order, axis=0).view(row)[:, 0]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, first


def _collision_pairs(
    ranks: np.ndarray, values: Sequence[Fraction], outputs: np.ndarray, eps: Fraction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Colliding records as index arrays (a, b), a < b elementwise, and the
    int8 rows sign(ranks[b] - ranks[a]).

    Two records collide when their points differ and every output component
    differs by at most eps. Rows of ``ranks`` and ``outputs`` hold record k's
    point and output as ids into ``values``, which are value ranks, so a pair
    is at one point exactly when its sign row is zero. The records are sorted
    once and each is paired with the later ones inside a ``searchsorted``
    window: for eps = 0 the sort is _sorted_rows of the outputs and the window
    a run of equal rows; for eps > 0 the key is the first output component
    scaled to ints by _scaled with eps, the window a width of eps on it, and
    the other components are compared on the scaled ints. The cost is the
    number of records plus the number of candidate pairs, not the square of
    the record count.
    """
    if eps < 0:
        raise DomainError("eps must be >= 0")
    if eps == 0:
        order, first = _sorted_rows(outputs)
        key, width = np.cumsum(first), 0
    else:
        scaled, scale = _scaled(values, outputs, eps)
        order = np.argsort(scaled[:, 0], kind="stable")
        key, width = scaled[order, 0], int(eps * scale)
    counts = np.searchsorted(key, key + width, side="right") - np.arange(1, key.size + 1)
    # one candidate (left, right) per sorted position and each later position
    # inside its window
    left = np.repeat(np.arange(key.size), counts)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[left], order[right]
    del left, right  # 16 B per candidate pair, not read again
    a, b = np.minimum(a, b), np.maximum(a, b)
    # one input column at a time, so no pairs x columns int64 array is built
    signs = np.empty((a.size, ranks.shape[1]), dtype=np.int8)
    for c, column in enumerate(ranks.T):
        signs[:, c] = np.sign(column[b] - column[a])
    keep = signs.any(axis=1)
    if eps > 0:
        for c in range(1, outputs.shape[1]):
            keep &= abs(scaled[a, c] - scaled[b, c]) <= width
    return a[keep], b[keep], signs[keep]


def _collision_scores(
    records, expansion: MultilinearExpansion, eps: Fraction, delta: Fraction
) -> tuple[dict[Index, ScorePair], Optional[DataBound]]:
    """Collision score at every base point, and the first maximum as a bound.

    The records are coded and checked once, and _collision_pairs gives every
    pair's int8 sign row, block by block. The distinct sign rows, projected
    onto each base point's free coordinates, go through _sweep in blocks of
    base points, each gathered from one array of column indices read off
    _free, the same sweep witness total signs take; each base point scores
    the popcount of its set.
    Returns ({}, None) when no two records collide at distinct points.
    """
    coded = _validate_records(records, expansion, delta)
    _check_caps(expansion)
    width = sum(expansion.arities)
    signs = _collision_pairs(coded.ids[:, :width], coded.values, coded.ids[:, width:], eps)[2]
    if not signs.size:
        return {}, None
    n_reduced = reduced_dimension(expansion)
    # Projecting the distinct rows gives the same row set as projecting all.
    order, first = _sorted_rows(signs)
    distinct = signs[order[first]]
    # row k: the columns of base point zs[k]'s free coordinates, in order
    zs = list(base_points(expansion))
    bases, starts = np.array(zs), np.cumsum((0,) + expansion.arities[:-1])
    columns = np.hstack([starts[i] + _free(a)[bases[:, i]] for i, a in enumerate(expansion.arities)])
    # blocks of base points: the distinct rows on their free coordinates
    projected = _in_blocks(
        zs, distinct.shape[0] * n_reduced, lambda part: distinct[:, columns[part]].swapaxes(0, 1)
    )
    scores = {z: _score(n_reduced, record.size) for z, _, record in _sweep(projected)}
    z = max(scores, key=lambda z: scores[z].value)
    return scores, DataBound(
        score=scores[z], base_point=z, collisions=len(signs), heuristic=eps > 0
    )


def data_upper_bound(
    records: Sequence[ExperimentRecord],
    expansion: MultilinearExpansion,
    eps: Fraction = Fraction(0),
    delta: Fraction = Fraction(0),
) -> Optional[DataBound]:
    """Upper bound on the gate sensitivity from output collisions.

    Two records with (near-)equal outputs witness a direction the gate cannot
    separate; the signs of their reduced-coordinate differences are collected
    per base point, and the reported bound is the maximum of the
    per-base-point scores, matching the gate score's maximum over base
    points. Exact for eps = 0; eps > 0 marks the bound heuristic. Returns
    None when no two records collide at distinct points.
    """
    (eps,) = parse_rational_vector([eps], "eps")
    (delta,) = parse_rational_vector([delta], "delta")
    return _collision_scores(records, expansion, eps, delta)[1]


def _sweep(blocks: Iterable[tuple[Sequence[Index], np.ndarray]]):
    """Lazily yield (z, rows, _LowerSet of the rows' eliminated set) per base
    point.

    ``blocks`` gives base points zs with their int8 sign rows shaped (len(zs),
    rows, N), a block of at most _BATCH_CELLS entries or of one base point:
    the witnesses' total signs, or the projected collision rows; one block is
    in hand at a time. A row with no +-1 entry eliminates nothing (its
    eliminated vectors agree with it on a nonempty set of +-1 positions), so
    only live rows reach the kernel, once each up to sign, and a base point
    without one gets the all-zero row of the empty set, which the scan
    returns without scanning a row. Records are memoized for the sweep by
    the set of live rows up to sign (t and -t eliminate the same vectors):
    equal sets share one record, which keeps the rows the scan was given,
    one per id, in ``rows``; its packed row and its rows are read-only. The
    sets a block meets first go to the scan in one call, before its first
    base point is yielded.
    """
    records: dict[frozenset[int], _LowerSet] = {}
    for zs, block in blocks:
        n = block.shape[-1]
        live = (block % 2).any(axis=-1)  # the rows with a +-1 entry
        # A row and its negation as base-4 codes (0, +, u, - as 0, 1, 2, 3);
        # the smaller names a live row up to sign, and -1 a dead one.
        powers = 4 ** np.arange(n, dtype=np.int64)
        ids = np.where(live, np.minimum(block % 4 @ powers, -block % 4 @ powers), -1)
        keys, new = [], {}
        for rows, row_ids in zip(block, ids.tolist()):
            key = frozenset(row_ids).difference((-1,))
            keys.append(key)
            if key not in records and key not in new:
                # one row per id
                new[key] = rows[list({i: k for k, i in enumerate(row_ids) if i >= 0}.values())]
        bits = eliminated_any_masks(table(n), list(new.values()))
        bits.setflags(write=False)
        for (key, kept), row in zip(new.items(), bits):
            kept.setflags(write=False)
            records[key] = _LowerSet(row, n, kept)
        yield from ((z, rows, records[key]) for z, rows, key in zip(zs, block, keys))


def _in_blocks(zs: Sequence[Index], cells: int, rows_of):
    """Yield (zs[s], rows_of(s)) for consecutive slices s of the base points,
    in _batches of ``cells`` entries per base point."""
    for lo, hi in _batches([cells] * len(zs)):
        yield zs[lo:hi], rows_of(slice(lo, hi))


def _witness_sweep(
    expansion: MultilinearExpansion, family: Optional[ProjectionFamily], one_at_a_time: bool
):
    """Check the caps; return the family (default when None), N and the _sweep
    of the family's total signs at all base points, computed when first
    drawn. The sweep's blocks hold one base point each when
    ``one_at_a_time``, for a sweep that may stop early."""
    _check_caps(expansion)
    if family is None:
        family = default_family(expansion.output_dim)
    zs = list(base_points(expansion))

    def every():
        signs = _total_signs(expansion, family.weights)
        signs = signs.reshape((-1,) + signs.shape[-2:])
        signs.setflags(write=False)  # the sweep hands out views of it
        if one_at_a_time:
            yield from (([z], signs[k : k + 1]) for k, z in enumerate(zs))
        else:
            yield from _in_blocks(zs, signs[0].size, signs.__getitem__)

    return family, reduced_dimension(expansion), _sweep(every())


def analyze_gate(
    expansion: MultilinearExpansion,
    family: Optional[ProjectionFamily] = None,
    records: Optional[Sequence[ExperimentRecord]] = None,
    eps: Fraction = Fraction(0),
    delta: Fraction = Fraction(0),
) -> GateAnalysis:
    """Full sweep over base points: witnesses, bounds, and certificates."""
    (eps,) = parse_rational_vector([eps], "eps")
    (delta,) = parse_rational_vector([delta], "delta")
    family, n_reduced, sweep = _witness_sweep(expansion, family, one_at_a_time=False)
    data_upper, data = {}, None
    if records is not None:
        data_upper, data = _collision_scores(records, expansion, eps, delta)
    swept = list(sweep)
    # the sweep hands out one record per distinct set, in first-seen order
    records = list(dict.fromkeys(record for _, _, record in swept))
    scores = dict(zip(records, _lower_scores(n_reduced, records)))
    count, functionals, reports = vector_count(n_reduced), family.functionals, []
    for z, rows, record in swept:
        certificate = _greedy_certificate(z, functionals, rows, n_reduced) if record.size == count else None
        reports.append(
            BasePointReport(z, scores[record], certificate, data_upper.get(z), record, functionals, rows.tobytes())
        )
    # max keeps the first of equal scores
    lower = max(reports, key=lambda r: r.score.value)
    return GateAnalysis(
        reports=tuple(reports),
        lower=lower.score,
        lower_base_point=lower.base_point,
        certificate=next(
            (r.certificate for r in reports if r.certificate is not None), None
        ),
        data=data,
        n_reduced=n_reduced,
    )


def reversibility_certificate(
    expansion: MultilinearExpansion, family: Optional[ProjectionFamily] = None
) -> Optional[Certificate]:
    """First certificate in lexicographic base-point order, or None.

    The sweep draws one base point at a time and stops at the first where
    the family eliminates every sign vector, and scores nothing.
    """
    family, n_reduced, sweep = _witness_sweep(expansion, family, one_at_a_time=True)
    count = vector_count(n_reduced)
    for z, rows, record in sweep:
        if record.size == count:
            return _greedy_certificate(z, family.functionals, rows, n_reduced)
    return None


@dataclass(frozen=True)
class BooleanSensitivity:
    """Classical sensitivity data of a two-valued gate."""

    per_point: dict
    value: int
    insensitive: dict

    def __hash__(self) -> int:
        return hash((frozenset(self.per_point.items()), self.value, frozenset(self.insensitive.items())))


def boolean_sensitivity(gate: Gate) -> BooleanSensitivity:
    """s(gate, z) for every vertex z, the maximum, and the flip-invariant sets.

    Requires every arity to be 2 and at most two distinct output vectors.
    """
    if any(a != 2 for a in gate.arities):
        raise DomainError("boolean sensitivity needs all arities equal to 2")
    t = expand(gate).tensor
    if len(set(map(tuple, t.reshape(-1, gate.output_dim).tolist()))) > 2:
        raise DomainError("boolean sensitivity needs outputs in a 2-point set")
    # changed[z][i]: flipping block i at z changes the output
    changed = np.stack([(t != np.flip(t, i)).any(axis=-1) for i in range(gate.block_count)], -1)
    per_point, insensitive = {}, {}
    for z in base_points(expand(gate)):
        per_point[z] = int(changed[z].sum())
        insensitive[z] = frozenset(np.flatnonzero(~changed[z]).tolist())
    return BooleanSensitivity(
        per_point=per_point,
        value=max(per_point.values()),
        insensitive=insensitive,
    )


# ---------------------------------------------------------------------------
# experiment CSV
# ---------------------------------------------------------------------------


def experiment_header(arities: Sequence[int], output_dim: int) -> list[str]:
    """Column names: b<block>_<coordinate> groups, then y<component>."""
    head = [f"b{i + 1}_{j}" for i, arity in enumerate(arities) for j in range(arity)]
    return head + [f"y{c + 1}" for c in range(output_dim)]


def _read_experiment_csv(path, gate: Gate | MultilinearExpansion) -> _Coded:
    """The CSV's rows as one coded matrix; exact rationals, header checked.

    Rows stream, stripped, through one _ValueIds. A UTF-8 byte order mark is
    skipped; blank lines are skipped but counted. The first faulty line
    raises, its field count checked before its cells. Blocks are checked by
    the callers.
    """
    expected = experiment_header(gate.arities, gate.output_dim)
    cells = _ValueIds()
    ids: list[int] = []
    lines: list[int] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        if [h.strip() for h in header] != expected:
            raise ValidationError(f"{path}: header must be {','.join(expected)}, got {','.join(header)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise ValidationError(f"{path}:{line}: expected {len(expected)} fields, got {len(row)}")
            try:
                ids.extend(map(cells.__getitem__, map(str.strip, row)))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{line}: {exc}")
            lines.append(line)
    return _Coded.ranked(ids, list(cells.values), len(expected), lines)


def parse_experiment_csv(path, gate: Gate | MultilinearExpansion) -> list[ExperimentRecord]:
    """Read experiment records; exact rationals, header checked strictly.

    Every block must sum to 1 and have no negative coordinate; errors name
    the file and the line.
    """
    coded = _read_experiment_csv(path, gate)
    first, is_sum = _first_faults(coded, gate.arities, lambda v: v < 0)
    faulty = np.flatnonzero(first >= 0)
    if faulty.size:
        k = faulty[0]
        fault = "coordinates must sum to 1" if is_sum[k] else "has a negative coordinate"
        raise ValidationError(f"{path}:{coded.lines[k]}: block {first[k] + 1} {fault}")
    starts = np.cumsum((0,) + tuple(gate.arities)).tolist()
    blocks, end = list(zip(starts, starts[1:])), starts[-1]
    rows = [[coded.values[k] for k in row] for row in coded.ids.tolist()]
    return [ExperimentRecord(tuple(tuple(r[i:j]) for i, j in blocks), tuple(r[end:])) for r in rows]
