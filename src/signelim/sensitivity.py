"""Region signs, total signs, sensitivity bounds, and reversibility.

Fix a base point z (one truth value per input block). The region of interest
is the set of points of the simplex product whose base coordinate is nonzero
in every block; the free coordinates are the remaining ones, listed block by
block in input order with the base coordinate skipped. Their count is the
reduced dimension N.

For a scalar multilinear form, the sign over the region is decided exactly
from the coefficient tensor: the form is identically 0 iff all coefficients
are 0; strictly positive iff all coefficients are >= 0 and the all-base
coefficient is > 0 (every region point gives positive weight to the all-base
monomial, and every coefficient is a limit of region values); strictly
negative symmetrically; otherwise the sign is UNDETERMINED ("u").

The total sign of a projection w at z collects the region signs of the N
reduced partial derivatives of w composed with the expansion. They come for
every base point and functional at once from one tensor. With the table T
and the functionals W scaled to integers (positive scales keep every sign),
S = T . W^T holds every functional's value at every table cell. Along block
i, let D[j, c] = S[i = j] - S[i = c], a tensor over the other blocks: the
reduced partial along (i, j) at z is D[j, z_i], and its region sign is 0 when
D[j, z_i] vanishes everywhere, +1 when it is nowhere negative and positive at
the anchor z_{-i}, -1 symmetrically, and "u" otherwise.

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
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .backend import _base3_index, _canonical_index, _row_masks, eliminated_any_mask
from .errors import DomainError, ValidationError, check_cap
from .gates import (
    Gate,
    MultilinearExpansion,
    base_points,
    expand,
    parse_rational,
    rational_string,
    reduced_dimension,
    validate_base_point,
)
from .signvec import (
    DEFAULT_MAX_N,
    ENV_MAX_N,
    UNDETERMINED,
    canonical_sign_vectors,
    eliminated_set,
    sign_rows,
    table,
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
]

DEFAULT_BASE_POINT_CAP = 4096
ENV_BASE_POINT_CAP = "SIGNELIM_BASE_POINT_CAP"

Index = tuple[int, ...]
Vector = tuple[Fraction, ...]


def _check_caps(expansion: MultilinearExpansion) -> None:
    """Reject a sweep whose base points or reduced dimension exceed their caps."""
    count = math.prod(expansion.arities)
    check_cap(count, ENV_BASE_POINT_CAP, DEFAULT_BASE_POINT_CAP, "base point count")
    n_reduced = reduced_dimension(expansion)
    check_cap(n_reduced, ENV_MAX_N, DEFAULT_MAX_N, "reduced dimension")


@dataclass(frozen=True)
class ProjectionFamily:
    """Nonzero rational output functionals, one representative per +- class."""

    functionals: tuple[Vector, ...]
    output_dim: int

    def __post_init__(self) -> None:
        if self.output_dim < 1:
            raise DomainError("output_dim must be >= 1")
        if not self.functionals:
            raise DomainError("a projection family must be nonempty")
        for w in self.functionals:
            if len(w) != self.output_dim:
                shown = [rational_string(c) for c in w]
                raise DomainError(
                    f"functional {shown} must have {self.output_dim} components"
                )

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], output_dim: int) -> "ProjectionFamily":
        """Normalize sign (first nonzero component positive) and deduplicate."""
        seen = {}  # a dict keeps first-occurrence order
        for raw in vectors:
            w = tuple(Fraction(v) for v in raw)
            lead = next((c for c in w if c != 0), None)
            if lead is None:
                raise DomainError("functionals must be nonzero")
            if lead < 0:
                w = tuple(-c for c in w)
            seen.setdefault(w)
        return cls(functionals=tuple(seen), output_dim=output_dim)


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
    return [
        (i, j)
        for i, arity in enumerate(arities)
        for j in range(arity)
        if j != z[i]
    ]


def sign_over_region(form: MultilinearExpansion, base: Sequence[int]) -> int:
    """Exact sign of a scalar form over the region anchored at `base`.

    Returns +1, -1, 0, or UNDETERMINED. Exactness rests on multilinearity:
    region values are convex combinations of coefficients with strictly
    positive weight on the all-base coefficient. total_sign applies the same
    rule to every reduced partial at once.
    """
    if form.output_dim != 1:
        raise DomainError("sign_over_region expects a scalar form")
    anchor = validate_base_point(form, base)
    base_value = form.coefficients[anchor][0]
    has_pos = has_neg = False
    for vec in form.coefficients.values():
        if vec[0] > 0:
            has_pos = True
        elif vec[0] < 0:
            has_neg = True
    if not has_pos and not has_neg:
        return 0
    if not has_neg and base_value > 0:
        return 1
    if not has_pos and base_value < 0:
        return -1
    return UNDETERMINED


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rows times the lcm of all their denominators, as Python ints, and the lcm.

    The positive scale keeps every sign and every comparison, and a row sums
    to 1 exactly when its ints sum to the lcm.
    """
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def _total_signs(
    expansion: MultilinearExpansion, functionals: Sequence[Sequence]
) -> np.ndarray:
    """Total sign of every functional at every base point, as int8 codes.

    Entry [z][f] is the total sign of functionals[f] at base point z, in
    reduced_coordinates order; the shape is arities + (len(functionals), N).
    Entries must be Fractions or ints; the public callers convert theirs.
    """
    arities = expansion.arities
    dim = expansion.output_dim
    for w in functionals:
        if len(w) != dim:
            raise DomainError(f"functional must have {dim} components, got {len(w)}")
    # One positive scale for the table and one for the functionals keep every
    # sign, and every comparison between values of one functional. Object
    # arrays of Python ints keep the products exact at any size.
    cells = product(*(range(a) for a in arities))
    tensor = np.array(
        _cleared([expansion.coefficients[idx] for idx in cells])[0], dtype=object
    )
    scaled, _ = _cleared(functionals)
    weights = np.array(scaled, dtype=object).reshape(len(scaled), dim)
    values = (tensor @ weights.T).reshape(arities + (len(scaled),))
    blocks = []
    for i, a in enumerate(arities):
        x = np.moveaxis(values, i, 0)
        # [j, c, rest..., f]: the partial along (i, j) at z_i = c is > 0 / < 0
        above = x[:, None] > x[None, :]
        below = x[:, None] < x[None, :]
        rest = tuple(range(2, above.ndim - 1))
        pos = above.any(axis=rest, keepdims=True)
        neg = below.any(axis=rest, keepdims=True)
        codes = np.where(
            pos | neg,
            np.where(~neg & above, 1, np.where(~pos & below, -1, UNDETERMINED)),
            0,
        ).astype(np.int8)
        # to [z..., f, j], then drop j == z_i
        codes = np.moveaxis(np.moveaxis(codes, 0, -1), 0, i)
        free = np.array([[j for j in range(a) if j != c] for c in range(a)])
        shape = [1] * codes.ndim
        shape[i], shape[-1] = a, a - 1
        blocks.append(np.take_along_axis(codes, free.reshape(shape), axis=-1))
    return np.concatenate(blocks, axis=-1)


def total_sign(
    expansion: MultilinearExpansion, z: Sequence[int], w: Sequence
) -> tuple[int, ...]:
    """Region signs of the N reduced partials of w composed with the expansion."""
    base = validate_base_point(expansion, z)
    w = tuple(Fraction(v) for v in w)
    return tuple(_total_signs(expansion, [w])[base][0].tolist())


def witness_signs(
    expansion: MultilinearExpansion, z: Sequence[int], family: ProjectionFamily
) -> tuple[tuple[Vector, tuple[int, ...]], ...]:
    """(functional, total sign) for every family member, in family order."""
    base = validate_base_point(expansion, z)
    if family.output_dim != expansion.output_dim:
        raise DomainError(
            f"family works on dimension {family.output_dim}, "
            f"gate outputs have dimension {expansion.output_dim}"
        )
    codes = _total_signs(expansion, family.functionals)[base]
    return tuple(zip(family.functionals, map(tuple, codes.tolist())))


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


def _lower_score(n_reduced: int, mask: np.ndarray) -> ScorePair:
    """Score of the set `mask` marks over the length-N enumeration.

    An empty set scores 1, since every vector eliminates itself and so the
    complement eliminates everything, and a full set scores 3**N, since its
    empty complement eliminates nothing; neither calls the kernel.
    """
    if not mask.any():
        return _score(n_reduced, mask.size)
    if mask.all():
        return _score(n_reduced, 0)
    rows = table(n_reduced)
    return _score(n_reduced, int(eliminated_any_mask(rows, rows[~mask]).sum()))


def _witness_score(
    n_reduced: int, mask: np.ndarray, witnesses: Sequence[tuple[Vector, tuple[int, ...]]]
) -> ScorePair:
    """Score of the set `mask` marks, which the witnesses' total signs eliminate.

    Elimination is symmetric and reflexive on sign vectors, so the score of
    a set S is also 1 + 2 * #{s in S : E(s) within S}. When the live total
    signs (those with a +-1 entry) are one t up to sign, that count is known.
    Up to sign, an s in S = E(t) equals t on a nonempty part A of t's +-1
    positions P, is 0 on the rest of P and on t's "u" positions, and is free
    on t's 0 positions. E(s) lies within S exactly when s = +-t and t has no
    "u"; otherwise s eliminates a vector that t does not:

    * s_j e_j, for a nonzero s_j at a 0 position j of t;
    * s - t_k e_k, for k in P outside A;
    * s + e_j, for a "u" position j of t.

    So the score is 3 when t has no "u" and 1 when it has one, with no
    kernel call; any other set goes to _lower_score.
    """
    live = set()
    for _, ts in witnesses:
        lead = next((e for e in ts if e in (1, -1)), 0)
        if lead:
            live.add(tuple(e if e == UNDETERMINED else e * lead for e in ts))
    if len(live) == 1:
        value = 1 if UNDETERMINED in live.pop() else 3
        return ScorePair(value=value, log3=log3_value(value))
    return _lower_score(n_reduced, mask)


def sensitivity_score(n_reduced: int, sens_subset: Iterable[Sequence[int]]) -> ScorePair:
    """score(S) = 3**N - 2 * |eliminated set of the complement of S|.

    S must consist of canonical vectors of length N. Monotone in S, 1 when S
    is empty, 3**N when S is everything, so log3 ranges over [0, N].
    """
    rows = sign_rows(sens_subset, n_reduced)
    mask = np.zeros(table(n_reduced).shape[0], dtype=bool)  # table checks N
    if rows:
        # table(N) is in ascending order of its rows' base-3 codes
        codes = _base3_index(np.array(rows, dtype=np.int8))
        mask[np.searchsorted(_canonical_index(n_reduced), codes)] = True
    return _lower_score(n_reduced, mask)


@dataclass(frozen=True)
class Certificate:
    """A replayable injectivity witness: base point plus covering projections.

    Valid when the recorded total signs match a recomputation and their
    eliminated sets jointly cover every canonical vector of the reduced
    dimension; verify_certificate replays exactly that.
    """

    base_point: Index
    witnesses: tuple[tuple[Vector, tuple[int, ...]], ...]
    n_reduced: int


def _greedy_certificate(
    z: Index,
    signs: Sequence[tuple[Vector, tuple[int, ...]]],
    n_reduced: int,
) -> Certificate:
    """Pruned greedy cover; the witnesses must jointly eliminate everything.

    Row k of one mask matrix, built in one _row_masks call, is witness k's
    eliminated set. Each step takes the first witness of largest gain;
    pruning then drops, in the order chosen, every witness the others still
    cover without.
    """
    rows = table(n_reduced)
    masks = _row_masks(rows, np.array([ts for _, ts in signs], dtype=np.int8))
    covered = np.zeros(rows.shape[0], dtype=bool)
    chosen = []
    while not covered.all():
        best = int(np.argmax((masks & ~covered).sum(axis=1)))  # first maximum
        chosen.append(best)
        covered |= masks[best]
    pruned = list(chosen)
    for k in chosen:
        trial = [j for j in pruned if j != k]
        if trial and masks[trial].any(axis=0).all():
            pruned = trial
    return Certificate(
        base_point=z,
        witnesses=tuple(signs[k] for k in pruned),
        n_reduced=n_reduced,
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
    functionals = [tuple(Fraction(v) for v in w) for w, _ in witnesses]
    codes = _total_signs(expansion, functionals)[z]
    if codes.tolist() != [list(ts) for _, ts in witnesses]:
        return False
    return bool(eliminated_any_mask(table(n_reduced), codes).all())


@dataclass(frozen=True)
class BasePointReport:
    """Everything computed at one base point.

    ``mask`` marks, over the length-N enumeration ``table(N)``, the vectors
    some witness eliminates; it is read-only, reports of one analysis with
    equal witness signs share one array, and, being determined by the
    witnesses, it takes no part in equality or hashing. ``sens_lower`` is the
    same set as a frozenset of tuples, built on first access.
    """

    base_point: Index
    witnesses: tuple[tuple[Vector, tuple[int, ...]], ...]
    mask: np.ndarray = field(compare=False, repr=False)
    score: ScorePair
    certificate: Optional[Certificate]
    data_upper: Optional[ScorePair]

    @cached_property
    def sens_lower(self) -> frozenset[tuple[int, ...]]:
        """The vectors ``mask`` marks, as tuples."""
        rows = table(len(self.witnesses[0][1]))[self.mask]
        return frozenset(map(tuple, rows.tolist()))


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


def _validate_records(
    records: Sequence[ExperimentRecord],
    expansion: MultilinearExpansion,
    delta: Fraction,
) -> None:
    if delta < 0:
        raise DomainError("delta must be >= 0")
    rejected = []
    for pos, record in enumerate(records, start=1):
        if len(record.point) != expansion.block_count:
            raise ValidationError(
                f"record {pos}: expected {expansion.block_count} blocks"
            )
        for i, (block, arity) in enumerate(zip(record.point, expansion.arities), 1):
            if len(block) != arity:
                raise ValidationError(
                    f"record {pos}: block {i} must have {arity} coordinates"
                )
            (ints,), scale = _cleared([block])
            if sum(ints) != scale:
                raise ValidationError(
                    f"record {pos}: block {i} coordinates must sum to 1"
                )
            # c < delta  <=>  c * scale * delta.denominator < delta.numerator * scale
            if min(ints) <= 0 or min(ints) * delta.denominator < delta.numerator * scale:
                rejected.append(pos)
                break
        if len(record.output) != expansion.output_dim:
            raise ValidationError(
                f"record {pos}: output must have {expansion.output_dim} components"
            )
    if rejected:
        margin = f" and >= {delta}" if delta > 0 else ""
        raise ValidationError(
            f"records not strictly interior (every coordinate must be > 0{margin}): "
            f"positions {rejected}"
        )


def _collision_pairs(
    records: Sequence[ExperimentRecord], eps: Fraction
) -> list[tuple[int, int]]:
    """Colliding records as index pairs (a, b), a < b.

    Two records collide when their points differ and every output component
    differs by at most eps. For eps = 0 the records are bucketed by output and
    pairs are formed only inside a bucket. For eps > 0 the outputs and eps are
    scaled by one lcm to Python ints, the records are sorted by their first
    output component, and each record is paired with the later ones inside a
    window of width eps on that component, the other components checked
    exactly (sort and sweep). The cost is the number of records plus the
    number of candidate pairs (one bucket's, or one window's), not the square
    of the record count.
    """
    if eps < 0:
        raise DomainError("eps must be >= 0")
    if eps == 0:
        buckets: dict[Vector, list[int]] = {}
        for k, record in enumerate(records):
            buckets.setdefault(record.output, []).append(k)
        candidates = [
            pair for bucket in buckets.values() for pair in combinations(bucket, 2)
        ]
    else:
        (*outputs, (width,)), _ = _cleared([r.output for r in records] + [(eps,)])
        order = sorted(range(len(outputs)), key=lambda k: outputs[k][0])
        firsts = [outputs[k][0] for k in order]
        candidates = []
        for pos, a in enumerate(order):
            end = bisect_right(firsts, firsts[pos] + width, lo=pos + 1)
            candidates.extend(
                (min(a, b), max(a, b))
                for b in order[pos + 1 : end]
                if all(
                    abs(p - q) <= width
                    for p, q in zip(outputs[a][1:], outputs[b][1:])
                )
            )
    return [(a, b) for a, b in candidates if records[a].point != records[b].point]


def _collision_scores(
    records: Sequence[ExperimentRecord],
    expansion: MultilinearExpansion,
    eps: Fraction,
    delta: Fraction,
) -> tuple[dict[Index, ScorePair], Optional[DataBound]]:
    """Collision score at every base point, and the first maximum as a bound.

    The pair signs are projected onto each base point's free coordinates;
    each distinct projected row set is scored once per call, and a set with
    no nonzero row scores 3**N without a kernel call. Returns ({}, None) when
    no two records collide at distinct points.
    """
    eps = Fraction(eps)
    delta = Fraction(delta)
    _validate_records(records, expansion, delta)
    _check_caps(expansion)
    pairs = _collision_pairs(records, eps)
    if not pairs:
        return {}, None
    n_reduced = reduced_dimension(expansion)
    rows = table(n_reduced)
    # sign(b - a) of every pair on every input coordinate, block by block, from
    # the points scaled by one positive lcm to Python ints
    points = np.array(
        _cleared([[c for block in r.point for c in block] for r in records])[0],
        dtype=object,
    )
    a, b = np.array(pairs).T
    signs = (points[b] > points[a]).astype(np.int8) - (points[b] < points[a])
    # Projecting the distinct rows gives the same row set as projecting all.
    distinct = np.unique(signs, axis=0)
    starts = np.cumsum((0,) + expansion.arities[:-1])
    counts: dict[bytes, int] = {}  # sorted projected rows -> eliminated count
    scores = {}
    for z in base_points(expansion):
        # The rows are not canonicalized (t and -t eliminate the same
        # vectors); zero rows eliminate none and are dropped. Distinct rows
        # can coincide once projected; the small unique below removes those.
        free = np.unique(np.delete(distinct, starts + z, axis=1), axis=0)
        free = free[free.any(axis=1)]
        key = free.tobytes()
        if key not in counts:
            counts[key] = int(eliminated_any_mask(rows, free).sum()) if free.size else 0
        scores[z] = _score(n_reduced, counts[key])
    z = max(scores, key=lambda z: scores[z].value)
    return scores, DataBound(
        score=scores[z], base_point=z, collisions=len(pairs), heuristic=eps > 0
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
    return _collision_scores(records, expansion, eps, delta)[1]


def _sweep(expansion: MultilinearExpansion, family: ProjectionFamily):
    """Lazily yield (z, witness signs, eliminated mask) per base point.

    A total sign with no +-1 entry eliminates nothing (its eliminated
    vectors agree with it on a nonempty set of +-1 positions), so only the
    live rows reach the kernel, and a base point without one gets an
    all-false mask without a kernel call. Masks are memoized for the length
    of the sweep by the set of live rows up to sign (t and -t eliminate the
    same vectors): base points with equal sets share one read-only array.
    """
    rows = table(reduced_dimension(expansion))
    signs = _total_signs(expansion, family.functionals)
    nonzero = (signs == 1) | (signs == -1)
    live = nonzero.any(axis=-1)
    # Each row times the sign of its first +-1 entry ("u" stays "u"), as one
    # base-4 code: equal codes are equal rows up to sign.
    lead = np.take_along_axis(signs, nonzero.argmax(axis=-1)[..., None], axis=-1)
    unsigned = np.where(signs == UNDETERMINED, UNDETERMINED, signs * lead) % 4
    ids = unsigned @ 4 ** np.arange(signs.shape[-1], dtype=np.int64)
    masks: dict[frozenset[int], np.ndarray] = {}
    for z in base_points(expansion):
        codes = signs[z]
        witnesses = tuple(zip(family.functionals, map(tuple, codes.tolist())))
        key = frozenset(ids[z][live[z]].tolist())
        if key not in masks:
            kept = codes[live[z]]
            if kept.size:
                mask = eliminated_any_mask(rows, kept)
            else:
                mask = np.zeros(rows.shape[0], dtype=bool)
            mask.setflags(write=False)
            masks[key] = mask
        yield z, witnesses, masks[key]


def analyze_gate(
    expansion: MultilinearExpansion,
    family: Optional[ProjectionFamily] = None,
    records: Optional[Sequence[ExperimentRecord]] = None,
    eps: Fraction = Fraction(0),
    delta: Fraction = Fraction(0),
) -> GateAnalysis:
    """Full sweep over base points: witnesses, bounds, and certificates."""
    _check_caps(expansion)
    if family is None:
        family = default_family(expansion.output_dim)
    n_reduced = reduced_dimension(expansion)
    data_upper, data = {}, None
    if records is not None:
        data_upper, data = _collision_scores(records, expansion, eps, delta)
    # The sweep hands out equal masks as one array and keeps each alive while
    # it runs, so a mask's id names its score for the whole analysis.
    scores: dict[int, ScorePair] = {}

    def score(mask: np.ndarray, witnesses) -> ScorePair:
        if id(mask) not in scores:
            scores[id(mask)] = _witness_score(n_reduced, mask, witnesses)
        return scores[id(mask)]

    reports = tuple(
        BasePointReport(
            base_point=z,
            witnesses=signs,
            mask=mask,
            score=score(mask, signs),
            certificate=(
                _greedy_certificate(z, signs, n_reduced) if mask.all() else None
            ),
            data_upper=data_upper.get(z),
        )
        for z, signs, mask in _sweep(expansion, family)
    )
    # max keeps the first of equal scores
    lower = max(reports, key=lambda r: r.score.value)
    return GateAnalysis(
        reports=reports,
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

    The sweep stops at the first base point where the family eliminates
    every sign vector, and scores nothing.
    """
    _check_caps(expansion)
    if family is None:
        family = default_family(expansion.output_dim)
    n_reduced = reduced_dimension(expansion)
    for z, signs, mask in _sweep(expansion, family):
        if mask.all():
            return _greedy_certificate(z, signs, n_reduced)
    return None


@dataclass(frozen=True)
class BooleanSensitivity:
    """Classical sensitivity data of a two-valued gate."""

    per_point: dict
    value: int
    insensitive: dict


def boolean_sensitivity(gate: Gate) -> BooleanSensitivity:
    """s(gate, z) for every vertex z, the maximum, and the flip-invariant sets.

    Requires every arity to be 2 and at most two distinct output vectors.
    """
    if any(a != 2 for a in gate.arities):
        raise DomainError("boolean sensitivity needs all arities equal to 2")
    if len(set(gate.table.values())) > 2:
        raise DomainError("boolean sensitivity needs outputs in a 2-point set")
    per_point = {}
    insensitive = {}
    for z in base_points(expand(gate)):
        flips = 0
        stable = []
        for i in range(len(gate.arities)):
            flipped = z[:i] + (1 - z[i],) + z[i + 1 :]
            if gate.table[flipped] != gate.table[z]:
                flips += 1
            else:
                stable.append(i)
        per_point[z] = flips
        insensitive[z] = frozenset(stable)
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
    head = [
        f"b{i + 1}_{j}" for i, arity in enumerate(arities) for j in range(arity)
    ]
    head += [f"y{c + 1}" for c in range(output_dim)]
    return head


def _read_experiment_csv(
    path, gate: Gate | MultilinearExpansion
) -> list[tuple[int, ExperimentRecord]]:
    """(line number, record) per CSV row; exact rationals, header checked.

    Blocks are not checked here: parse_experiment_csv checks their sums and
    signs, and data_upper_bound and analyze_gate validate every record.
    """
    expected = experiment_header(gate.arities, gate.output_dim)
    # grid coordinates repeat, so each distinct cell text is parsed once
    parse = lru_cache(maxsize=None)(parse_rational)
    records = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        if [h.strip() for h in header] != expected:
            raise ValidationError(
                f"{path}: header must be {','.join(expected)}, "
                f"got {','.join(header)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise ValidationError(
                    f"{path}:{line}: expected {len(expected)} fields, got {len(row)}"
                )
            try:
                values = [parse(cell.strip()) for cell in row]
            except ValidationError as exc:
                raise ValidationError(f"{path}:{line}: {exc}")
            blocks = []
            cursor = 0
            for arity in gate.arities:
                blocks.append(tuple(values[cursor : cursor + arity]))
                cursor += arity
            output = tuple(values[cursor:])
            records.append((line, ExperimentRecord(point=tuple(blocks), output=output)))
    return records


def parse_experiment_csv(path, gate: Gate | MultilinearExpansion) -> list[ExperimentRecord]:
    """Read experiment records; exact rationals, header checked strictly.

    Every block must sum to 1 and have no negative coordinate; errors name
    the file and the line.
    """
    records = []
    for line, record in _read_experiment_csv(path, gate):
        for i, block in enumerate(record.point, start=1):
            (ints,), scale = _cleared([block])
            if sum(ints) != scale:
                raise ValidationError(
                    f"{path}:{line}: block {i} coordinates must sum to 1"
                )
            if min(ints) < 0:
                raise ValidationError(
                    f"{path}:{line}: block {i} has a negative coordinate"
                )
        records.append(record)
    return records
