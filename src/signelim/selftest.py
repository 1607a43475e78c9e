"""Built-in oracle equivalence suite.

Every closed-form count is rechecked against the brute-force enumeration
scan, exhaustively on small instances and on seeded random instances beyond
that. The CLI exposes this as ``signelim selftest`` and exits 3 when any
check disagrees, so a broken build cannot silently report wrong numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .counting import (
    SignMatrix,
    count_eliminated_intersection,
    count_eliminated_oracle,
    count_eliminated_single,
    count_eliminated_union,
    count_intersection_oracle,
    count_pair,
    pair_profile,
)
from .covers import unit_vectors
from .signvec import (
    apply_permutation,
    canonical_sign_vectors,
    eliminated_count,
    is_canonical,
    jointly_eliminated_count,
    negate_coordinate,
    vector_count,
)

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_enumeration() -> CheckResult:
    for n in range(1, 9):
        vectors = canonical_sign_vectors(n)
        if len(vectors) != vector_count(n):
            return CheckResult(
                "enumeration-count",
                False,
                f"n={n}: {len(vectors)} != {vector_count(n)}",
            )
        if len(set(vectors)) != len(vectors):
            return CheckResult("enumeration-count", False, f"n={n}: duplicates")
        if not all(is_canonical(v) for v in vectors):
            return CheckResult("enumeration-count", False, f"n={n}: non-canonical row")
    return CheckResult("enumeration-count", True, "n=1..8 sizes and canonicity")


def _check_self_cover() -> CheckResult:
    for n in range(1, 6):
        vectors = canonical_sign_vectors(n)
        if eliminated_count(vectors, n) != len(vectors):
            return CheckResult("self-cover", False, f"n={n}")
    return CheckResult("self-cover", True, "full enumeration eliminates itself, n=1..5")


def _check_exhaustive(max_n: int) -> CheckResult:
    checked = 0
    for n in range(1, max_n + 1):
        vectors = canonical_sign_vectors(n)
        for size in (1, 2, 3):
            for rows in combinations(vectors, size):
                matrix = SignMatrix(rows)
                closed_inter = count_eliminated_intersection(matrix)
                oracle_inter = count_intersection_oracle(matrix)
                if closed_inter != oracle_inter:
                    return CheckResult(
                        "closed-forms-exhaustive",
                        False,
                        f"intersection {rows}: {closed_inter} != {oracle_inter}",
                    )
                closed_union = count_eliminated_union(rows)
                oracle_union = count_eliminated_oracle(rows, n)
                if closed_union != oracle_union:
                    return CheckResult(
                        "closed-forms-exhaustive",
                        False,
                        f"union {rows}: {closed_union} != {oracle_union}",
                    )
                if size == 1 and count_eliminated_single(rows[0]) != oracle_union:
                    return CheckResult(
                        "closed-forms-exhaustive", False, f"single {rows[0]}"
                    )
                if size == 2:
                    inter_pair, union_pair = count_pair(pair_profile(matrix))
                    if inter_pair != oracle_inter or union_pair != oracle_union:
                        return CheckResult(
                            "closed-forms-exhaustive", False, f"pair {rows}"
                        )
                checked += 1
    return CheckResult(
        "closed-forms-exhaustive",
        True,
        f"n<=%d, |X|<=3: %d instances" % (max_n, checked),
    )


def _check_random(rng: random.Random, instances: int, max_n: int) -> CheckResult:
    for trial in range(instances):
        n = rng.randint(2, max_n)
        vectors = canonical_sign_vectors(n)
        size = rng.randint(1, 4)
        rows = tuple(sorted(rng.sample(vectors, size)))
        matrix = SignMatrix(rows)
        closed_inter = count_eliminated_intersection(matrix)
        oracle_inter = count_intersection_oracle(matrix)
        closed_union = count_eliminated_union(rows)
        oracle_union = count_eliminated_oracle(rows, n)
        if closed_inter != oracle_inter or closed_union != oracle_union:
            return CheckResult(
                "closed-forms-random",
                False,
                f"trial {trial}, rows {rows}: "
                f"inter {closed_inter}/{oracle_inter}, "
                f"union {closed_union}/{oracle_union}",
            )
    return CheckResult(
        "closed-forms-random", True, f"{instances} instances, n<={max_n}, |X|<=4"
    )


def _check_unit_identity(max_n: int) -> CheckResult:
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            rows = sorted(unit_vectors(n, range(d)))
            expected = (3**n - 3 ** (n - d)) // 2
            closed = count_eliminated_union(rows)
            oracle = count_eliminated_oracle(rows, n)
            if not (closed == oracle == expected):
                return CheckResult(
                    "unit-vector-identity",
                    False,
                    f"n={n} d={d}: closed {closed}, oracle {oracle}, expected {expected}",
                )
    return CheckResult("unit-vector-identity", True, f"all D, n<={max_n}")


def _check_column_ops(rng: random.Random, trials: int) -> CheckResult:
    for trial in range(trials):
        n = rng.randint(2, 5)
        vectors = canonical_sign_vectors(n)
        size = rng.randint(1, 4)
        rows = sorted(rng.sample(vectors, size))
        sigma = list(range(n))
        rng.shuffle(sigma)
        j = rng.randrange(n)
        permuted = [apply_permutation(sigma, x) for x in rows]
        negated = [negate_coordinate(x, j) for x in rows]
        base_union = count_eliminated_oracle(rows, n)
        if count_eliminated_oracle(permuted, n) != base_union:
            return CheckResult("column-ops", False, f"trial {trial}: permutation union")
        if count_eliminated_oracle(negated, n) != base_union:
            return CheckResult("column-ops", False, f"trial {trial}: negation union")
        for a, b in combinations(range(len(rows)), 2):
            base = jointly_eliminated_count([rows[a], rows[b]], n)
            if jointly_eliminated_count([permuted[a], permuted[b]], n) != base:
                return CheckResult(
                    "column-ops", False, f"trial {trial}: permutation intersection"
                )
            if jointly_eliminated_count([negated[a], negated[b]], n) != base:
                return CheckResult(
                    "column-ops", False, f"trial {trial}: negation intersection"
                )
    return CheckResult("column-ops", True, f"{trials} randomized invariance checks")


def run_selftest(
    seed: int = 0, quick: bool = False, log: Optional[Callable[[str], None]] = None
) -> list[CheckResult]:
    """Run every check; returns the results in execution order."""
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def record(result: CheckResult) -> None:
        checks.append(result)
        if log is not None:
            status = "ok " if result.ok else "FAIL"
            log(f"{status} {result.name}: {result.detail}")

    record(_check_enumeration())
    record(_check_self_cover())
    record(_check_exhaustive(3 if quick else 4))
    record(_check_random(rng, 200 if quick else 1000, 5 if quick else 6))
    record(_check_unit_identity(5 if quick else 6))
    record(_check_column_ops(rng, 50 if quick else 100))
    return checks
