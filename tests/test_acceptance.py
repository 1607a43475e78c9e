"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package and prints a single
PASS/FAIL line so the suite doubles as a report. Expected values come either
from the independent brute-force reference in oracles.py or from hand-worked
small cases frozen in the assertions.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

from signelim import (
    ExperimentRecord,
    SignMatrix,
    analyze_gate,
    apply_permutation,
    as_fraction_dot,
    boolean_gate,
    boolean_sensitivity,
    canonical_sign_vectors,
    canonicalize,
    count_eliminated_intersection,
    count_eliminated_oracle,
    count_eliminated_single,
    count_eliminated_union,
    count_pair,
    data_upper_bound,
    default_family,
    eliminated_set,
    evaluate,
    expand,
    full_support_vectors,
    jointly_eliminated_count,
    minimal_covers,
    negate_column,
    negate_coordinate,
    pair_profile,
    sensitivity_lower_set,
    sensitivity_score,
    total_sign,
    unit_vectors,
)
from signelim.cli import main as cli_main
from signelim.covers import cover_reports

import oracles
from conftest import FIXTURE_PATH

F = Fraction


@contextmanager
def criterion(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL [{number}] {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE PASS [{number}] {title} ({elapsed:.2f}s)")


def test_criterion_1_counting_oracle_equivalence():
    with criterion(1, "closed-form counts equal brute force, exhaustive and random"):
        started = time.perf_counter()
        checked = 0
        for n in range(1, 5):
            universe = canonical_sign_vectors(n)
            for size in (1, 2, 3):
                for rows in combinations(universe, size):
                    union = count_eliminated_union(rows)
                    assert union == len(oracles.eliminated(rows, n))
                    matrix = SignMatrix.from_rows(rows)
                    inter = count_eliminated_intersection(matrix)
                    assert inter == len(oracles.jointly_eliminated(rows, n))
                    if size == 1:
                        assert count_eliminated_single(rows[0]) == union
                    if size == 2:
                        assert count_pair(pair_profile(matrix)) == (inter, union)
                    checked += 1
        rng = random.Random(20260816)
        randoms = 0
        while randoms < 1000:
            n = rng.randint(1, 6)
            universe = canonical_sign_vectors(n)
            size = rng.randint(1, min(4, len(universe)))
            rows = tuple(rng.sample(universe, size))
            union = count_eliminated_union(rows)
            assert union == len(oracles.eliminated(rows, n))
            matrix = SignMatrix.from_rows(rows)
            inter = count_eliminated_intersection(matrix)
            assert inter == len(oracles.jointly_eliminated(rows, n))
            for row in rows:
                assert count_eliminated_single(row) == len(
                    oracles.eliminated([row], n)
                )
            if size == 2:
                assert count_pair(pair_profile(matrix)) == (inter, union)
            randoms += 1
        elapsed = time.perf_counter() - started
        assert checked == 11092
        assert randoms >= 1000
        assert elapsed < 60.0


def test_criterion_2_documented_sets_reproduced():
    with criterion(2, "documented eliminated sets match exactly"):
        assert eliminated_set([(0, 1)], 2) == {(0, 1), (1, 1), (1, -1)}
        assert eliminated_set([(1, 0)], 2) == {(1, 0), (1, 1), (1, -1)}
        assert eliminated_set([(1, 1)], 2) == {(0, 1), (1, 0), (1, 1)}
        assert eliminated_set([(1, -1)], 2) == {(0, 1), (1, 0), (1, -1)}

        with_unit = eliminated_set([(0, 0, 1)], 3)
        assert len(with_unit) == 9
        assert with_unit == {
            s for s in canonical_sign_vectors(3) if s[2] != 0
        }
        all_positive = eliminated_set([(1, 1, 1)], 3)
        assert len(all_positive) == 7
        assert all_positive == {
            s for s in canonical_sign_vectors(3) if all(e >= 0 for e in s)
        }


def test_criterion_3_unit_set_identity():
    with criterion(3, "unit-vector set counts equal (3^N - 3^(N-d)) / 2"):
        for n in range(1, 8):
            for size in range(1, n + 1):
                for positions in combinations(range(n), size):
                    units = unit_vectors(n, positions)
                    expected = (3**n - 3 ** (n - size)) // 2
                    assert count_eliminated_union(units) == expected
                    assert count_eliminated_oracle(units, n) == expected
                    if n <= 5:
                        assert len(oracles.eliminated(units, n)) == expected


def test_criterion_4_mixing_gate_certified(color_gate, capsys):
    with criterion(4, "mixing gate: frozen signs, saturated bound, certificate"):
        expansion = expand(color_gate)
        frozen = {
            (0, 1, -1, -1): (1, -1, -1),
            (0, 1, 1, 1): (1, 1, 1),
            (0, 1, -1, 1): (1, -1, 1),
            (0, 1, 1, -1): (1, 1, -1),
        }
        for w, expected in frozen.items():
            assert total_sign(expansion, (0, 0, 0), w) == expected

        sens = sensitivity_lower_set(expansion, (0, 0, 0), default_family(4))
        assert sens == frozenset(canonical_sign_vectors(3))
        score = sensitivity_score(3, sens)
        assert score.value == 27
        assert score.log3 == 3.0

        assert cli_main(["gate", "certify", str(FIXTURE_PATH)]) == 0
        capsys.readouterr()

        rng = random.Random(414243)

        def interior_point():
            return tuple(
                (F(64 - k, 64), F(k, 64))
                for k in (rng.randint(1, 63) for _ in range(3))
            )

        seen = 0
        while seen < 1000:
            a = interior_point()
            b = interior_point()
            if a == b:
                continue
            assert evaluate(expansion, a) != evaluate(expansion, b)
            seen += 1


def test_criterion_5_boolean_sensitivity_inequality():
    with criterion(5, "certified lower bound never exceeds boolean sensitivity"):
        started = time.perf_counter()
        for bits in range(256):
            outputs = [(bits >> k) & 1 for k in range(7, -1, -1)]
            gate = boolean_gate(outputs, 3)
            classical = boolean_sensitivity(gate)
            analysis = analyze_gate(expand(gate))
            for report in analysis.reports:
                assert (
                    report.score.log3 <= classical.per_point[report.base_point]
                )
            assert analysis.lower.log3 <= classical.value
        rng = random.Random(515253)
        for _ in range(50):
            outputs = [rng.randint(0, 1) for _ in range(16)]
            gate = boolean_gate(outputs, 4)
            classical = boolean_sensitivity(gate)
            analysis = analyze_gate(expand(gate))
            for report in analysis.reports:
                assert (
                    report.score.log3 <= classical.per_point[report.base_point]
                )
            assert analysis.lower.log3 <= classical.value
        assert time.perf_counter() - started < 300.0


def npn_classes(n):
    """The NPN classes of the n-input Boolean functions: each class's least
    truth table, in increasing order, and each one's images under every
    transform, one column per class.

    Bit p of a truth table is the output at the input whose bits are those
    of p. A transform permutes the inputs, negates some of them and negates
    the output or not: 2**n * n! * 2 transforms. Each takes a table byte by
    byte through a 256-entry lookup table, so all 2**(2**n) tables meet every
    transform in array passes, a block of transforms at a time.
    """
    points, full = 2**n, 2 ** 2**n - 1
    bits = np.arange(points)[:, None] >> np.arange(n) & 1
    # the point read at point p: p's bits permuted, then some of them negated
    moved = (bits[:, list(permutations(range(n)))] << np.arange(n)).sum(axis=-1).T
    sources = (moved[:, None, :] ^ np.arange(points)[:, None]).reshape(-1, 1, 1, points).astype(np.uint32)
    shifts = 8 * np.arange(-(-points // 8), dtype=np.uint32)
    byte = np.arange(256, dtype=np.uint32)[:, None] << shifts  # by byte value and position
    lookup = (byte[:, :, None] >> sources & 1) << np.arange(points, dtype=np.uint32)
    lookup = lookup.sum(axis=-1, dtype=np.uint32)  # by transform, byte value and position

    def images(tables, transforms=slice(None)):
        image = np.bitwise_or.reduce([lookup[transforms][:, tables >> s & 255, h] for h, s in enumerate(shifts)])
        return np.concatenate([image, image ^ full])  # the output negated or not

    tables = np.arange(full + 1, dtype=np.uint32)
    least = np.full(full + 1, full, dtype=np.uint32)
    for block in np.array_split(np.arange(len(lookup)), 16):
        least = np.minimum(least, images(tables, block).min(axis=0))
    representatives = np.unique(least)
    return representatives, images(representatives)


def test_criterion_5_on_every_npn_class_of_four_inputs():
    with criterion(5, "certified lower bound never exceeds boolean sensitivity, one function per NPN class"):
        started = time.perf_counter()
        for n, count, functions in ((3, 14, 256), (4, 222, 65536)):
            representatives, images = npn_classes(n)
            assert len(representatives) == count
            assert (images.min(axis=0) == representatives).all()
            # orbit sizes, from the distinct images of each representative
            orbits = (np.diff(np.sort(images, axis=0), axis=0) != 0).sum(axis=0) + 1
            assert orbits.sum() == functions
        for table in representatives.tolist():
            gate = boolean_gate([(table >> p) & 1 for p in range(16)], 4)
            classical = boolean_sensitivity(gate)
            analysis = analyze_gate(expand(gate))
            for report in analysis.reports:
                assert report.score.log3 <= classical.per_point[report.base_point]
            assert analysis.lower.log3 <= classical.value
        assert time.perf_counter() - started < 5.0


def test_criterion_5_class_members_score_as_their_representative():
    with criterion(5, "an NPN class member scores as its representative at the transformed base point"):
        started = time.perf_counter()
        representatives = npn_classes(4)[0].tolist()
        rng = random.Random(1601)
        for _ in range(32):
            table = rng.choice(representatives)
            order, flips, negated = rng.sample(range(4), 4), [rng.randint(0, 1) for _ in range(4)], rng.randint(0, 1)

            def read(p):  # the point of the representative that the member reads at point p
                return sum((((p >> order[k]) & 1) ^ flips[k]) << k for k in range(4))

            def image(z):  # the same map on base points: block i is bit 3 - i of a point
                return tuple(z[3 - order[3 - i]] ^ flips[3 - i] for i in range(4))

            member = sum((negated ^ ((table >> read(p)) & 1)) << p for p in range(16))
            (analysis, classical), (member_analysis, member_classical) = (
                (analyze_gate(expand(gate)), boolean_sensitivity(gate).per_point)
                for gate in (boolean_gate([(t >> p) & 1 for p in range(16)], 4) for t in (table, member))
            )
            scores = {r.base_point: r.score.value for r in analysis.reports}
            for report in member_analysis.reports:
                z = report.base_point
                assert report.score.value == scores[image(z)]
                assert member_classical[z] == classical[image(z)]
        assert time.perf_counter() - started < 1.0


def test_criterion_6_cover_poset():
    with criterion(6, "cover search, size bound, and orthogonality implication"):
        found = minimal_covers(2, 4)
        expected = [
            frozenset(pair)
            for pair in combinations(canonical_sign_vectors(2), 2)
        ]
        assert sorted(found, key=sorted) == sorted(expected, key=sorted)

        from signelim import is_minimal_cover

        assert is_minimal_cover(unit_vectors(3), 3)
        assert is_minimal_cover(full_support_vectors(3), 3)

        for n in (2, 3, 4):
            assert cover_reports(n, n - 1) == []
            assert all(
                len(r.members) >= n for r in cover_reports(n, n)
            )

        for n in range(1, 5):
            ze_by_x = {
                x: eliminated_set([x], n) for x in canonical_sign_vectors(n)
            }
            for v in product(range(-2, 3), repeat=n):
                if not any(v):
                    continue
                pattern, _ = canonicalize(v)
                for x, ze in ze_by_x.items():
                    if pattern in ze:
                        assert as_fraction_dot(v, x) != 0


def test_criterion_7_column_operation_invariance():
    with criterion(7, "column operations preserve all elimination counts"):
        rng = random.Random(616263)
        for _ in range(500):
            n = rng.randint(2, 5)
            universe = canonical_sign_vectors(n)
            rows = rng.sample(universe, rng.randint(1, 4))
            union_before = count_eliminated_union(rows)
            pair_before = {
                frozenset((i, j)): jointly_eliminated_count([a, b], n)
                for (i, a), (j, b) in combinations(enumerate(rows), 2)
            }
            if rng.random() < 0.5:
                sigma = list(range(n))
                rng.shuffle(sigma)
                moved = [apply_permutation(sigma, x) for x in rows]
            else:
                j = rng.randrange(n)
                moved = [negate_coordinate(x, j) for x in rows]
                assert negate_column(rows, j) == frozenset(moved)
            assert count_eliminated_union(moved) == union_before
            pair_after = {
                frozenset((i, j)): jointly_eliminated_count([a, b], n)
                for (i, a), (j, b) in combinations(enumerate(moved), 2)
            }
            assert pair_after == pair_before


def test_criterion_8_degenerate_sensitivity():
    with criterion(8, "degenerate gates: zero scores and collision bounds"):
        constant = boolean_gate([0, 0, 0, 0], 2)
        expansion = expand(constant)
        analysis = analyze_gate(expansion)
        assert analysis.lower.value == 1
        assert analysis.lower.log3 == 0.0
        for report in analysis.reports:
            assert report.sens_lower == frozenset()
        assert analysis.certificate is None

        grid = []
        for a, b in product((F(1, 4), F(1, 2), F(3, 4)), repeat=2):
            point = ((1 - a, a), (1 - b, b))
            grid.append(
                ExperimentRecord(point=point, output=evaluate(expansion, point))
            )
        bound = data_upper_bound(grid, expansion, eps=F(0))
        assert bound is not None
        assert bound.score.value == 1
        assert bound.score.log3 == 0.0

        # A gate that ignores its last block: collide observations that move
        # only the ignored coordinate, leaving every other coordinate fixed.
        ignoring = boolean_gate([0, 0, 1, 1, 0, 0, 1, 1], 3)
        wide = expand(ignoring)
        records = []
        for c in (F(1, 4), F(1, 2), F(3, 4)):
            point = ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (1 - c, c))
            records.append(
                ExperimentRecord(point=point, output=evaluate(wide, point))
            )
        bound = data_upper_bound(records, wide, eps=F(0))
        assert bound is not None
        n_reduced = 3
        assert bound.score.log3 <= n_reduced - 1
        assert bound.score.value == 9
        assert bound.score.log3 == 2.0
