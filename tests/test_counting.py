import re
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signelim import (
    DomainError,
    PairProfile,
    SignMatrix,
    UNDETERMINED,
    aligned_columns,
    canonical_sign_vectors,
    count_eliminated_intersection,
    count_eliminated_oracle,
    count_eliminated_single,
    count_eliminated_union,
    count_intersection_oracle,
    count_pair,
    pair_profile,
)
from signelim import backend, counting
from signelim.errors import ResourceLimitError

import oracles
from conftest import closed_form_union, fail_if_called


def matrices(max_n=4, max_rows=3):
    def build(n):
        universe = canonical_sign_vectors(n)
        return st.lists(
            st.sampled_from(universe), min_size=1, max_size=max_rows, unique=True
        ).map(SignMatrix.from_rows)

    return st.integers(1, max_n).flatmap(build)


@st.composite
def column_matrices(draw):
    """1-6 distinct canonical rows of length 1-6, built column by column.

    Each column is fresh, all zero, or a copy of an earlier one; rows are
    canonicalized and deduplicated afterwards, which keeps zero columns zero
    and copies equal.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(("fresh", "zero", "copy")))
        if kind == "copy" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "zero":
            columns.append((0,) * m)
        else:
            columns.append(tuple(draw(st.sampled_from((-1, 0, 1))) for _ in range(m)))
    rows = {oracles.canonical(row) for row in zip(*columns) if any(row)}
    assume(rows)
    return SignMatrix.from_rows(sorted(rows, key=oracles.order_key))


# six rows of length 6: columns 1 and 5 are zero, column 2 copies column 0
WIDE_MATRIX = SignMatrix.from_rows(
    [
        (1, 0, 1, 1, -1, 0),
        (1, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 1, 0),
        (1, 0, 1, -1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, 1, 1, 1, 0),
    ]
)


class TestSignMatrix:
    def test_from_rows_keeps_order_and_exposes_columns(self):
        m = SignMatrix.from_rows([(1, 0, -1), (0, 1, 1)])
        assert m.m == 2
        assert m.n == 3
        assert m.column(2) == (-1, 1)
        assert m.zero_columns() == 0
        assert SignMatrix.from_rows([(1, 0), (0, 1)]).zero_columns() == 0
        assert SignMatrix.from_rows([(0, 1)]).zero_columns() == 1

    def test_rejects_bad_rows(self):
        with pytest.raises(DomainError):
            SignMatrix.from_rows([])
        with pytest.raises(DomainError):
            SignMatrix.from_rows([(1, 0), (1, 0, 0)])
        with pytest.raises(DomainError):
            SignMatrix.from_rows([(-1, 1)])
        with pytest.raises(DomainError):
            SignMatrix.from_rows([(1, 0), (1, 0)])


class TestSingleCount:
    def test_frozen_examples(self):
        assert count_eliminated_single((0, 0, 1)) == 9
        assert count_eliminated_single((1, 1, 1)) == 7
        assert count_eliminated_single((1, 1, 0)) == 9
        assert count_eliminated_single((1,)) == 1
        assert count_eliminated_single((1, -1)) == 3

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive_against_brute_force(self, n):
        for x in canonical_sign_vectors(n):
            assert count_eliminated_single(x) == len(oracles.eliminated([x], n))

    def test_depends_only_on_zero_count(self):
        values = {
            count_eliminated_single(x)
            for x in canonical_sign_vectors(4)
            if sum(1 for e in x if e == 0) == 2
        }
        assert values == {3**2 * (2**2 - 1)}

    @pytest.mark.parametrize(
        "x, message",
        [
            ((1, 5), "invalid sign entry 5 in (1, 5)"),
            ((-1, 1), "(-1, 1) is not canonical (first nonzero entry must be +1)"),
        ],
    )
    def test_reads_its_vector_by_the_sign_row_rule(self, x, message):
        with pytest.raises(DomainError) as caught:
            count_eliminated_single(x)
        assert str(caught.value) == message


class TestAlignedColumns:
    def test_single_row_full_agreement(self):
        m = SignMatrix.from_rows([(1, 1)])
        assert aligned_columns(m, (1,)) == {0, 1}

    def test_mixed_rows(self):
        m = SignMatrix.from_rows([(1, 0), (0, 1)])
        assert aligned_columns(m, (1, -1)) == {0, 1}
        assert aligned_columns(m, (1, 1)) == {0, 1}

    def test_zero_columns_are_never_aligned(self):
        m = SignMatrix.from_rows([(0, 1, 1), (0, 1, -1)])
        assert 0 not in aligned_columns(m, (1, 1))

    def test_rejects_non_canonical_alpha(self):
        m = SignMatrix.from_rows([(1, 1)])
        with pytest.raises(DomainError):
            aligned_columns(m, (-1,))
        with pytest.raises(DomainError):
            aligned_columns(m, (1, 1))

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ((1, 5), "invalid sign entry 5 in (1, 5)"),
            ((-1,), "(-1,) is not canonical (first nonzero entry must be +1)"),
            ((1,), "assignment length 1 != row count 2"),
        ],
    )
    def test_reads_alpha_by_the_sign_row_rule(self, alpha, message):
        m = SignMatrix.from_rows([(1, 0), (0, 1)])
        with pytest.raises(DomainError) as caught:
            aligned_columns(m, alpha)
        assert str(caught.value) == message

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_n=5, max_rows=4))
    def test_matches_the_column_loop_oracle(self, matrix):
        for alpha in canonical_sign_vectors(matrix.m):
            expected = oracles.aligned_columns(matrix.rows, alpha)
            assert aligned_columns(matrix, alpha) == expected, alpha

    def test_one_helper_serves_both_callers(self, monkeypatch):
        def broken(*args):
            raise AssertionError("alignment helper called")

        monkeypatch.setattr(counting, "_aligned", broken)
        m = SignMatrix.from_rows([(1, 0, 1), (0, 1, 1)])
        with pytest.raises(AssertionError, match="alignment helper called"):
            aligned_columns(m, (1, 1))
        with pytest.raises(AssertionError, match="alignment helper called"):
            count_eliminated_intersection(m)


class TestIntersection:
    def test_frozen_pairs(self):
        assert count_eliminated_intersection(
            SignMatrix.from_rows([(1, 1), (1, -1)])
        ) == 2
        assert count_eliminated_intersection(
            SignMatrix.from_rows([(1, 0), (0, 1)])
        ) == 2
        assert count_eliminated_intersection(
            SignMatrix.from_rows([(1, 0, 0), (0, 1, 0)])
        ) == 6

    def test_single_row_reduces_to_the_single_count(self):
        for x in canonical_sign_vectors(3):
            assert count_eliminated_intersection(
                SignMatrix.from_rows([x])
            ) == count_eliminated_single(x)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_exhaustive_against_brute_force(self, n):
        from itertools import combinations

        universe = canonical_sign_vectors(n)
        for size in (1, 2, 3):
            for rows in combinations(universe, size):
                m = SignMatrix.from_rows(rows)
                assert count_eliminated_intersection(m) == len(
                    oracles.jointly_eliminated(rows, n)
                )

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_matches_the_packaged_oracle(self, m):
        assert count_eliminated_intersection(m) == count_intersection_oracle(m)

    @settings(max_examples=200, deadline=None)
    @given(column_matrices())
    @example(WIDE_MATRIX)
    def test_zero_and_repeated_columns_match_the_oracle(self, m):
        assert count_eliminated_intersection(m) == count_intersection_oracle(m)

    def test_the_count_does_not_recheck_its_rows(self, monkeypatch):
        # both callers pass rows a SignMatrix or sign_rows has checked
        def rebuilt(rows):
            raise AssertionError("the rows were checked again")

        rows = ((1, 0, 1), (0, 1, -1))
        expected = count_intersection_oracle(SignMatrix(rows))
        monkeypatch.setattr(counting, "SignMatrix", rebuilt)
        # without subsets the evaluator gives (-1)**(m + 1) times the count
        assert counting._union_counts([rows], subsets=False) == [-expected]


class TestUnion:
    def test_frozen_examples(self):
        assert count_eliminated_union([(1, 1), (1, -1)]) == 4
        assert count_eliminated_union([(1, 0), (0, 1)]) == 4
        assert count_eliminated_union(canonical_sign_vectors(2)) == 4

    def test_duplicates_are_collapsed(self):
        assert count_eliminated_union([(1, 1), (1, 1)]) == count_eliminated_union(
            [(1, 1)]
        )

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_matches_brute_force(self, m):
        assert count_eliminated_union(m.rows) == len(
            oracles.eliminated(m.rows, m.n)
        )

    @settings(max_examples=200, deadline=None)
    @given(column_matrices())
    @example(WIDE_MATRIX)
    def test_zero_and_repeated_columns_match_the_oracle(self, m):
        assert count_eliminated_union(m.rows) == count_eliminated_oracle(m.rows, m.n)

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_n=4, max_rows=2), st.data())
    def test_monotone_in_the_set(self, m, data):
        extra = data.draw(st.sampled_from(canonical_sign_vectors(m.n)))
        rows = list(m.rows)
        grown = rows + [extra] if extra not in rows else rows
        assert count_eliminated_union(grown) >= count_eliminated_union(rows)

    def test_subset_cap_is_enforced(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_SUBSET_CAP", "2")
        with pytest.raises(ResourceLimitError):
            count_eliminated_union([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert count_eliminated_union([(1, 0), (0, 1)]) == 4

    def test_row_count_is_capped_before_any_subset(self, monkeypatch):
        # the four-row subset would enumerate table(4), past SIGNELIM_MAX_N = 3
        monkeypatch.setattr(counting, "_union_counts", fail_if_called)
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        with pytest.raises(ResourceLimitError, match="SIGNELIM_MAX_N"):
            count_eliminated_union([(1, 0), (0, 1), (1, 1), (1, -1)])


def long_pairs():
    """Two distinct canonical rows of length 30-300, so the inclusion-
    exclusion sums pass int64 and take the Python-int route, and from 128
    columns on an exponent z + a summed in uint8 would wrap."""
    entry = st.sampled_from((-1, 0, 1))
    rows = st.integers(30, 300).flatmap(lambda n: st.lists(st.tuples(*[entry] * n), min_size=2, max_size=2))
    rows = rows.map(lambda pair: sorted({oracles.canonical(r) for r in pair if any(r)}, key=oracles.order_key))
    return rows.filter(lambda pair: len(pair) == 2)


class TestUnionCounts:
    """counting._union_counts, the one evaluator of both closed forms."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(column_matrices(), min_size=1, max_size=6))
    @example([WIDE_MATRIX, SignMatrix.from_rows([(1,)]), SignMatrix.from_rows([(1, 0), (0, 1)])])
    def test_mixed_batches_match_both_oracles(self, matrices):
        counts = counting._union_counts([m.rows for m in matrices])
        assert counts == [count_eliminated_oracle(m.rows, m.n) for m in matrices]
        assert counts == [len(oracles.eliminated(m.rows, m.n)) for m in matrices]

    @pytest.mark.parametrize("chunk, cells", [(1, 1), (4, 5), (16, 64), (64, 16)])
    def test_small_chunks_give_the_same_counts(self, monkeypatch, chunk, cells):
        # several code chunks per set, and a chunk's sets cut between passes
        monkeypatch.setattr(counting, "_ALPHA_CHUNK", chunk)
        monkeypatch.setattr(backend, "_BATCH_CELLS", cells)
        batch = [WIDE_MATRIX.rows, ((1, 1, 0), (0, 1, -1), (1, 0, 1)), ((1, -1),)]
        assert counting._union_counts(batch) == [
            len(oracles.eliminated(rows, len(rows[0]))) for rows in batch
        ]
        assert count_eliminated_intersection(WIDE_MATRIX) == count_intersection_oracle(WIDE_MATRIX)

    def test_pairs_cover_every_subset_and_assignment_once(self):
        for m in range(1, 6):
            for subsets in (True, False):
                seen, total = set(), 0
                for codes, (S, plus, minus) in counting._pairs(m, subsets):
                    assert (np.diff(codes) > 0).all()
                    seen.update(zip(S.tolist(), plus.tolist(), minus.tolist()))
                    total += codes.size
                expected = {
                    (s, sum(1 << i for i in range(m) if a[i] == 1), sum(1 << i for i in range(m) if a[i] == -1))
                    for s in (range(1, 1 << m) if subsets else [(1 << m) - 1])
                    for a in product((-1, 0, 1), repeat=m)
                    if any(a[i] for i in range(m))
                    and all(a[i] == 0 for i in range(m) if not s >> i & 1)
                    and a[next(i for i in range(m) if a[i])] == 1
                }
                assert seen == expected
                assert total == len(seen) == ((4**m - 2**m) // 2 if subsets else (3**m - 1) // 2)

    @settings(max_examples=40, deadline=None)
    @given(long_pairs())
    def test_long_rows_match_the_pair_formulas(self, rows):
        inter, union = count_pair(pair_profile(SignMatrix.from_rows(rows)))
        assert counting._union_counts([rows, rows[:1]]) == [union, count_eliminated_single(rows[0])]
        assert count_eliminated_intersection(SignMatrix.from_rows(rows)) == inter

    @pytest.mark.parametrize("n", [127, 128, 255, 256, 300])
    def test_an_all_plus_row_of_any_length(self, n):
        plus = [(1,) * n]
        assert count_eliminated_union(plus) == count_eliminated_single(plus[0]) == 2**n - 1
        assert count_eliminated_intersection(SignMatrix.from_rows(plus)) == 2**n - 1


@st.composite
def total_sign_rows(draw):
    """(n, rows): total-sign rows of length 1-6 with "u" at random
    positions, and all-"u", dead, duplicate and negated rows mixed in."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((-1, 0, 1, UNDETERMINED))
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=4))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if rows and draw(st.booleans()):
        t = draw(st.sampled_from(rows))
        rows.append(tuple(e if e == UNDETERMINED else -e for e in t))
    if draw(st.booleans()):
        rows.append((UNDETERMINED,) * n)
    if draw(st.booleans()):
        rows.append(draw(st.tuples(*[st.sampled_from((0, UNDETERMINED))] * n)))
    return n, draw(st.permutations(rows))


class TestUnionWithUndetermined:
    """oracles.union_count, the closed form of a scan mask, against brute force."""

    @settings(max_examples=300, deadline=None)
    @given(total_sign_rows())
    @example((3, [(1, UNDETERMINED, 0), (0, 1, -1), (-1, UNDETERMINED, 0), (0, -1, 1)]))
    @example((2, [(UNDETERMINED, UNDETERMINED), (0, UNDETERMINED), (0, 0)]))
    def test_matches_the_eliminated_set(self, case):
        n, rows = case
        assert closed_form_union(rows) == len(oracles.eliminated(rows, n))

    def test_u_rows_reduce_to_the_sign_vector_union(self):
        # the first row eliminates 3 vectors, the second 9, and both the 2
        # of the pair's term: the "u" deletes column 1 from both rows, so it
        # is the intersection count of (1, 1) and (1, 0)
        rows = [(1, UNDETERMINED, 1), (1, 1, 0)]
        assert closed_form_union(rows) == len(oracles.eliminated(rows, 3)) == 3 + 9 - 2


class TestPairFormulas:
    def test_profile_classification(self):
        m = SignMatrix.from_rows([(1, 1), (1, -1)])
        assert pair_profile(m) == PairProfile(
            agree=1, oppose=1, first_only=0, second_only=0, zero=0
        )
        m = SignMatrix.from_rows([(1, 0, 0), (0, 1, 0)])
        assert pair_profile(m) == PairProfile(
            agree=0, oppose=0, first_only=1, second_only=1, zero=1
        )

    def test_frozen_pair_counts(self):
        both = count_pair(pair_profile(SignMatrix.from_rows([(1, 1), (1, -1)])))
        assert both == (2, 4)
        both = count_pair(
            pair_profile(SignMatrix.from_rows([(1, 0, 0), (0, 1, 0)]))
        )
        assert both == (6, 12)

    def test_profile_rejects_degenerate_pairs(self):
        with pytest.raises(DomainError):
            PairProfile(agree=0, oppose=0, first_only=0, second_only=1, zero=0)
        with pytest.raises(DomainError):
            PairProfile(agree=1, oppose=0, first_only=0, second_only=0, zero=2)

    @pytest.mark.parametrize("field", ["agree", "oppose", "first_only", "second_only", "zero"])
    @pytest.mark.parametrize("value", [1.5, True, np.int64(1)])
    def test_profile_fields_are_exact_ints(self, field, value):
        # a float field once built a profile whose counts were floats
        counts = {**dict.fromkeys(("agree", "oppose", "first_only", "second_only", "zero"), 1), field: value}
        with pytest.raises(DomainError, match=re.escape(f"{field} must be an int >= 0, got {value!r}")):
            PairProfile(**counts)
        with pytest.raises(DomainError, match=f"{field} must be an int >= 0, got -1"):
            PairProfile(**{**counts, field: -1})

    def test_pair_needs_exactly_two_rows(self):
        with pytest.raises(DomainError):
            pair_profile(SignMatrix.from_rows([(1, 0)]))

    def test_exhaustive_pairs_match_both_oracles(self):
        from itertools import combinations

        for n in (2, 3, 4):
            for x, y in combinations(canonical_sign_vectors(n), 2):
                m = SignMatrix.from_rows([x, y])
                inter, union = count_pair(pair_profile(m))
                assert inter == len(oracles.jointly_eliminated([x, y], n))
                assert union == len(oracles.eliminated([x, y], n))
                assert inter == count_eliminated_intersection(m)
                assert union == count_eliminated_union([x, y])


class TestOracles:
    def test_accepts_undetermined_entries(self):
        assert count_eliminated_oracle([(UNDETERMINED, 1)], 2) == 1
        assert count_eliminated_oracle([(1, UNDETERMINED)], 2) == 1

    def test_union_count_matches_reference(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            X = [
                tuple(rng.choice((0, 1, -1)) for _ in range(n)) for _ in range(3)
            ]
            X = [t for t in X if any(t)]
            if not X:
                continue
            assert count_eliminated_oracle(X, n) == len(oracles.eliminated(X, n))
