from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signelim import (
    CoverReport,
    DomainError,
    SignMatrix,
    canonical_sign_vectors,
    column_rank,
    cover_reports,
    covered_fraction,
    describe_cover,
    eliminates,
    full_support_vectors,
    is_eliminating_cover,
    is_minimal_cover,
    minimal_covers,
    orthogonality_implication_holds,
    unit_vectors,
)
from signelim import covers
from signelim.errors import ResourceLimitError

import oracles
from conftest import fail_if_called

ZS_2 = [(0, 1), (1, 0), (1, 1), (1, -1)]


@lru_cache(maxsize=None)
def brute_force_covers(n):
    """(members, is_minimal) of every cover, by size then member positions.

    Every subset of the enumeration is judged with the oracle; a cover is
    minimal when no subset one member smaller covers.
    """
    universe = oracles.canonical_vectors(n)
    full = set(universe)
    covering = {
        subset: oracles.eliminated(subset, n) == full
        for size in range(1, len(universe) + 1)
        for subset in combinations(universe, size)
    }
    return [
        (
            subset,
            not any(
                covering.get(subset[:i] + subset[i + 1 :], False)
                for i in range(len(subset))
            ),
        )
        for subset, covers in covering.items()
        if covers
    ]


class TestVectorFamilies:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_support_family(self, n):
        family = full_support_vectors(n)
        assert len(family) == 2 ** (n - 1)
        for v in family:
            assert all(e in (1, -1) for e in v)
            assert v[0] == 1

    def test_full_support_members_eliminate_only_themselves(self):
        family = full_support_vectors(4)
        for t in family:
            for s in family:
                assert eliminates(t, s) == (t == s)

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_full_support_rejects_a_bad_length(self, n):
        with pytest.raises(DomainError, match="vector length must be a positive int"):
            full_support_vectors(n)

    def test_full_support_length_is_capped(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        assert len(full_support_vectors(3)) == 4
        with pytest.raises(ResourceLimitError, match="SIGNELIM_MAX_N"):
            full_support_vectors(4)

    def test_unit_vectors(self):
        assert unit_vectors(3) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert unit_vectors(3, [1]) == {(0, 1, 0)}
        with pytest.raises(DomainError):
            unit_vectors(3, [3])
        with pytest.raises(DomainError):
            unit_vectors(3, [])

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_unit_vectors_reject_a_bad_length(self, n):
        with pytest.raises(DomainError, match="vector length must be a positive int"):
            unit_vectors(n)

    def test_unit_vector_length_is_capped(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        assert len(unit_vectors(3)) == 3
        with pytest.raises(ResourceLimitError, match="SIGNELIM_MAX_N"):
            unit_vectors(4)


class TestCoverPredicates:
    def test_whole_universe_is_a_cover(self):
        for n in (1, 2, 3):
            assert is_eliminating_cover(canonical_sign_vectors(n), n)

    def test_units_and_full_support_cover(self):
        for n in (2, 3, 4):
            assert is_eliminating_cover(unit_vectors(n), n)
            assert is_eliminating_cover(full_support_vectors(n), n)
            assert is_minimal_cover(unit_vectors(n), n)
            assert is_minimal_cover(full_support_vectors(n), n)

    def test_single_vector_covers_only_in_dimension_one(self):
        assert is_eliminating_cover([(1,)], 1)
        assert is_minimal_cover([(1,)], 1)
        for x in ZS_2:
            assert not is_eliminating_cover([x], 2)

    def test_minimality_rejects_padded_covers(self):
        padded = list(unit_vectors(3)) + [(1, 1, 1)]
        assert is_eliminating_cover(padded, 3)
        assert not is_minimal_cover(padded, 3)

    def test_minimality_requires_a_cover(self):
        with pytest.raises(DomainError):
            is_minimal_cover([(1, 1)], 2)

    def test_covered_fraction(self):
        assert covered_fraction([(1, 1)], 2) == (3, 4)
        assert covered_fraction(ZS_2, 2) == (4, 4)


    @pytest.mark.parametrize("chunk", [1, 13, 40, 1 << 18])
    def test_member_masks_in_blocks(self, monkeypatch, chunk):
        # one member (or an 8-vector slice of one) per block, a few, and
        # every member in one block
        monkeypatch.setattr(covers.backend, "_CHUNK_ROWS", chunk)
        members = covers.table(3)
        bits = covers.backend.row_mask_bits(members, members)
        masks = np.unpackbits(bits, axis=1)[:, :13]
        for t, row in zip(members.tolist(), masks.tolist()):
            hit = oracles.eliminated([t], 3)
            assert row == [int(s in hit) for s in oracles.canonical_vectors(3)]


class TestCoverSearch:
    def test_no_cover_is_smaller_than_the_dimension(self):
        assert cover_reports(2, 1) == []
        assert cover_reports(3, 2) == []

    def test_every_two_subset_covers_dimension_two(self):
        found = minimal_covers(2, 4)
        expected = [frozenset(c) for c in combinations(ZS_2, 2)]
        assert sorted(found, key=sorted) == sorted(expected, key=sorted)
        assert len(found) == 6

    def test_dimension_one(self):
        assert minimal_covers(1, 1) == [frozenset({(1,)})]

    def test_known_minimal_covers_in_dimension_three(self):
        found = minimal_covers(3, 4)
        assert frozenset(unit_vectors(3)) in found
        assert frozenset(full_support_vectors(3)) in found
        assert all(len(c) >= 3 for c in found)

    def test_every_found_cover_has_full_column_rank(self):
        for n in (2, 3):
            for report in cover_reports(n, 3):
                assert report.is_cover
                assert report.column_rank == n
                assert column_rank(SignMatrix(report.members)) == n

    def test_search_cap_is_enforced(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_SEARCH_CAP", "10")
        with pytest.raises(ResourceLimitError):
            minimal_covers(3, 3)

    def test_search_cap_fires_before_any_bitmask(self, monkeypatch):
        monkeypatch.setattr(covers.backend, "row_mask_bits", fail_if_called)
        with pytest.raises(ResourceLimitError, match="SIGNELIM_SEARCH_CAP"):
            minimal_covers(9, 2)

    @pytest.mark.parametrize(
        "n, max_size", [(n, k) for n in (1, 2, 3) for k in range(1, (3**n + 1) // 2)]
    )
    def test_search_matches_brute_force(self, monkeypatch, n, max_size):
        # column ranks are not compared; skipping them keeps the sweep fast
        monkeypatch.setattr(covers, "_rank", lambda rows: 0)
        found = [(r.members, r.is_minimal) for r in cover_reports(n, max_size)]
        expected = [
            (members, minimal)
            for members, minimal in brute_force_covers(n)
            if len(members) <= max_size
        ]
        assert found == expected

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_search_rejects_a_bad_length(self, n):
        with pytest.raises(DomainError, match="vector length must be a positive int"):
            minimal_covers(n, 1)

    def test_rejects_zero_max_size(self):
        with pytest.raises(DomainError):
            minimal_covers(2, 0)

    def test_reports_read_their_rows_without_a_sign_matrix(self, monkeypatch):
        built = []
        check = SignMatrix.__post_init__
        monkeypatch.setattr(
            SignMatrix, "__post_init__", lambda self: built.append(self) or check(self)
        )
        reports = cover_reports(2, 6)
        expected = [
            CoverReport(members, 2, True, minimal, oracles.column_rank(members))
            for members, minimal in brute_force_covers(2)
            if len(members) <= 6
        ]
        assert reports == expected
        assert describe_cover([(1, 1), (1, -1)], 2) == CoverReport(
            ((1, 1), (1, -1)), 2, True, True, 2
        )
        assert built == []


class TestDescribeCover:
    def test_reports_a_non_cover(self):
        report = describe_cover([(1, 1), (1, -1)], 2)
        assert report.is_cover
        assert report.is_minimal
        report = describe_cover([(1, 1, 1)], 3)
        assert not report.is_cover
        assert report.is_minimal is None
        assert report.column_rank == 1

    def test_members_are_deduplicated_and_ordered(self):
        report = describe_cover([(1, 0), (0, 1), (1, 0)], 2)
        assert report.members == ((0, 1), (1, 0))


@st.composite
def sign_matrices(draw):
    """Distinct canonical rows (m <= 8, n <= 6) whose n columns are picked,
    with repeats, from k <= n drawn columns: k < n forces duplicate columns
    and a rank below n."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    row = st.lists(st.sampled_from((-1, 0, 1)), min_size=k, max_size=k)
    source = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rows = {
        oracles.canonical(r)
        for r in ([s[j] for j in picks] for s in source)
        if any(r)
    }
    if not rows:
        rows = {(1,) * n}
    return SignMatrix.from_rows(sorted(rows))


class TestColumnRank:
    @settings(max_examples=300, deadline=None)
    @given(sign_matrices())
    @example(SignMatrix.from_rows([(1, 1, 0), (0, 0, 1), (1, 1, 1)]))
    @example(SignMatrix.from_rows([(0, 1, 1), (1, 0, 0), (1, 1, 1), (1, -1, -1)]))
    @example(SignMatrix.from_rows([(0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 1, 1)]))
    def test_matches_the_fraction_oracle(self, matrix):
        assert column_rank(matrix) == oracles.column_rank(matrix.rows)

    def test_examples(self):
        assert column_rank(SignMatrix.from_rows([(1, 0, 0), (0, 1, 0)])) == 2
        assert column_rank(SignMatrix.from_rows([(1, 1), (1, -1)])) == 2
        assert column_rank(SignMatrix.from_rows([(1, 1, 1)])) == 1
        assert column_rank(SignMatrix.from_rows([(1, 1), (1, 0)])) == 2

    def test_rank_is_bounded_by_both_dimensions(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            universe = canonical_sign_vectors(n)
            rows = rng.sample(universe, rng.randint(1, min(4, len(universe))))
            rank = column_rank(SignMatrix.from_rows(rows))
            assert 1 <= rank <= min(len(rows), n)


class TestOrthogonality:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_exhaustive_over_small_integer_vectors(self, n):
        for x in canonical_sign_vectors(n):
            for v in product(range(-2, 3), repeat=n):
                if not any(v):
                    continue
                assert orthogonality_implication_holds(x, v)

    def test_premise_failure_counts_as_holding(self):
        # (1, -1) is not eliminated by (1, 1), orthogonal or not.
        assert orthogonality_implication_holds((1, 1), (1, -1))

    def test_rejects_zero_and_non_canonical_input(self):
        with pytest.raises(DomainError):
            orthogonality_implication_holds((1, 1), (0, 0))
        with pytest.raises(DomainError):
            orthogonality_implication_holds((-1, 1), (1, 1))

    @pytest.mark.parametrize(
        "x, message",
        [
            ((1, 5), "invalid sign entry 5 in (1, 5)"),
            ((-1, 1), "(-1, 1) is not canonical (first nonzero entry must be +1)"),
        ],
    )
    def test_reads_x_by_the_sign_row_rule(self, x, message):
        with pytest.raises(DomainError) as caught:
            orthogonality_implication_holds(x, (1, 1))
        assert str(caught.value) == message
