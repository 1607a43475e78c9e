from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signelim import (
    DomainError,
    UNDETERMINED,
    apply_permutation,
    canonical_sign_vectors,
    canonicalize,
    eliminated_count,
    eliminated_set,
    eliminates,
    enumeration_key,
    is_canonical,
    jointly_eliminated_count,
    negate_column,
    negate_coordinate,
    parse_sign_string,
    sign_string,
    vector_count,
    zero_count,
)
from signelim import backend
from signelim.errors import ResourceLimitError
from signelim.signvec import table_strings

import oracles

ZS_2 = [(0, 1), (1, 0), (1, 1), (1, -1)]

ZS_3 = [
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (0, 1, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 0, -1),
    (1, 1, 0),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, -1, -1),
]

# Eliminated set of each length-2 canonical vector, worked out by hand from
# the defining condition and frozen here.
ZE_2 = {
    (0, 1): {(0, 1), (1, 1), (1, -1)},
    (1, 0): {(1, 0), (1, 1), (1, -1)},
    (1, 1): {(0, 1), (1, 0), (1, 1)},
    (1, -1): {(0, 1), (1, 0), (1, -1)},
}


def sign_vectors(max_n=5):
    return (
        st.integers(1, max_n)
        .flatmap(lambda n: st.lists(st.sampled_from((0, 1, -1)), min_size=n, max_size=n))
        .filter(any)
        .map(tuple)
    )


def total_signs(max_n=5):
    return (
        st.integers(1, max_n)
        .flatmap(
            lambda n: st.lists(
                st.sampled_from((0, 1, -1, UNDETERMINED)), min_size=n, max_size=n
            )
        )
        .filter(lambda t: any(e in (1, -1) for e in t))
        .map(tuple)
    )


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_matches_closed_form(self, n):
        vectors = canonical_sign_vectors(n)
        assert len(vectors) == (3**n - 1) // 2 == vector_count(n)

    @pytest.mark.parametrize("n", [2.0, True, 0, -1])
    def test_count_rejects_a_bad_length(self, n):
        with pytest.raises(DomainError, match="vector length must be a positive int"):
            vector_count(n)

    def test_count_length_is_capped(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        assert vector_count(3) == 13
        with pytest.raises(ResourceLimitError, match="SIGNELIM_MAX_N"):
            vector_count(4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_enumeration(self, n):
        assert canonical_sign_vectors(n) == oracles.canonical_vectors(n)

    def test_frozen_small_listings(self):
        assert canonical_sign_vectors(1) == [(1,)]
        assert canonical_sign_vectors(2) == ZS_2
        assert canonical_sign_vectors(3) == ZS_3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_is_the_enumeration_key(self, n):
        vectors = canonical_sign_vectors(n)
        assert vectors == sorted(vectors, key=enumeration_key)

    def test_rejects_bad_lengths(self):
        with pytest.raises(DomainError):
            canonical_sign_vectors(0)
        with pytest.raises(ResourceLimitError):
            canonical_sign_vectors(64)

    def test_rejects_a_boolean_length(self):
        # True is a bool, which subclasses int: the gates' output_dim rule
        with pytest.raises(DomainError, match="positive int, got True"):
            canonical_sign_vectors(True)

    def test_length_cap_is_configurable(self, monkeypatch):
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        with pytest.raises(ResourceLimitError):
            canonical_sign_vectors(4)
        assert len(canonical_sign_vectors(3)) == 13

    def test_table_strings_check_the_cap_on_a_cached_length(self, monkeypatch):
        assert len(table_strings(4)) == 40  # now cached
        monkeypatch.setenv("SIGNELIM_MAX_N", "3")
        with pytest.raises(ResourceLimitError, match="SIGNELIM_MAX_N"):
            table_strings(4)
        assert len(table_strings(3)) == 13


class TestCanonicalize:
    def test_keeps_a_leading_positive(self):
        assert canonicalize((0, 3, -2)) == ((0, 1, -1), 1)

    def test_flips_a_leading_negative(self):
        assert canonicalize((-2, 0, 5)) == ((1, 0, -1), -1)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            canonicalize((0, 0, 0))
        with pytest.raises(DomainError):
            canonicalize(())

    @given(sign_vectors())
    def test_output_is_canonical_and_negation_invariant(self, v):
        canon, flip = canonicalize(v)
        assert is_canonical(canon)
        assert flip in (1, -1)
        other, other_flip = canonicalize([-e for e in v])
        assert other == canon
        assert other_flip == -flip

    def test_is_canonical(self):
        assert is_canonical((1, -1, 0))
        assert not is_canonical((-1, 1, 0))
        assert not is_canonical((0, 0, 0))
        assert not is_canonical((2, 0, 0))


class TestEliminates:
    def test_worked_length_two_cases(self):
        assert eliminates((1, 1), (1, 1))
        assert eliminates((1, 1), (0, 1))
        assert not eliminates((1, 1), (1, -1))
        assert eliminates((1, -1), (1, -1))
        assert not eliminates((0, 1), (1, 0))

    def test_undetermined_blocks_nonzero_overlap(self):
        assert not eliminates((UNDETERMINED, 1), (1, 1))
        assert eliminates((UNDETERMINED, 1), (0, 1))
        assert not eliminates((UNDETERMINED, UNDETERMINED), (1, 0))

    def test_needs_a_shared_nonzero_index(self):
        assert not eliminates((1, 0, 0), (0, 1, 1))
        assert not eliminates((0, 0, 0), (1, 0, 0))

    def test_frozen_length_two_eliminated_sets(self):
        for x, expected in ZE_2.items():
            assert eliminated_set([x], 2) == expected

    def test_every_canonical_vector_eliminates_itself(self):
        for n in range(1, 5):
            for s in canonical_sign_vectors(n):
                assert eliminates(s, s)

    @given(total_signs(), st.data())
    def test_matches_brute_force(self, t, data):
        n = len(t)
        s = data.draw(st.sampled_from(canonical_sign_vectors(n)))
        assert eliminates(t, s) == oracles.eliminates(t, s)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_the_oracle_exhaustively(self, n):
        for t in product((-1, 0, 1, UNDETERMINED), repeat=n):
            for s in canonical_sign_vectors(n):
                assert eliminates(t, s) == oracles.eliminates(t, s), (t, s)

    def test_answers_by_the_scan_kernel(self, monkeypatch):
        seen = []

        def spy(grid, elim):
            seen.append((grid.tolist(), elim.tolist()))
            return real(grid, elim)

        real = backend.eliminated_any_mask
        monkeypatch.setattr(backend, "eliminated_any_mask", spy)
        assert eliminates((1, UNDETERMINED, -1), (1, 0, 0))
        assert not eliminates((1, UNDETERMINED, -1), (1, 0, 1))
        assert seen == [
            ([[1, 0, 0]], [[1, UNDETERMINED, -1]]),
            ([[1, 0, 1]], [[1, UNDETERMINED, -1]]),
        ]

    def test_rejects_length_mismatch_and_junk(self):
        with pytest.raises(DomainError):
            eliminates((1, 0), (1, 0, 0))
        with pytest.raises(DomainError):
            eliminates((1, 5), (1, 1))
        with pytest.raises(DomainError):
            eliminates((1, 1), (-1, 1))
        with pytest.raises(DomainError):
            eliminates((1, UNDETERMINED), (0, UNDETERMINED))


class TestEliminatedSets:
    def test_matches_brute_force_on_small_sets(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            size = rng.randint(1, 3)
            X = [
                tuple(rng.choice((0, 1, -1, UNDETERMINED)) for _ in range(n))
                for _ in range(size)
            ]
            X = [t for t in X if any(e in (1, -1) for e in t)]
            if not X:
                continue
            assert eliminated_set(X, n) == oracles.eliminated(X, n)
            assert eliminated_count(X, n) == len(oracles.eliminated(X, n))

    def test_joint_count_matches_brute_force(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            X = [
                tuple(rng.choice((0, 1, -1)) for _ in range(n)) for _ in range(2)
            ]
            X = [t for t in X if any(t)]
            if not X:
                continue
            assert jointly_eliminated_count(X, n) == len(
                oracles.jointly_eliminated(X, n)
            )

    def test_empty_set_eliminates_nothing(self):
        assert eliminated_count([], 4) == 0
        with pytest.raises(DomainError):
            jointly_eliminated_count([], 4)

    @given(total_signs(4))
    def test_global_negation_preserves_the_eliminated_set(self, t):
        negated = tuple(
            -e if e in (1, -1) else e for e in t
        )
        n = len(t)
        assert eliminated_set([t], n) == eliminated_set([negated], n)


class TestColumnOperations:
    def test_permutation_moves_entries(self):
        assert apply_permutation((1, 0, 2), (0, 1, -1)) == (1, 0, -1)

    def test_permutation_recanonicalizes(self):
        assert apply_permutation((1, 0), (1, -1)) == (1, -1)
        assert apply_permutation((2, 0, 1), (1, 1, -1)) == (1, -1, -1)

    def test_negate_coordinate_is_involutive(self):
        for s in canonical_sign_vectors(3):
            for j in range(3):
                flipped = negate_coordinate(s, j)
                assert is_canonical(flipped)
                assert negate_coordinate(flipped, j) == s

    def test_negate_column_keeps_cardinality(self):
        image = negate_column([(1, 1), (1, 0)], 1)
        assert image == {(1, -1), (1, 0)}

    def test_rejects_bad_permutations_and_indices(self):
        with pytest.raises(DomainError):
            apply_permutation((0, 0), (1, 1))
        with pytest.raises(DomainError):
            negate_coordinate((1, 1), 2)

    def test_column_operations_preserve_counts(self, rng):
        for _ in range(100):
            n = rng.randint(2, 5)
            universe = canonical_sign_vectors(n)
            X = rng.sample(universe, rng.randint(1, 3))
            before = eliminated_count(X, n)
            sigma = list(range(n))
            rng.shuffle(sigma)
            permuted = [apply_permutation(sigma, x) for x in X]
            assert eliminated_count(permuted, n) == before
            j = rng.randrange(n)
            flipped = negate_column(X, j)
            assert eliminated_count(flipped, n) == before


class TestSerialization:
    def test_sign_string_alphabet(self):
        assert sign_string((1, 0, -1, UNDETERMINED)) == "+0-u"
        assert parse_sign_string("+0-u") == (1, 0, -1, UNDETERMINED)

    def test_parse_rejects_junk(self):
        with pytest.raises(DomainError):
            parse_sign_string("")
        with pytest.raises(DomainError):
            parse_sign_string("+x")
        with pytest.raises(DomainError):
            parse_sign_string("+u", total=False)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_strings_render_the_table_in_order(self, n):
        column = table_strings(n)
        assert not column.flags.writeable
        assert column.astype(str).tolist() == [
            sign_string(v) for v in canonical_sign_vectors(n)
        ]

    @given(total_signs())
    def test_round_trip(self, t):
        assert parse_sign_string(sign_string(t)) == t

    def test_zero_count(self):
        assert zero_count((0, 1, 0, -1)) == 2
        assert zero_count((UNDETERMINED,)) == 0
