import numpy as np
import pytest

from signelim import backend
from signelim.backend import (
    UNDETERMINED,
    eliminated_all_mask,
    eliminated_any_mask,
    sign_vector_table,
)

import oracles


def random_eliminators(rng, n, rows, allow_undetermined=True):
    alphabet = (-1, 0, 1, UNDETERMINED) if allow_undetermined else (-1, 0, 1)
    out = []
    while len(out) < rows:
        t = tuple(rng.choice(alphabet) for _ in range(n))
        if any(e in (-1, 1) for e in t):
            out.append(t)
    return np.asarray(out, dtype=np.int8)


class TestTable:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_match_brute_force(self, n):
        rows = [tuple(r) for r in sign_vector_table(n).tolist()]
        assert rows == oracles.canonical_vectors(n)

    def test_dtype_and_shape(self):
        t = sign_vector_table(5)
        assert t.dtype == np.int8
        assert t.shape == ((3**5 - 1) // 2, 5)

    def test_blocks_by_first_nonzero_are_contiguous(self):
        t = sign_vector_table(4)
        firsts = [next(i for i, e in enumerate(row) if e) for row in t.tolist()]
        assert firsts == sorted(firsts, reverse=True)

    def test_cached_instances_are_reused(self):
        assert sign_vector_table(6) is sign_vector_table(6)


def transform_masks(table, elim, every):
    has_u = bool((elim == UNDETERMINED).any())
    counts = backend._elimination_counts(table, elim, has_u)
    return counts == elim.shape[0] if every else counts > 0


def dispatched_masks(table, elim, every):
    return (eliminated_all_mask if every else eliminated_any_mask)(table, elim)


KERNELS = {
    "scan": backend._scan_masks,
    "transform": transform_masks,
    "dispatch": dispatched_masks,
}


def assert_masks_match_oracle(kernel, table, elim):
    X = [tuple(t) for t in elim.tolist()]
    hits = [[oracles.eliminates(t, tuple(s)) for t in X] for s in table.tolist()]
    expect_any = np.asarray([any(h) for h in hits], dtype=bool)
    expect_all = np.asarray([all(h) for h in hits], dtype=bool)
    assert np.array_equal(KERNELS[kernel](table, elim, False), expect_any)
    assert np.array_equal(KERNELS[kernel](table, elim, True), expect_all)


def with_negations(elim):
    """elim followed by each of its rows negated ("u" stays "u")."""
    negated = np.where(elim == UNDETERMINED, UNDETERMINED, -elim).astype(np.int8)
    return np.concatenate([elim, negated])


class TestBackendParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_masks_match_brute_force(self, rng, kernel):
        for _ in range(30):
            n = rng.randint(1, 7)
            table = sign_vector_table(n)
            elim = random_eliminators(
                rng, n, rng.randint(1, 12), allow_undetermined=rng.random() < 0.5
            )
            assert_masks_match_oracle(kernel, table, elim)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_whole_table_as_eliminators(self, kernel, n):
        # The complement-of-a-lower-set call: up to every canonical vector.
        table = sign_vector_table(n)
        assert_masks_match_oracle(kernel, table, table)
        assert_masks_match_oracle(kernel, table, table[: max(1, table.shape[0] // 3)])

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("allow_undetermined", [False, True])
    def test_duplicates_and_negations(self, rng, kernel, allow_undetermined):
        for n in range(1, 6):
            table = sign_vector_table(n)
            elim = random_eliminators(rng, n, 4, allow_undetermined)
            assert_masks_match_oracle(kernel, table, np.concatenate([elim, elim[:2]]))
            assert_masks_match_oracle(kernel, table, with_negations(elim))
            # Rows with no +-1 entry equal their own negation and eliminate
            # nothing; all-zero and all-"u" rows must not shift the counts.
            blank = np.asarray([[0] * n, [UNDETERMINED] * n], dtype=np.int8)
            assert_masks_match_oracle(kernel, table, np.concatenate([elim, blank]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_partial_table(self, rng, kernel):
        # A shuffled subset of the enumeration, like the rows callers pass
        # when the table is not the cached canonical one.
        for n in range(1, 8):
            full = sign_vector_table(n)
            picks = rng.sample(range(full.shape[0]), rng.randint(1, min(full.shape[0], 60)))
            rows = full[picks]
            for allow_undetermined in (False, True):
                elim = random_eliminators(rng, n, rng.randint(1, 8), allow_undetermined)
                assert_masks_match_oracle(kernel, rows, elim)
            assert_masks_match_oracle(kernel, rows, rows[:1])

    def test_numpy_chunking_is_invisible(self, rng, monkeypatch):
        monkeypatch.setattr(backend, "_CHUNK_ROWS", 7)
        n = 6
        table = sign_vector_table(n)
        # Without "u" entries both masks are mixed, so either reducer would
        # show a chunk written to the wrong rows. The scan is called directly:
        # three rows at n = 6 dispatch to the transform.
        elim = random_eliminators(rng, n, 3, allow_undetermined=False)
        X = [tuple(t) for t in elim.tolist()]
        for every, reduce in ((False, any), (True, all)):
            chunked = backend._scan_masks(table, elim, every)
            expect = np.asarray(
                [reduce(oracles.eliminates(t, tuple(s)) for t in X) for s in table.tolist()]
            )
            assert 0 < expect.sum() < expect.size
            assert np.array_equal(chunked, expect)

    def test_eliminator_blocks_are_invisible(self, rng, monkeypatch):
        # More eliminators than _CHUNK_ROWS: each table row meets the
        # eliminators in several blocks.
        monkeypatch.setattr(backend, "_CHUNK_ROWS", 2)
        table = sign_vector_table(4)
        elim = random_eliminators(rng, 4, 5, allow_undetermined=False)
        X = [tuple(t) for t in elim.tolist()]
        for every, reduce in ((False, any), (True, all)):
            expect = [reduce(oracles.eliminates(t, tuple(s)) for t in X) for s in table.tolist()]
            assert backend._scan_masks(table, elim, every).tolist() == expect

    def test_empty_eliminator_matrix(self):
        table = sign_vector_table(3)
        empty = np.zeros((0, 3), dtype=np.int8)
        assert not eliminated_any_mask(table, empty).any()
        with pytest.raises(ValueError, match="at least one row"):
            eliminated_all_mask(table, empty)


class TestRowMasks:
    def assert_rows_match_oracle(self, table, elim):
        masks = backend._row_masks(table, elim)
        assert masks.shape == (elim.shape[0], table.shape[0])
        for t, row in zip(elim.tolist(), masks.tolist()):
            assert row == [oracles.eliminates(tuple(t), tuple(s)) for s in table.tolist()]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blank_duplicate_and_negated_rows(self, rng, n):
        table = sign_vector_table(n)
        elim = random_eliminators(rng, n, 4)
        blank = np.asarray([[0] * n, [UNDETERMINED] * n], dtype=np.int8)
        rows = np.concatenate([blank, elim, elim[:2], with_negations(elim)])
        self.assert_rows_match_oracle(table, rows)
        assert not backend._row_masks(table, blank).any()

    def test_random_rows_on_partial_tables(self, rng):
        for n in range(1, 8):
            full = sign_vector_table(n)
            picks = rng.sample(range(full.shape[0]), rng.randint(1, min(full.shape[0], 40)))
            elim = random_eliminators(rng, n, rng.randint(1, 6))
            self.assert_rows_match_oracle(full[picks], elim)

    def test_no_rows(self):
        assert backend._row_masks(sign_vector_table(3), np.zeros((0, 3), np.int8)).shape == (0, 13)


class TestDispatch:
    def test_one_eliminator_row_takes_the_scan(self):
        for n in range(1, 17):
            rows = (3**n - 1) // 2
            assert not backend._use_transform(rows, n, 1, has_u=False)
            assert not backend._use_transform(rows, n, 1, has_u=True)

    def test_whole_complement_takes_the_transform(self):
        rows = (3**6 - 1) // 2
        assert backend._use_transform(rows, 6, rows, has_u=False)

    def test_over_budget_grid_takes_the_scan(self):
        rows = (3**16 - 1) // 2
        assert 4**16 > backend._GRID_BUDGET
        assert not backend._use_transform(rows, 16, rows, has_u=True)

    @pytest.mark.parametrize("has_u", [False, True])
    def test_grid_never_exceeds_the_budget(self, has_u):
        k = 4 if has_u else 3
        for n in range(1, 17):
            rows = (3**n - 1) // 2
            if backend._use_transform(rows, n, rows, has_u):
                assert k**n <= backend._GRID_BUDGET
