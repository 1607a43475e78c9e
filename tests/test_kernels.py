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


class TestBackendParity:
    def test_masks_match_brute_force(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            table = sign_vector_table(n)
            elim = random_eliminators(rng, n, rng.randint(1, 3))
            X = [tuple(row) for row in elim.tolist()]
            expect_any = np.asarray(
                [
                    any(oracles.eliminates(t, tuple(s)) for t in X)
                    for s in table.tolist()
                ]
            )
            expect_all = np.asarray(
                [
                    all(oracles.eliminates(t, tuple(s)) for t in X)
                    for s in table.tolist()
                ]
            )
            assert np.array_equal(eliminated_any_mask(table, elim), expect_any)
            assert np.array_equal(eliminated_all_mask(table, elim), expect_all)

    def test_numpy_chunking_is_invisible(self, rng, monkeypatch):
        monkeypatch.setattr(backend, "_CHUNK_ROWS", 7)
        n = 6
        table = sign_vector_table(n)
        # Without "u" entries both masks are mixed, so either reducer would
        # show a chunk written to the wrong rows.
        elim = random_eliminators(rng, n, 3, allow_undetermined=False)
        X = [tuple(t) for t in elim.tolist()]
        for mask, reduce in ((eliminated_any_mask, any), (eliminated_all_mask, all)):
            chunked = mask(table, elim)
            expect = np.asarray(
                [reduce(oracles.eliminates(t, tuple(s)) for t in X) for s in table.tolist()]
            )
            assert 0 < expect.sum() < expect.size
            assert np.array_equal(chunked, expect)

    def test_empty_eliminator_matrix(self):
        table = sign_vector_table(3)
        empty = np.zeros((0, 3), dtype=np.int8)
        assert not eliminated_any_mask(table, empty).any()
