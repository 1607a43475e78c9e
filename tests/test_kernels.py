import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from signelim import backend, sensitivity, signvec
from signelim.backend import (
    UNDETERMINED,
    eliminated_any_mask,
    row_mask_bits,
    sign_vector_table,
)
from signelim.signvec import jointly_eliminated_count, table_strings

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
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_match_brute_force(self, n):
        rows = [tuple(r) for r in sign_vector_table(n).tolist()]
        assert rows == oracles.canonical_vectors(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_rows_decode_the_canonical_codes(self, n):
        # digit j of each code, most significant first, with 2 read as -1
        table = sign_vector_table(n)
        codes = backend._canonical_index(n)
        assert table.shape == (codes.size, n)
        for j in range(n):
            digit = codes // 3 ** (n - 1 - j) % 3
            assert (table[:, j] == np.where(digit == 2, -1, digit)).all()

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
    """The transform of the set of elim's rows up to sign, read at table's rows.

    The transform takes a set as a mask over the whole enumeration, so elim
    must be free of "u" and of rows without a +-1 entry; ``table`` may be any
    selection of the enumeration's rows, read from the full mask. A row and
    its negation eliminate the same vectors, so the all-mask is the set of
    vectors whose count equals the number of members.
    """
    n = table.shape[1]
    full = [tuple(s) for s in sign_vector_table(n).tolist()]
    rows = {oracles.canonical(t) for t in elim.tolist()}
    members = np.array([s in rows for s in full])
    counts = backend._elimination_counts(n, members[None])[0]
    mask = counts == members.sum() if every else counts > 0
    position = {s: i for i, s in enumerate(full)}
    return mask[[position[tuple(s)] for s in table.tolist()]]


def unpack(bits, table):
    """The bool masks over ``table``'s rows of packed rows."""
    return np.unpackbits(bits, axis=-1, count=table.shape[0]).astype(bool)


def reduce_bits(table, elim, every):
    """The OR (or, with ``every``, the AND) of row_mask_bits' rows, unpacked."""
    reduce = np.bitwise_and if every else np.bitwise_or
    return unpack(reduce.reduce(row_mask_bits(table, elim), axis=0), table)


def scan_masks(table, elim, every):
    """The union scan, unpacked; the all-mask is the AND of the packed
    per-row sets."""
    return reduce_bits(table, elim, True) if every else unpack(eliminated_any_mask(table, elim), table)


KERNELS = {
    "scan": scan_masks,
    "transform": transform_masks,
    # the packed per-row sets that the certificate, the cover search and
    # jointly_eliminated_count read, OR-ed or AND-ed
    "dispatch": reduce_bits,
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
            allow_undetermined = rng.random() < 0.5 and kernel != "transform"
            elim = random_eliminators(rng, n, rng.randint(1, 12), allow_undetermined)
            assert_masks_match_oracle(kernel, table, elim)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_whole_table_as_eliminators(self, kernel, n):
        # The complement-of-a-lower-set call: up to every canonical vector.
        table = sign_vector_table(n)
        assert_masks_match_oracle(kernel, table, table)
        assert_masks_match_oracle(kernel, table, table[: max(1, table.shape[0] // 3)])

    @pytest.mark.parametrize(
        "allow_undetermined, kernel",
        [(False, kernel) for kernel in KERNELS]
        + [(True, kernel) for kernel in KERNELS if kernel != "transform"],
    )
    def test_duplicates_and_negations(self, rng, kernel, allow_undetermined):
        for n in range(1, 6):
            table = sign_vector_table(n)
            elim = random_eliminators(rng, n, 4, allow_undetermined)
            assert_masks_match_oracle(kernel, table, np.concatenate([elim, elim[:2]]))
            assert_masks_match_oracle(kernel, table, with_negations(elim))
            if kernel == "transform":
                continue  # a set holds no row without a +-1 entry
            # Rows with no +-1 entry equal their own negation and eliminate
            # nothing; all-zero and all-"u" rows must not shift the counts.
            blank = np.asarray([[0] * n, [UNDETERMINED] * n], dtype=np.int8)
            assert_masks_match_oracle(kernel, table, np.concatenate([elim, blank]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_partial_table(self, rng, kernel):
        # A shuffled subset of the enumeration; the transform's masks are
        # over the whole enumeration and are read at the subset's rows.
        for n in range(1, 8):
            full = sign_vector_table(n)
            picks = rng.sample(range(full.shape[0]), rng.randint(1, min(full.shape[0], 60)))
            rows = full[picks]
            for allow_undetermined in (False,) if kernel == "transform" else (False, True):
                elim = random_eliminators(rng, n, rng.randint(1, 8), allow_undetermined)
                assert_masks_match_oracle(kernel, rows, elim)
            assert_masks_match_oracle(kernel, rows, rows[:1])

    def test_numpy_chunking_is_invisible(self, rng, monkeypatch):
        monkeypatch.setattr(backend, "_CHUNK_ROWS", 7)
        n = 6
        table = sign_vector_table(n)
        # Without "u" entries both masks are mixed, so either reducer would
        # show a chunk written to the wrong rows.
        elim = random_eliminators(rng, n, 3, allow_undetermined=False)
        X = [tuple(t) for t in elim.tolist()]
        for every, reduce in ((False, any), (True, all)):
            chunked = scan_masks(table, elim, every)
            expect = np.asarray(
                [reduce(oracles.eliminates(t, tuple(s)) for t in X) for s in table.tolist()]
            )
            assert 0 < expect.sum() < expect.size
            assert np.array_equal(chunked, expect)

    def test_eliminator_blocks_are_invisible(self, rng, monkeypatch):
        # More eliminators than _CHUNK_ROWS: every block is 8 table rows
        # against all the eliminators, so the table is cut into many slices.
        monkeypatch.setattr(backend, "_CHUNK_ROWS", 2)
        table = sign_vector_table(4)
        elim = random_eliminators(rng, 4, 5, allow_undetermined=False)
        X = [tuple(t) for t in elim.tolist()]
        for every, reduce in ((False, any), (True, all)):
            expect = [reduce(oracles.eliminates(t, tuple(s)) for t in X) for s in table.tolist()]
            assert scan_masks(table, elim, every).tolist() == expect

    def test_empty_eliminator_matrix(self):
        table = sign_vector_table(3)
        empty = np.zeros((0, 3), dtype=np.int8)
        assert not eliminated_any_mask(table, empty).any()
        assert row_mask_bits(table, empty).shape == (0, 2)
        with pytest.raises(ValueError, match="at least one eliminator"):
            jointly_eliminated_count([], 3)


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


CHUNKS = [1, 2, 7, 8, 13, 40, 1 << 18]


class TestRowMaskBits:
    """The packed per-row producer against packbits of the unblocked rule."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_matches_packed_row_masks(self, rng, monkeypatch, chunk):
        cases = []
        for count in range(13):
            n = rng.randint(1, 6)
            full = sign_vector_table(n)
            elim = random_eliminators(rng, n, count).reshape(count, n)
            cases.append((full, elim))
            # a shuffled partial table, mostly of a length that is not a
            # multiple of 8
            picks = rng.sample(range(full.shape[0]), rng.randint(1, full.shape[0]))
            cases.append((full[picks], elim))
        blank = np.asarray([[0] * 4, [UNDETERMINED] * 4], dtype=np.int8)
        u_rows = np.concatenate([blank, random_eliminators(rng, 4, 6)])
        cases.append((sign_vector_table(4), u_rows))
        expected = [np.packbits(backend._row_masks(t, e), axis=1) for t, e in cases]
        monkeypatch.setattr(backend, "_CHUNK_ROWS", chunk)
        assert any(t.shape[0] % 8 for t, _ in cases)
        for (table, elim), expect in zip(cases, expected):
            bits = row_mask_bits(table, elim)
            assert bits.dtype == np.uint8
            assert bits.shape == (elim.shape[0], (table.shape[0] + 7) // 8)
            assert np.array_equal(bits, expect)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_every_block_keeps_the_bound(self, rng, monkeypatch, chunk):
        shapes = []
        row_masks = backend._row_masks

        def recorded(table, elim):
            shapes.append((elim.shape[0], table.shape[0]))
            return row_masks(table, elim)

        monkeypatch.setattr(backend, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(backend, "_row_masks", recorded)
        for n, count in ((3, 12), (4, 5), (5, 3), (6, 1)):
            table = sign_vector_table(n)
            elim = random_eliminators(rng, n, count)
            # both scan outputs read the same block schedule
            for scan in (row_mask_bits, eliminated_any_mask):
                shapes.clear()
                scan(table, elim)
                # all the eliminators against the whole table or a slice of
                # 8j table rows (only the table's last slice may be shorter)
                assert all(k == count for k, _ in shapes)
                assert all(k * rows <= max(chunk, 8 * count) for k, rows in shapes)
                assert sum(k * rows for k, rows in shapes) == count * table.shape[0]
                assert all(rows % 8 == 0 for _, rows in shapes[:-1])

    def test_row_masks_has_one_call_site(self):
        # _blocks, the one block schedule, is the rule's only caller in src/
        sites = []
        for path in sorted(Path(backend.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    name = getattr(node, "func", None)
                    if getattr(name, "id", getattr(name, "attr", None)) == "_row_masks":
                        sites.append((path.name, getattr(top, "name", None)))
        assert sites == [("backend.py", "_blocks")]

    def test_joint_count_with_duplicate_negated_and_u_rows(self, rng):
        for n in range(1, 6):
            elim = [tuple(t) for t in random_eliminators(rng, n, 3).tolist()]
            negated = [tuple(e if e == UNDETERMINED else -e for e in t) for t in elim]
            cases = [
                elim,
                elim + elim[:2],
                elim[:1] + negated[:1],
                elim + negated,
                elim[:2] + [(UNDETERMINED,) * n],
                [(0,) * n],
            ]
            for rows in cases:
                assert jointly_eliminated_count(rows, n) == len(
                    oracles.jointly_eliminated(rows, n)
                )


class TestPadBits:
    """The bits past the table are 0 in every packed row, so a set's size is
    its row's popcount. Only n = 4 (40 rows) has no pad bits up to n = 7."""

    @pytest.mark.parametrize("chunk", [8, 1 << 18])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_scan_outputs_leave_the_pad_bits_zero(self, rng, monkeypatch, n, chunk):
        monkeypatch.setattr(backend, "_CHUNK_ROWS", chunk)
        table = sign_vector_table(n)
        pad = 8 * ((table.shape[0] + 7) // 8) - table.shape[0]
        assert (pad == 0) == (n == 4)
        rows = random_eliminators(rng, n, 5)
        empty = np.zeros((0, n), dtype=np.int8)
        all_u = np.full((2, n), UNDETERMINED, dtype=np.int8)
        groups = [
            empty,
            rows,
            empty,
            all_u,
            np.concatenate([rows[:2], rows[:2]]),
            with_negations(rows[2:]),
            table,
            *(random_eliminators(rng, n, rng.randint(1, 4)) for _ in range(4)),
            empty,
        ]
        outputs = [backend.eliminated_any_masks(table, groups)]
        outputs += [row_mask_bits(table, group) for group in groups]
        for bits in outputs:
            assert not np.unpackbits(bits, axis=-1)[..., table.shape[0] :].any()
        union, per_row = outputs[0], outputs[1:]
        for group, row, bits in zip(groups, union, per_row):
            assert np.bitwise_count(row).sum() == sum(oracle_any(table, group))
            assert row.tolist() == np.bitwise_or.reduce(bits, axis=0, initial=0).tolist()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_eliminates_reads_its_one_row_table_exactly(self, n):
        # the scan's output there is one byte: the row's bit and 7 pad bits
        for t in itertools.product((-1, 0, 1, UNDETERMINED), repeat=n):
            for s in oracles.canonical_vectors(n):
                assert signvec.eliminates(t, s) == oracles.eliminates(t, s)


class TestTransform:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_axis_transform_matches_its_definition(self, rng, n):
        # A grid that is not symmetric under negation, unlike every grid
        # _elimination_counts builds, so a swap of the digits +1 and -1
        # shows. Digits 0, 1, 2 stand for 0, +1, -1.
        codes = list(itertools.product(range(3), repeat=n))
        grid = np.array([rng.randint(0, 3) for _ in codes], dtype=np.int32)
        sign = (0, 1, -1)
        for conformal in (False, True):
            expect = [
                sum(
                    int(count)
                    for m, count in zip(codes, grid)
                    if all(
                        not sign[si] or not sign[mi] or (conformal and mi == si)
                        for si, mi in zip(s, m)
                    )
                )
                for s in codes
            ]
            assert backend._axis_transform(grid, n, conformal).tolist() == expect

    @pytest.mark.parametrize("n", range(1, 9))
    def test_code_arrays_match_the_table(self, n):
        table = sign_vector_table(n)
        assert backend._canonical_index(n).tolist() == backend._base3_index(table).tolist()
        assert backend._negated_index(n).tolist() == backend._base3_index(-table).tolist()

    def test_nothing_above_n_12_is_pinned(self):
        caches = (
            backend.sign_vector_table,
            backend._canonical_index,
            backend._negated_index,
            signvec._table_strings,  # table_strings' cache
        )
        before = [cache.cache_info() for cache in caches]
        e1 = (1,) + (0,) * 12
        assert sensitivity.sensitivity_score(13, [e1]).value == 1
        assert table_strings(13)[0] == b"0" * 12 + b"+"
        assert [cache.cache_info() for cache in caches] == before
        assert not sign_vector_table(13).flags.writeable
        assert not table_strings(13).flags.writeable


def scan_groups(rng, n):
    """Eliminator groups for one batched scan: an empty group, the whole
    enumeration, a singleton, "u"-heavy rows, groups that share rows, a group
    with negated duplicates and one of rows that eliminate nothing."""
    table = sign_vector_table(n)
    rows = random_eliminators(rng, n, 4)
    u_heavy = np.full((3, n), UNDETERMINED, dtype=np.int8)
    for row in u_heavy:
        row[rng.randrange(n)] = rng.choice((-1, 1))
    blank = np.asarray([[0] * n, [UNDETERMINED] * n], dtype=np.int8)
    groups = [
        np.zeros((0, n), dtype=np.int8),
        table,
        rows[:1],
        u_heavy,
        rows[:3],
        rows[1:],
        with_negations(rows[:2]),
        np.concatenate([rows[2:], rows[2:]]),
        blank,
    ]
    rng.shuffle(groups)
    return table, groups


def oracle_any(table, group):
    X = [tuple(t) for t in group.tolist()]
    return [any(oracles.eliminates(t, tuple(s)) for t in X) for s in table.tolist()]


def reference_batches(cells, budget):
    """Greedy runs of consecutive items within the budget, one item at least."""
    runs, run = [], []
    for k, size in enumerate(cells):
        if run and sum(cells[j] for j in run) + size > budget:
            runs.append(run)
            run = []
        run.append(k)
    return [(run[0], run[-1] + 1) for run in runs + [run] if run]


class TestBatches:
    """The batched scan and transform against per-group and per-mask calls."""

    def test_batches_match_the_greedy_rule(self, rng, monkeypatch):
        for budget in (1, 5, 12, 40):
            monkeypatch.setattr(backend, "_BATCH_CELLS", budget)
            for _ in range(30):
                cells = [rng.choice((0, 1, 3, 5, 12, 13, 50)) for _ in range(rng.randint(0, 12))]
                assert list(backend._batches(cells)) == reference_batches(cells, budget)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scan_matches_per_group_calls_and_the_oracle(self, rng, n):
        table, groups = scan_groups(rng, n)
        masks = backend.eliminated_any_masks(table, groups)
        width = (table.shape[0] + 7) // 8
        assert masks.shape == (len(groups), width) and masks.dtype == np.uint8
        for group, mask in zip(groups, masks):
            assert mask.tolist() == eliminated_any_mask(table, group).tolist()
            assert unpack(mask, table).tolist() == oracle_any(table, group)
        assert backend.eliminated_any_masks(table, []).shape == (0, width)

    @pytest.mark.parametrize("budget", [1, 1 << 14])
    def test_empty_scans_make_no_kernel_call(self, rng, monkeypatch, budget):
        calls, row_masks = [], backend._row_masks

        def counted(table, elim):
            calls.append(elim.shape[0])
            return row_masks(table, elim)

        monkeypatch.setattr(backend, "_row_masks", counted)
        monkeypatch.setattr(backend, "_BATCH_CELLS", budget)
        table, groups = scan_groups(rng, 4)
        empty = np.zeros((0, 4), dtype=np.int8)
        assert row_mask_bits(table, empty).shape == (0, 5)
        assert backend.eliminated_any_masks(table, [empty, empty]).tolist() == [[0] * 5] * 2
        assert calls == []
        # empty groups first, last and between nonempty ones
        mixed = [empty, *groups[:3], empty, *groups[3:], empty]
        masks = backend.eliminated_any_masks(table, mixed)
        assert unpack(masks, table).tolist() == [oracle_any(table, group) for group in mixed]
        assert calls and 0 not in calls
        assert sum(calls) == sum(group.shape[0] for group in groups)

    @pytest.mark.parametrize("chunk", [1, 8, 16, 24])
    @pytest.mark.parametrize("budget", [1, 13, 40, 121])
    def test_small_budgets_split_batches_and_blocks(self, rng, monkeypatch, chunk, budget):
        n = 4  # 40 table rows
        table, groups = scan_groups(rng, n)
        expected = [oracle_any(table, group) for group in groups]
        sizes = [group.shape[0] for group in groups]
        monkeypatch.setattr(backend, "_BATCH_CELLS", budget)
        monkeypatch.setattr(backend, "_CHUNK_ROWS", chunk)
        blocks, batches = backend._blocks, []

        def spy(table, elim):
            batches.append([])
            for i, block in blocks(table, elim):
                batches[-1].append(block.shape[0])
                yield i, block

        monkeypatch.setattr(backend, "_blocks", spy)
        assert unpack(backend.eliminated_any_masks(table, groups), table).tolist() == expected
        # the budget makes no batches: one eliminator matrix of all groups,
        # whose every block holds all of its rows, so no group is split
        # between blocks
        (block_rows,) = batches
        assert block_rows == [sum(sizes)] * len(block_rows) and block_rows
        if chunk <= 16:
            assert len(block_rows) > 1  # the table is cut

    @pytest.mark.parametrize("n", range(1, 6))
    def test_transform_matches_per_mask_calls_and_the_oracle(self, rng, n):
        vectors = oracles.canonical_vectors(n)
        size = len(vectors)
        single = np.zeros(size, dtype=bool)
        single[rng.randrange(size)] = True
        masks = np.array(
            [
                np.zeros(size, dtype=bool),
                np.ones(size, dtype=bool),
                single,
                *([rng.random() < p for _ in vectors] for p in (0.2, 0.5, 0.8)),
            ]
        )
        counts = backend._elimination_counts(n, masks)
        assert counts.shape == masks.shape
        for mask, row in zip(masks, counts):
            assert row.tolist() == backend._elimination_counts(n, mask[None])[0].tolist()
            members = [t for t, hit in zip(vectors, mask) if hit]
            assert row.tolist() == [sum(oracles.eliminates(t, s) for t in members) for s in vectors]

    @pytest.mark.parametrize("budget", [1, 27, 28, 81, 200])
    def test_scores_in_small_batches_match_per_mask_scores(self, rng, monkeypatch, budget):
        n = 3  # 27 grid cells per mask
        vectors = oracles.canonical_vectors(n)
        masks = [np.array([rng.random() < p for _ in vectors]) for p in (0.0, 1.0) + (0.3, 0.6) * 4]
        masks[2][:2] = (True, False)  # at least one mixed mask
        records = [sensitivity._LowerSet(np.packbits(mask), n) for mask in masks]
        expected = [sensitivity._lower_scores(n, [record])[0] for record in records]
        monkeypatch.setattr(backend, "_BATCH_CELLS", budget)
        transform, stacks = backend._elimination_counts, []

        def spy(n, members):
            stacks.append(members.shape[0])
            return transform(n, members)

        monkeypatch.setattr(sensitivity, "_elimination_counts", spy)
        assert sensitivity._lower_scores(n, records) == expected
        mixed = sum(0 < mask.sum() < mask.size for mask in masks)
        assert sum(stacks) == mixed and max(stacks) <= max(1, budget // 27)
        assert len(stacks) == -(-mixed // max(1, budget // 27))
        assert [s.value for s in expected] == [
            oracles.lower_score([v for v, hit in zip(vectors, mask) if hit], n) for mask in masks
        ]
