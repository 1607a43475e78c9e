"""One input rule for sets of sign vectors, and every entry that applies it."""

import pytest

from signelim import (
    DomainError,
    count_eliminated_oracle,
    count_eliminated_union,
    covered_fraction,
    describe_cover,
    eliminated_count,
    eliminated_mask,
    eliminated_set,
    is_eliminating_cover,
    is_minimal_cover,
    jointly_eliminated_count,
    sensitivity_score,
)
from signelim.cli import main
from signelim import signvec
from signelim.signvec import sign_rows

U = 2  # UNDETERMINED


class TestSignRows:
    def test_deduplicates_into_enumeration_order(self):
        rows = [[1, -1], (1, 0), (0, 1), (1, -1), (1, 1)]
        assert sign_rows(rows) == [(0, 1), (1, 0), (1, 1), (1, -1)]

    def test_total_rows_may_be_non_canonical_or_undetermined(self):
        rows = [(-1, U), (0, 0), (U, 1), (-1, U)]
        assert sign_rows(rows, 2, total=True) == [(0, 0), (-1, U), (U, 1)]

    def test_empty_input_is_an_empty_list(self):
        assert sign_rows([]) == []
        assert sign_rows([], 3, total=True) == []

    def test_length_is_the_first_row_s_without_n(self):
        with pytest.raises(DomainError, match="expected length 2"):
            sign_rows([(1, 0), (1, 0, 0)])

    def test_each_row_is_validated_once(self, monkeypatch):
        seen = []
        check = signvec._validate_sign_vector
        monkeypatch.setattr(
            signvec, "_validate_sign_vector", lambda v, **kw: seen.append(v) or check(v, **kw)
        )
        rows = [(1, -1), (0, 1), (1, -1)]
        assert sign_rows(rows) == [(0, 1), (1, -1)]
        assert sign_rows(rows, total=True) == [(0, 1), (1, -1)]
        assert seen == rows * 2


# entry -> (call taking (X, n), accepts total signs, takes n)
ENTRIES = {
    "sign_rows": (lambda X, n: sign_rows(X, n), False, True),
    "sign_rows total": (lambda X, n: sign_rows(X, n, total=True), True, True),
    "eliminated_mask": (eliminated_mask, True, True),
    "eliminated_set": (eliminated_set, True, True),
    "eliminated_count": (eliminated_count, True, True),
    "jointly_eliminated_count": (jointly_eliminated_count, True, True),
    "count_eliminated_oracle": (count_eliminated_oracle, True, True),
    "count_eliminated_union": (lambda X, n: count_eliminated_union(X), False, False),
    "is_eliminating_cover": (is_eliminating_cover, False, True),
    "is_minimal_cover": (is_minimal_cover, False, True),
    "describe_cover": (describe_cover, False, True),
    "covered_fraction": (covered_fraction, False, True),
    "sensitivity_score": (lambda X, n: sensitivity_score(n, X), False, True),
}

CASES = {
    "mixed lengths": ([(1, 0), (1, 0, 0)], 2),
    "bad entry": ([(1, 0), (1, 5)], 2),
    "non-canonical row": ([(1, 0), (-1, 1)], 2),
    "wrong n": ([(1, 0), (0, 1)], 3),
}


def _applies(case, total, takes_n):
    """Total signs need not be canonical; a wrong n needs an n to be wrong."""
    if case == "non-canonical row":
        return not total
    return case != "wrong n" or takes_n


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry, (_, total, takes_n) in ENTRIES.items()
        for case in CASES
        if _applies(case, total, takes_n)
    ],
)
def test_entry_rejects_a_malformed_set(entry, case):
    call = ENTRIES[entry][0]
    X, n = CASES[case]
    with pytest.raises(DomainError):
        call(X, n)


# command -> (argv prefix, flag per vector, accepts total signs, takes --n)
COMMANDS = {
    "ze": (["ze"], "--t", True, True),
    "count oracle": (["count", "oracle"], "--x", True, True),
    "count set": (["count", "set"], "--x", False, False),
    "count intersect": (["count", "intersect"], "--x", False, False),
}

CLI_CASES = {
    "mixed lengths": (["+0", "+00"], None),
    "bad entry": (["+0", "+x"], None),
    "non-canonical row": (["+0", "-+"], None),
    "wrong n": (["+0", "0+"], "3"),
}


@pytest.mark.parametrize(
    "command, case",
    [
        (command, case)
        for command, (_, _, total, takes_n) in COMMANDS.items()
        for case in CLI_CASES
        if _applies(case, total, takes_n)
    ],
)
def test_command_rejects_a_malformed_set(capsys, command, case):
    prefix, flag, _, _ = COMMANDS[command]
    signs, n = CLI_CASES[case]
    argv = prefix + [f"{flag}={text}" for text in signs]
    if n is not None:
        argv += ["--n", n]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    if command == "ze" and case in ("mixed lengths", "wrong n"):
        assert "length" in err
