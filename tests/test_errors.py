import re
from fractions import Fraction

import pytest

from signelim import (
    Certificate,
    DomainError,
    ExperimentRecord,
    ProjectionFamily,
    ResourceLimitError,
    SignMatrix,
    ValidationError,
    analyze_gate,
    apply_functional,
    apply_permutation,
    as_fraction_dot,
    boolean_gate,
    canonical_sign_vectors,
    count_eliminated_union,
    cover_reports,
    covers,
    data_upper_bound,
    evaluate,
    expand,
    gates,
    minimal_covers,
    negate_column,
    negate_coordinate,
    orthogonality_implication_holds,
    sensitivity,
    signvec,
    total_sign,
    unit_vectors,
    verify_certificate,
)

CAP_CONSUMERS = {
    "SIGNELIM_MAX_N": lambda: canonical_sign_vectors(2),
    "SIGNELIM_SUBSET_CAP": lambda: count_eliminated_union([(1, 0)]),
    "SIGNELIM_SEARCH_CAP": lambda: minimal_covers(2, 1),
    "SIGNELIM_BASE_POINT_CAP": lambda: analyze_gate(
        expand(boolean_gate([0, 0, 0, 1], 2))
    ),
}


@pytest.mark.parametrize("name", sorted(CAP_CONSUMERS))
@pytest.mark.parametrize(
    "raw, message",
    [
        ("abc", "{name} must be an integer, got 'abc'"),
        ("0", "{name} must be >= 1, got 0"),
    ],
)
def test_malformed_cap_is_rejected(monkeypatch, name, raw, message):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ResourceLimitError, match=re.escape(message.format(name=name))):
        CAP_CONSUMERS[name]()


HALF = Fraction(1, 2)
FIRST = expand(boolean_gate([0, 0, 1, 1], 2))
RECORDS = [ExperimentRecord(((HALF, HALF), (HALF, HALF)), (Fraction(0),))] * 2

# Every library entry that takes a caller's rational: the name its errors
# start with, and a call putting the rational r (and, in a point, its
# complement c) into that argument.
EXACT_ENTRIES = {
    "evaluate": ("point block 0", lambda r, c: evaluate(FIRST, [[r, c], [1, 0]])),
    "apply_functional": ("w", lambda r, c: apply_functional(FIRST, [r])),
    "total_sign": ("w", lambda r, c: total_sign(FIRST, (0, 0), [r])),
    "verify_certificate": (
        "certificate witness 0",
        lambda r, c: verify_certificate(FIRST, Certificate((0, 0), (((r,), (1, 0)),), 2)),
    ),
    "analyze_gate eps": ("eps", lambda r, c: analyze_gate(FIRST, eps=r)),
    "analyze_gate delta": ("delta", lambda r, c: analyze_gate(FIRST, delta=r)),
    "analyze_gate records eps": (
        "eps",
        lambda r, c: analyze_gate(FIRST, records=RECORDS, eps=r),
    ),
    "analyze_gate records delta": (
        "delta",
        lambda r, c: analyze_gate(FIRST, records=RECORDS, delta=r),
    ),
    "data_upper_bound eps": ("eps", lambda r, c: data_upper_bound(RECORDS, FIRST, eps=r)),
    "data_upper_bound delta": (
        "delta",
        lambda r, c: data_upper_bound(RECORDS, FIRST, delta=r),
    ),
    "as_fraction_dot": ("v", lambda r, c: as_fraction_dot([r, 1], (1, 0))),
    "orthogonality_implication_holds": (
        "v",
        lambda r, c: orthogonality_implication_holds((1, 0), [r, 1]),
    ),
    "ProjectionFamily": ("functional 0", lambda r, c: ProjectionFamily(((r, 1),), 2)),
    "ProjectionFamily.from_vectors": (
        "functional 0",
        lambda r, c: ProjectionFamily.from_vectors([[r, 1]], 2),
    ),
}


@pytest.mark.parametrize("entry", sorted(EXACT_ENTRIES))
@pytest.mark.parametrize("bad", [0.1, True, "x"], ids=["float", "bool", "text"])
def test_inexact_rationals_are_rejected_naming_the_argument(entry, bad):
    name, call = EXACT_ENTRIES[entry]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)}: "):
        call(bad, 0)


@pytest.mark.parametrize("entry", sorted(EXACT_ENTRIES))
@pytest.mark.parametrize("good", [HALF, 0, "1/2"], ids=["Fraction", "int", "text"])
def test_exact_rationals_pass_parse_rational(monkeypatch, entry, good):
    """Each entry reads its argument with parse_rational_vector, which
    hands a Fraction on as the same object."""
    parsed = {}

    def spy(values, where):
        parsed[where] = parse(values, where)
        return parsed[where]

    parse = gates.parse_rational_vector
    for module in (gates, sensitivity, signvec, covers):
        monkeypatch.setattr(module, "parse_rational_vector", spy)
    name, call = EXACT_ENTRIES[entry]
    call(good, 1 - Fraction(good))
    assert parsed[name][0] == Fraction(good)
    if good is HALF:
        assert parsed[name][0] is HALF


# The library entries that take an index or a size, other than a base point
# (checked with the base point tests): the range-check message for a bad
# value, and a call putting the value into that argument. Like a base point
# entry, the value must be an int: a float is not an index, and a bool,
# though an int, would be read as 0/1.
INDEX_ENTRIES = {
    "apply_permutation": (
        "({j}, 0) is not a permutation of range(2)",
        lambda j: apply_permutation((j, 0), (1, 0)),
    ),
    "negate_coordinate": (
        "column index {j} out of range for length 2",
        lambda j: negate_coordinate((1, 0), j),
    ),
    "negate_column": (
        "column index {j} out of range for length 2",
        lambda j: negate_column([(1, 0)], j),
    ),
    "SignMatrix.column": (
        "column index {j} out of range",
        lambda j: SignMatrix.from_rows([(1, 0), (0, 1)]).column(j),
    ),
    "unit_vectors": (
        "unit position {j} out of range for length 3",
        lambda j: unit_vectors(3, [j]),
    ),
    "minimal_covers": ("max_size must be >= 1, got {j}", lambda j: minimal_covers(2, j)),
    "cover_reports": ("max_size must be >= 1, got {j}", lambda j: cover_reports(2, j)),
}


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
@pytest.mark.parametrize("bad", [1.0, 1.5, True], ids=["whole-float", "float", "bool"])
def test_non_int_indices_raise_the_range_message(entry, bad):
    message, call = INDEX_ENTRIES[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(message.format(j=bad))}"):
        call(bad)


@pytest.mark.parametrize("x", [(Fraction(1, 2), 0), (0.5, 0), (5, True)], ids=["Fraction", "float", "out-of-range"])
def test_as_fraction_dot_reads_a_sign_vector(x):
    with pytest.raises(DomainError, match=f"^invalid sign entry {re.escape(repr(x[0]))} in "):
        as_fraction_dot([1, 1], x)


# The library entries that read a sign vector, each given the vector
# (entry, 0). A sign entry follows the index rule: 1.0 is not an int, and
# True, though an int, would be kept as a bool.
SIGN_ENTRIES = {
    "sign_rows": lambda v: signvec.sign_rows([v]),
    "eliminates": lambda v: signvec.eliminates(v, (1, 0)),
    "sign_string": signvec.sign_string,
    "as_fraction_dot": lambda v: as_fraction_dot([1, 1], v),
    "eliminated_count": lambda v: signvec.eliminated_count([v], 2),
    "count_eliminated_union": lambda v: count_eliminated_union([v]),
}


@pytest.mark.parametrize("entry", sorted(SIGN_ENTRIES) + ["is_canonical"])
@pytest.mark.parametrize("bad", [1.0, True], ids=["whole-float", "bool"])
def test_non_int_sign_entries_are_invalid(entry, bad):
    if entry == "is_canonical":
        assert signvec.is_canonical((bad, 0)) is False
        return
    with pytest.raises(DomainError, match=f"^invalid (total )?sign entry {bad!r} in "):
        SIGN_ENTRIES[entry]((bad, 0))
