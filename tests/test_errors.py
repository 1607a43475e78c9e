import re
from fractions import Fraction

import pytest

from signelim import (
    Certificate,
    ExperimentRecord,
    ProjectionFamily,
    ResourceLimitError,
    ValidationError,
    analyze_gate,
    apply_functional,
    as_fraction_dot,
    boolean_gate,
    canonical_sign_vectors,
    count_eliminated_union,
    covers,
    data_upper_bound,
    evaluate,
    expand,
    gates,
    minimal_covers,
    orthogonality_implication_holds,
    sensitivity,
    signvec,
    total_sign,
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
