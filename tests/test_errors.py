import re

import pytest

from signelim import (
    ResourceLimitError,
    analyze_gate,
    boolean_gate,
    canonical_sign_vectors,
    count_eliminated_union,
    expand,
    minimal_covers,
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
