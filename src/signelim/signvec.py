"""Sign vectors, total signs, and the elimination relation.

A sign vector is a plain tuple of ints over {-1, 0, +1}. It is canonical when
it is nonzero and its first nonzero entry is +1, so each {v, -v} class has one
representative. There are (3**n - 1) // 2 canonical vectors of length n,
enumerated in a fixed order: entrywise 0 < +1 < -1, leading coordinate most
significant.

A total sign vector may additionally contain UNDETERMINED (the int 2,
serialized as "u"). Total sign t eliminates canonical vector s when

  * s is zero at every index where t is UNDETERMINED,
  * there is at least one index where t is +1 or -1 and s is nonzero, and
  * over all such indices the products t[i] * s[i] agree (all +1 or all -1).

An UNDETERMINED entry never supplies the shared nonzero index required by the
second condition; it only constrains through the first.

String form uses the alphabet "+", "0", "-", "u", one character per entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import backend
from .backend import UNDETERMINED
from .errors import DomainError, ResourceLimitError, env_cap

__all__ = [
    "UNDETERMINED",
    "DEFAULT_MAX_N",
    "ENV_MAX_N",
    "enumeration_cap",
    "vector_count",
    "canonical_sign_vectors",
    "is_canonical",
    "canonicalize",
    "zero_count",
    "eliminates",
    "eliminated_set",
    "eliminated_count",
    "jointly_eliminated_count",
    "apply_permutation",
    "negate_coordinate",
    "negate_column",
    "enumeration_key",
    "sign_string",
    "parse_sign_string",
]

DEFAULT_MAX_N = 16
ENV_MAX_N = "SIGNELIM_MAX_N"

_SIGN_ENTRIES = (-1, 0, 1)
_TOTAL_ENTRIES = (-1, 0, 1, UNDETERMINED)

_CHAR_OF = {1: "+", 0: "0", -1: "-", UNDETERMINED: "u"}
_VALUE_OF = {"+": 1, "0": 0, "-": -1, "u": UNDETERMINED}


def enumeration_cap() -> int:
    """Largest length n for which enumeration-backed operations may run."""
    return env_cap(ENV_MAX_N, DEFAULT_MAX_N)


def _check_length(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"vector length must be a positive int, got {n!r}")
    cap = enumeration_cap()
    if n > cap:
        raise ResourceLimitError(
            f"length {n} exceeds the enumeration cap {cap}; "
            f"set {ENV_MAX_N} to raise it"
        )


def vector_count(n: int) -> int:
    """Number of canonical sign vectors of length n: (3**n - 1) // 2."""
    if n < 1:
        raise DomainError(f"vector length must be >= 1, got {n}")
    return (3**n - 1) // 2


def table(n: int) -> np.ndarray:
    """Canonical vectors of length n as a read-mostly int8 array (fixed order)."""
    _check_length(n)
    return backend.sign_vector_table(n)


def canonical_sign_vectors(n: int) -> list[tuple[int, ...]]:
    """All canonical sign vectors of length n, in enumeration order."""
    return [tuple(row) for row in table(n).tolist()]


def _validate_sign_vector(v: Sequence[int], *, total: bool = False) -> tuple[int, ...]:
    vec = tuple(v)
    if not vec:
        raise DomainError("sign vector must be nonempty")
    allowed = _TOTAL_ENTRIES if total else _SIGN_ENTRIES
    for entry in vec:
        if entry not in allowed:
            kind = "total sign" if total else "sign"
            raise DomainError(f"invalid {kind} entry {entry!r} in {vec!r}")
    return vec


def is_canonical(v: Sequence[int]) -> bool:
    """True when v is a nonzero sign vector whose first nonzero entry is +1."""
    vec = tuple(v)
    if any(entry not in _SIGN_ENTRIES for entry in vec):
        return False
    for entry in vec:
        if entry:
            return entry > 0
    return False


def _require_canonical(v: Sequence[int]) -> tuple[int, ...]:
    vec = _validate_sign_vector(v)
    if not is_canonical(vec):
        raise DomainError(f"{vec!r} is not canonical (first nonzero entry must be +1)")
    return vec


def sign_of(value) -> int:
    """Sign of a number as -1, 0, or +1 (exact for int and Fraction)."""
    return (value > 0) - (value < 0)


def canonicalize(values: Sequence) -> tuple[tuple[int, ...], int]:
    """Entrywise sign of `values`, flipped so the first nonzero entry is +1.

    Returns (canonical vector, flip) where flip is +1 when the raw sign
    pattern was kept and -1 when it was negated. Raises DomainError on an
    all-zero input, which has no canonical representative.
    """
    raw = tuple(sign_of(v) for v in values)
    if not raw:
        raise DomainError("cannot canonicalize an empty vector")
    for entry in raw:
        if entry:
            if entry > 0:
                return raw, 1
            return tuple(-e for e in raw), -1
    raise DomainError("cannot canonicalize the zero vector")


def zero_count(v: Sequence[int]) -> int:
    """Number of zero entries of a sign or total-sign vector."""
    vec = _validate_sign_vector(v, total=True)
    return sum(1 for entry in vec if entry == 0)


def eliminates(t: Sequence[int], s: Sequence[int]) -> bool:
    """Whether total sign t eliminates the canonical sign vector s."""
    tv = _validate_sign_vector(t, total=True)
    sv = _require_canonical(s)
    if len(tv) != len(sv):
        raise DomainError(f"length mismatch: {len(tv)} vs {len(sv)}")
    pos = neg = False
    for ti, si in zip(tv, sv):
        if ti == UNDETERMINED:
            if si != 0:
                return False
        elif ti != 0 and si != 0:
            if ti * si > 0:
                pos = True
            else:
                neg = True
    return pos != neg


def _as_eliminator_matrix(vectors: Iterable[Sequence[int]], n: int) -> np.ndarray:
    rows = []
    for v in vectors:
        vec = _validate_sign_vector(v, total=True)
        if len(vec) != n:
            raise DomainError(f"expected length {n}, got {vec!r}")
        rows.append(vec)
    if not rows:
        return np.zeros((0, n), dtype=np.int8)
    return np.asarray(sorted(set(rows)), dtype=np.int8)


def eliminated_mask(eliminators: Iterable[Sequence[int]], n: int) -> np.ndarray:
    """Mask over the length-n enumeration: eliminated by some member."""
    elim = _as_eliminator_matrix(eliminators, n)
    return backend.eliminated_any_mask(table(n), elim)


def eliminated_set(
    eliminators: Iterable[Sequence[int]], n: int
) -> frozenset[tuple[int, ...]]:
    """Canonical vectors of length n eliminated by at least one member."""
    mask = eliminated_mask(eliminators, n)
    rows = table(n)[mask]
    return frozenset(tuple(row) for row in rows.tolist())


def eliminated_count(eliminators: Iterable[Sequence[int]], n: int) -> int:
    """Exact size of eliminated_set, without materializing the set."""
    return int(eliminated_mask(eliminators, n).sum())


def jointly_eliminated_count(eliminators: Iterable[Sequence[int]], n: int) -> int:
    """Number of canonical vectors eliminated by every member (brute force)."""
    elim = _as_eliminator_matrix(eliminators, n)
    if elim.shape[0] == 0:
        raise DomainError("need at least one eliminator for a joint count")
    return int(backend.eliminated_all_mask(table(n), elim).sum())


def apply_permutation(sigma: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
    """Coordinate permutation followed by re-canonicalization.

    sigma is a 0-based permutation of range(len(x)); entry i of the result is
    x[sigma[i]]. The permuted vector is flipped if its first nonzero entry
    became -1, so canonical inputs stay canonical.
    """
    vec = _require_canonical(x)
    perm = tuple(sigma)
    if sorted(perm) != list(range(len(vec))):
        raise DomainError(f"{perm!r} is not a permutation of range({len(vec)})")
    moved = tuple(vec[perm[i]] for i in range(len(vec)))
    canon, _ = canonicalize(moved)
    return canon


def negate_coordinate(x: Sequence[int], j: int) -> tuple[int, ...]:
    """Negate entry j and re-canonicalize. Involutive on canonical vectors."""
    vec = _require_canonical(x)
    if not 0 <= j < len(vec):
        raise DomainError(f"column index {j} out of range for length {len(vec)}")
    flipped = tuple(-e if i == j else e for i, e in enumerate(vec))
    canon, _ = canonicalize(flipped)
    return canon


def negate_column(
    X: Iterable[Sequence[int]], j: int
) -> frozenset[tuple[int, ...]]:
    """Image of a set of canonical vectors under negate_coordinate at j."""
    source = [_require_canonical(x) for x in X]
    out = frozenset(negate_coordinate(x, j) for x in source)
    if len(out) != len(frozenset(source)):
        raise DomainError("column negation collapsed distinct vectors")
    return out


def enumeration_key(v: Sequence[int]) -> tuple[int, ...]:
    """Sort key reproducing enumeration order (0 < +1 < -1 entrywise)."""
    vec = _validate_sign_vector(v, total=True)
    order = {0: 0, 1: 1, -1: 2, UNDETERMINED: 3}
    return tuple(order[e] for e in vec)


def sign_string(v: Sequence[int]) -> str:
    """Serialize a sign or total-sign vector with the "+0-u" alphabet."""
    vec = _validate_sign_vector(v, total=True)
    return "".join(_CHAR_OF[e] for e in vec)


def parse_sign_string(text: str, *, total: bool = True) -> tuple[int, ...]:
    """Parse a "+0-u" string; reject "u" entries when total=False."""
    if not text:
        raise DomainError("empty sign string")
    out = []
    for ch in text:
        if ch not in _VALUE_OF:
            raise DomainError(f"invalid sign character {ch!r} in {text!r}")
        value = _VALUE_OF[ch]
        if value == UNDETERMINED and not total:
            raise DomainError(f"'u' entries are not allowed here: {text!r}")
        out.append(value)
    return tuple(out)


def as_fraction_dot(v: Sequence, x: Sequence[int]) -> Fraction:
    """Exact dot product of a rational vector with a sign vector."""
    if len(v) != len(x):
        raise DomainError(f"length mismatch: {len(v)} vs {len(x)}")
    total = Fraction(0)
    for a, b in zip(v, x):
        total += Fraction(a) * b
    return total
