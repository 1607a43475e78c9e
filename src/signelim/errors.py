"""Exception types shared across the library, and the env-var cap check."""

import os


class SignElimError(Exception):
    """Base class for all library-specific errors."""


class DomainError(SignElimError, ValueError):
    """An argument is outside the operation's domain.

    Wrong vector length, non-canonical input where a canonical vector is
    required, an all-zero vector, an index out of range, and similar.
    """


class ValidationError(SignElimError, ValueError):
    """An input file or composite structure is malformed or inconsistent."""


class ResourceLimitError(SignElimError, RuntimeError):
    """A configured enumeration or search cap would be exceeded."""


def env_cap(name: str, default: int) -> int:
    """Positive int cap read from environment variable ``name``, else default."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ResourceLimitError(f"{name} must be an integer, got {raw!r}")
    if cap < 1:
        raise ResourceLimitError(f"{name} must be >= 1, got {cap}")
    return cap


def check_cap(work: int, name: str, default: int, what: str) -> None:
    """Reject a job before it starts when ``work`` exceeds the cap ``name``.

    The cap is read with env_cap; the message names the quantity ``what``,
    its value, the cap and the variable that raises it.
    """
    cap = env_cap(name, default)
    if work > cap:
        raise ResourceLimitError(
            f"{what} {work} exceeds the cap {cap}; set {name} to raise it"
        )
