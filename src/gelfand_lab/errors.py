"""Exception hierarchy for the gelfand_lab package.

Parse-level problems (bad syntax, unknown names, malformed literals) and
mathematical rejections (invalid characters, non-positive Gram matrices)
are kept on separate branches so callers can map them to distinct exit
codes without string matching.
"""

from __future__ import annotations


class GelfandError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GelfandError):
    """Syntax or name-resolution failure, with a 1-based source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        self.message = message
        if line:
            super().__init__(f"{line}:{col}: {message}")
        else:
            super().__init__(message)


class PresentationError(GelfandError):
    """A presentation violates a structural rule (duplicate generator,
    bad adjoint pairing, relation set not closed under the involution,
    failed confluence check, ...)."""


class AlgebraError(GelfandError):
    """Misuse of algebra operations: mixed presentations, involution on an
    underlying algebra, malformed scalar input."""


class RewriteBudgetError(AlgebraError):
    """Normalization exceeded algebra.MAX_REWRITE_STEPS rewrite steps."""


class MorphismError(GelfandError):
    """A generator assignment does not define a homomorphism."""


class CharacterError(GelfandError):
    """A candidate character fails validation.

    ``violation`` is one of "coverage", "reality", "conjugacy", "relation".
    """

    def __init__(self, message: str, violation: str) -> None:
        self.violation = violation
        super().__init__(message)


class StateError(GelfandError):
    """A state description is rejected (weights, nodes, or moments)."""


class GnsError(GelfandError):
    """The GNS construction failed, e.g. the Gram matrix is not positive
    semidefinite beyond tolerance."""


class UnsupportedError(GelfandError):
    """The request is outside the supported fragment (e.g. a Wirtinger
    derivative on a generator constrained by relations)."""


def check_cap(what: str, size: int, cap: int) -> None:
    """UnsupportedError when a requested size is past its cap."""
    if size > cap:
        raise UnsupportedError(f"{what} exceeds the cap of {cap}")


def require_numpy():
    """The numpy module, which the float paths need; UnsupportedError
    naming it when it is not installed or fails to import."""
    try:
        import numpy
    except ImportError as exc:
        if isinstance(exc, ModuleNotFoundError) and exc.name == "numpy":
            raise UnsupportedError("this float computation needs numpy, which "
                                   "is not installed") from None
        raise UnsupportedError(f"this float computation needs numpy, which "
                               f"failed to import: {exc}") from exc
    return numpy
