"""Domain errors shared across the package.

Every error carries a stable machine-readable ``code`` (the class name);
the CLI surfaces it verbatim in its JSON error envelope.
"""

from __future__ import annotations

__all__ = [
    "TaulikeError",
    "CycleError",
    "UnknownIdError",
    "MissingPartError",
    "FormatError",
    "FiniteDomainEnd",
    "OracleMissing",
    "ClassifierInconsistent",
    "NotStabilized",
    "NotAnExtension",
    "NotInjective",
    "HorizonTooSmall",
    "PrefixTooShort",
    "TooLarge",
]


class TaulikeError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class CycleError(TaulikeError):
    """The declared relation is not antisymmetric after closure."""


class UnknownIdError(TaulikeError):
    """An element id is referenced but not declared (or declared twice)."""


class MissingPartError(TaulikeError):
    """A lexicographic sum index element has no matching part."""


class FormatError(TaulikeError):
    """A JSON document or callable answer violates its documented shape."""


class FiniteDomainEnd(TaulikeError):
    """The enumeration of a stream ran out of elements."""

    def __init__(self, stage: int, detail: str = ""):
        self.stage = stage
        super().__init__(detail or f"enumeration exhausted at stage {stage}")


class OracleMissing(TaulikeError):
    """An algorithm needed an oracle the stream does not provide."""


class ClassifierInconsistent(TaulikeError):
    """The side classifier contradicts the order relation."""


class NotStabilized(TaulikeError):
    """A two-ended embedding was requested from an order with no anchor position."""


class NotAnExtension(TaulikeError):
    """A linear order does not extend the partial order it was paired with."""


class NotInjective(TaulikeError):
    """A declared function prefix repeats a value."""


class HorizonTooSmall(TaulikeError):
    """A decoder needs a longer truncation than the one supplied."""


class PrefixTooShort(TaulikeError):
    """A decoder needs more declared function values than supplied."""


class TooLarge(TaulikeError):
    """A computation or a document was refused by its size guard."""
