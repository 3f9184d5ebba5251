"""Exception hierarchy shared by all fourfold modules.

Two error families matter for callers: bad input data (``ValidationError``
and subclasses, CLI exit code 1) and unmet theorem hypotheses
(``InapplicableError`` and subclasses, CLI exit code 2).  A hypothesis
failure is never reported as a computed verdict.
"""


class ValidationError(ValueError):
    """Input data violates a structural invariant."""


class ShapeError(ValidationError):
    """Vector or matrix dimensions do not match."""


class IntegralityError(ValidationError):
    """A quantity that must be an even integer came out odd.

    Raised by the half-pairing gate: the first Chern class of the index
    bundle is integral, so an odd cup pairing means the input data is
    inconsistent.
    """


class ParseError(ValidationError):
    """Syntax error in a manifold expression; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class InapplicableError(Exception):
    """A theorem's hypotheses are not met for the given input."""


class UnsupportedFamilyError(InapplicableError):
    """The manifold/spin^c pair is outside the certified family."""
