"""Exception hierarchy.

Every error the library can raise derives from HdaBridgeError.  The CLI
exits with the ``exit_code`` of the error's class; a class that sets no
code of its own exits with the base class's 1.
"""


class HdaBridgeError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ParseError(HdaBridgeError):
    """A document could not be decoded or is missing required fields."""

    exit_code = 3


class UnknownKind(HdaBridgeError):
    """A document carries a kind discriminator we do not handle."""

    exit_code = 4


class StarClash(HdaBridgeError):
    """The reserved idle symbol '*' already occurs as an ordinary event."""

    exit_code = 15


class ExplosionLimit(HdaBridgeError):
    """State-space exploration exceeded the configured bound."""

    exit_code = 7


class DimensionCapExceeded(HdaBridgeError):
    """Cells above the configured dimension exist and truncation was not requested."""

    exit_code = 8


class CapExceeded(HdaBridgeError):
    """A derived region needs token counts above the configured cap."""

    exit_code = 9


class NotLinear(HdaBridgeError):
    """Some cell label repeats an event."""

    exit_code = 11


class NotOneDeterministic(HdaBridgeError):
    """Two distinct edges share source and label."""

    exit_code = 12


class SquareIncomplete(HdaBridgeError):
    """An independence square cannot be closed in the underlying graph."""

    exit_code = 13


class NotPartialOrder(HdaBridgeError):
    """The induced causality relation fails antisymmetry."""

    exit_code = 14


class NoSuchFunctor(HdaBridgeError):
    """No translation exists between the requested kinds."""

    exit_code = 6


class OutOfReachableFragment(HdaBridgeError):
    """A transposed morphism needs markings or cells hidden by the caps."""

    exit_code = 17


class SizeLimit(HdaBridgeError):
    """An exhaustive search was refused because the instance is too large."""

    exit_code = 16


class IndexOutOfRange(HdaBridgeError):
    """A face or transposition index is outside the cell's dimension."""


class ArityMismatch(HdaBridgeError):
    """A word action descriptor does not match the word's length."""
