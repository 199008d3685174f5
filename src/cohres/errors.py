"""Exception types shared across the package.

Every rejection of input, whether from a file, a flag or a library call,
is a ``CohresError``.  The command line prints one as a single
``cohres: error:`` line and exits 1; anything else propagates as a bug.
"""


class CohresError(ValueError):
    """Base class for domain errors raised by this package.

    It is a ``ValueError``, so ``except ValueError`` catches every class here.
    """


class NonPositiveError(CohresError):
    """A quantity that must be strictly positive was not."""


class ChannelClosedError(CohresError):
    """The second superposition component has no kinetic energy left."""


class UnknownChannelError(CohresError, KeyError):
    """An arrangement label is absent from a table or spec."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class NodeOutOfRangeError(CohresError, IndexError):
    """A grid node index lies outside the table's angle grid."""


class DegenerateChannelError(CohresError):
    """A diagnostic is undefined because a diagonal cross section vanishes."""


class ZeroDenominatorError(CohresError):
    """Ratio objective requested against an identically zero denominator."""


class SpecMismatchError(CohresError):
    """Resonance and background specs do not cover the same states."""


class MalformedFileError(CohresError):
    """A file failed to parse; the message carries the locus."""


class TableValidationError(CohresError):
    """A table violates its invariants; ``violations`` lists each one.

    Raised by the ``AmplitudeTable`` constructor, so by every path that builds
    a table, and by ``ScenarioConfig`` for an initial pair or channels no
    table can carry.
    ``where``, the file ``read_table`` read, prefixes the message, not the list.
    """

    def __init__(self, violations: list[str], where: str | None = None):
        self.violations = list(violations)
        message = "; ".join(self.violations)
        super().__init__(message if where is None else f"{where}: {message}")
