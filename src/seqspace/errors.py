"""Exception types shared across the package."""


class SeqspaceError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(SeqspaceError):
    """A sequence, matrix, or space specification could not be parsed or resolved."""


class TruncationError(SeqspaceError):
    """A truncation request was malformed (bad length, window, or cutoff)."""


class ZeroDiagonalError(SeqspaceError):
    """A triangle has a zero diagonal entry, so forward substitution cannot proceed."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"triangle diagonal entry is zero at row {row}")


class FloatRangeError(SeqspaceError):
    """A term needed as a float is too large for one."""


class RowSeriesError(SeqspaceError):
    """A row series failed its convergence check at the summation cutoff."""


class UnsupportedClassError(SeqspaceError):
    """The requested (source, target) pair has no characterization cell."""


class PreconditionError(SeqspaceError):
    """An operation's stated precondition does not hold for the given inputs."""
