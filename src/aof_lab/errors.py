"""Exception types shared across the package."""

from __future__ import annotations


class AofLabError(ValueError):
    """Base class for domain errors raised by this package."""


class IncompatibleSpaceError(AofLabError):
    """A loss or distribution was paired with an outcome space it cannot serve."""


class NotNormalizedError(AofLabError):
    """Probabilities are negative or do not sum to one within tolerance."""


class _CellsError(AofLabError):
    """A domain error that names the offending cells in ``cells``."""

    def __init__(self, message: str, cells: list | None = None):
        super().__init__(message)
        self.cells = cells or []


class UnboundedCrossEntropyError(_CellsError):
    """Logarithmic cross entropy is infinite: test mass sits where the trained
    action assigns zero probability."""


class UntrainedCellError(_CellsError):
    """A conditioning cell carries test mass but no training mass."""


class ReferenceNotInteriorError(_CellsError):
    """The chi-squared reference distribution has a zero cell under the
    compared distribution's support."""


class PositivityError(_CellsError):
    """A strictly-positive-probability assumption failed."""


class WarmupError(AofLabError):
    """An age process still contains pre-first-delivery slots."""

