"""Exception types shared across the package."""

from __future__ import annotations


class AofLabError(ValueError):
    """Base class for domain errors raised by this package."""


class IncompatibleSpaceError(AofLabError):
    """A loss or distribution was paired with an outcome space it cannot serve."""


class NotNormalizedError(AofLabError):
    """Probabilities are negative or do not sum to one within tolerance."""


class UnboundedCrossEntropyError(AofLabError):
    """Logarithmic cross entropy is infinite: test mass sits where the trained
    action assigns zero probability."""

    def __init__(self, message: str, cells: list | None = None):
        super().__init__(message)
        self.cells = cells or []


class UntrainedCellError(AofLabError):
    """A conditioning cell carries test mass but no training mass."""

    def __init__(self, message: str, cells: list | None = None):
        super().__init__(message)
        self.cells = cells or []


class ReferenceNotInteriorError(AofLabError):
    """The chi-squared reference distribution has a zero cell under the
    compared distribution's support."""

    def __init__(self, message: str, cells: list | None = None):
        super().__init__(message)
        self.cells = cells or []


class PositivityError(AofLabError):
    """A strictly-positive-probability assumption failed."""

    def __init__(self, message: str, cells: list | None = None):
        super().__init__(message)
        self.cells = cells or []


class WarmupError(AofLabError):
    """An age process still contains pre-first-delivery slots."""

