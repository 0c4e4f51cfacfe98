"""Exception hierarchy shared across the package."""


class EulerSpectraError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EulerSpectraError):
    """A parameter, configuration document, or grid request is invalid."""


class ContractViolationError(EulerSpectraError):
    """An operation was invoked on inputs that break its preconditions.

    Examples: a velocity array whose shape does not match its grid,
    snapshots from different grids, or classifying an empty history.
    """


class NumericsError(EulerSpectraError):
    """A computation produced non-finite values.

    Carries enough context to locate the failure in a time integration.
    """

    def __init__(self, message: str, step_index: int | None = None,
                 time: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


class SnapshotFormatError(EulerSpectraError):
    """A snapshot file is truncated, corrupt, or not a snapshot at all."""
