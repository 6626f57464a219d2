"""Exception types shared across the package."""


class D3CError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(D3CError, ValueError):
    """A parameter violates a documented precondition."""


class DivisibilityError(D3CError, ValueError):
    """A file count does not meet a scheme's divisibility requirement.

    ``min_files`` is the smallest admissible file count.
    """

    def __init__(self, message: str, min_files: int | None = None):
        super().__init__(message)
        self.min_files = min_files


class DecodeError(D3CError, RuntimeError):
    """A node could not recover a missing segment.

    Carries the (batch, owner) pair that failed.
    """

    def __init__(self, message: str, batch=None, owner: int | None = None):
        super().__init__(message)
        self.batch = batch
        self.owner = owner


class InternalConsistencyError(D3CError, RuntimeError):
    """An internal invariant was violated; indicates a construction bug."""


class ExecutionError(D3CError, RuntimeError):
    """An end-to-end run failed; wraps diagnostics from lower layers."""
