"""Exception types shared across the package."""


class ParseError(ValueError):
    """A malformed line in an edge-list file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyNetworkError(ValueError):
    """Input contained no usable contacts."""


class InsufficientNegativesError(ValueError):
    """The network is too dense to sample the requested negative pairs."""


class TrainingDiverged(RuntimeError):
    """Non-finite values appeared during embedding training."""


class KernelBuildError(RuntimeError):
    """The compiled kernels (_kernels.c) could not be built."""
