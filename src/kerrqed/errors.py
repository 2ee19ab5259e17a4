"""Exception types shared across the library."""


class KerrqedError(Exception):
    """Base class for library errors."""


class HermiticityError(KerrqedError):
    """Operator expected to be Hermitian is not, beyond tolerance."""


class ConvergenceError(KerrqedError):
    """Iteration or truncation failed to converge."""


class LabelingError(KerrqedError):
    """Dressed-state labeling could not satisfy the request."""
