"""Shared exception types."""


class CarpetGasError(Exception):
    """Base class for all package errors."""


class MalformedSpecError(CarpetGasError):
    """Carpet description is structurally invalid (bad indices, empty or full mask)."""


class InvalidCarpetError(CarpetGasError):
    """Carpet fails one of the geometric admissibility conditions."""


class CapExceededError(CarpetGasError):
    """A size guard (cell count, dense order, enumeration budget) was exceeded."""


class ConvergenceError(CarpetGasError):
    """An iterative method failed to reach its tolerance within its budget."""


class DomainError(CarpetGasError):
    """Arguments outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too near) a pole.

    ``residue`` is attached when known, None otherwise.
    """

    def __init__(self, message, residue=None, location=None):
        super().__init__(message)
        self.residue = residue
        self.location = location


class FactorizationError(CarpetGasError):
    """Sparse inertia factorization broke down at every shift it tried."""


class InsufficientDataError(CarpetGasError):
    """Analysis window too short for the requested extraction."""


class _Diverged:
    """Singleton marking a quantity that is infinite in the idealized limit
    (e.g. critical density at or below two spectral dimensions)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGED"

    def __bool__(self):
        return False


DIVERGED = _Diverged()
