"""Exception types raised across the toolkit."""


class SkewInfoError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SkewInfoError, ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotHermitian(SkewInfoError, ValueError):
    """Matrix fails the Hermitian symmetry check."""


class NotPSD(SkewInfoError, ValueError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class NoConvergence(SkewInfoError, RuntimeError):
    """Iterative eigensolver exceeded its iteration cap."""


class InvalidChannel(SkewInfoError, ValueError):
    """Kraus operators do not satisfy the completeness relation."""


class DegenerateSpectrum(SkewInfoError, ValueError):
    """Spectrum is not strictly ascending with the required minimum gap."""


class InvalidState(SkewInfoError, ValueError):
    """Matrix violates a density-matrix invariant.

    Carries the name of the failed invariant and the measured residual.
    """

    def __init__(self, invariant: str, residual: float):
        self.invariant = invariant
        self.residual = residual
        super().__init__(f"invalid state: {invariant} violated (residual {residual:.3e})")


class ParseError(SkewInfoError, ValueError):
    """Text input (state file, spectrum string) could not be parsed."""


class UsageError(SkewInfoError, ValueError):
    """A command line or an API argument was malformed; maps to exit status 2."""
