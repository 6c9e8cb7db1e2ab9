"""Exception hierarchy. Every validation failure names the violated invariant."""


class DivergelabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DivergelabError):
    """Operands have incompatible shapes or factor dimensions."""


class NotHermitian(DivergelabError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(DivergelabError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class TraceNotOne(DivergelabError):
    """Trace differs from 1 beyond tolerance."""


class DomainError(DivergelabError):
    """Matrix contains NaN or Inf entries."""


class BadRank(DivergelabError):
    """Requested rank is outside the valid range."""


class BadMu(DivergelabError):
    """Skewing parameter must lie strictly inside (0, 1)."""


class SizeMismatch(DivergelabError):
    """Probability vectors or stochastic-map dimensions do not line up."""


class WeightError(DivergelabError):
    """Ensemble weights do not form a probability distribution."""


class NotUnitary(DivergelabError):
    """Matrix fails the unitarity check."""


class InvalidState(DivergelabError):
    """Operator is not a valid density matrix for the requested use."""


class NotOrthonormal(DivergelabError):
    """Vector family is not orthonormal within tolerance."""


class FactorizationFailed(DivergelabError):
    """Isometry completion or dilation construction is ill-conditioned."""


class NotCommuting(DivergelabError):
    """State pair does not commute within tolerance."""


class InvalidChannel(DivergelabError):
    """Kraus family fails trace preservation or complete positivity."""


class OutputInvalid(DivergelabError):
    """A map produced an output that fails density-matrix validation."""


class NumericalConsistencyError(DivergelabError):
    """A quantity that must be nonnegative came out below -1e-9."""
