"""Exception types shared across the package."""


class QcreparamError(Exception):
    """Base class for all package errors."""


class InputFormatError(QcreparamError):
    """A file or record could not be parsed."""


class InputOutOfRange(QcreparamError):
    """A map's energy or area is not finite in floating point: its derivative
    is too large."""


class ConfigError(QcreparamError):
    """Invalid run configuration."""


class DegenerateSemiNorm(QcreparamError):
    """Operation requires a norm but the semi-norm vanishes on a direction."""


class EllipseNotCertified(QcreparamError):
    """An inscribed ellipse failed its containment or optimality certificate."""


class StencilOutOfDomain(QcreparamError):
    """A finite-difference stencil leaves the sampled domain."""


class GridTooSmall(QcreparamError):
    """Fewer than 3 nodes per axis; derivatives are undefined."""


class OrientationViolation(QcreparamError):
    """det Df <= 0 (or |f_z| <= |f_zbar|) where orientation is required."""


class DegenerateDerivative(QcreparamError):
    """f_z = 0 in a formula that divides by it."""


class SupportTooClose(QcreparamError):
    """Mollification radius would push the support out of the unit disc."""


class CoefficientTooLarge(QcreparamError):
    """sup |mu| too close to 1 for the solver's contraction."""


class NoConvergence(QcreparamError):
    """Iterative scheme failed to reach its tolerance within max_iter."""


class NewtonDiverged(QcreparamError):
    """The inverse left a node inside the disc off its round trip: a node
    held by a rho cell (or any node of an affine rho), with |z| <= 0.95,
    whose residual |rho(z) - w| exceeds INV_TOL."""


class SearchExhausted(QcreparamError):
    """A parameter search hit its iteration cap without a feasible value."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class PipelineBudgetExceeded(QcreparamError):
    """Final audit of the reparametrization pipeline failed; the report is
    attached for diagnosis."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AuditFailed(QcreparamError, AssertionError):
    """The pointwise case audit found a node that breaks its bound.  Also an
    AssertionError, which callers caught from the assert statements that it
    replaces (python -O strips those)."""
