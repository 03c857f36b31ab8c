"""Exception types shared across the package."""


class KvnLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KvnLabError):
    """Evaluation requested outside the admissible position domain."""


class UndefinedError(KvnLabError):
    """Quantity is undefined for the given parameters (e.g. exponent 0)."""


class SingularityAbort(KvnLabError):
    """Trajectory came closer to the singular origin than dynamics.RMIN, or fell
    into it faster than the integrator's steps could follow."""


class StepFailure(KvnLabError):
    """The integrator's step size fell to roundoff, as at a finite-time blow-up."""


class HarmonicCaseError(KvnLabError):
    """Operation requires n != 2; use the harmonic variant instead."""


class NullLiouvillianError(KvnLabError):
    """Liouvillian magnitude below threshold; charge family undefined."""


class NegativeBaseError(KvnLabError):
    """Negative base raised to a non-integer exponent."""


class NonFiniteGradient(KvnLabError):
    """Gradient evaluation produced a non-finite component."""


class InsufficientResolution(KvnLabError):
    """Sampled trajectory is too coarse for the requested quadrature."""


class DegenerateAction(KvnLabError):
    """Action magnitude too small for a meaningful scaling exponent."""


class NonPolynomialPotential(KvnLabError):
    """Operator construction requires an integer exponent n >= 1."""


class InexactHbarDivision(KvnLabError):
    """Internal consistency failure: coefficient not divisible by hbar."""


class SingularHbarLimit(KvnLabError):
    """Coefficient holds a negative power of hbar; its hbar -> 0 limit diverges."""


class NonQuadraticGenerator(KvnLabError):
    """Finite adjoint requires a quadratic generator (closed linear action)."""


class NoBoundOrbit(KvnLabError):
    """Energy does not select a bounded classical orbit for this potential."""


class RangeExhausted(KvnLabError):
    """A quantized energy overflowed to a non-finite value."""


class ConvergenceFailure(KvnLabError):
    """Iterative refinement did not reach the requested tolerance."""


class NonNormalizable(KvnLabError):
    """Grid state has zero or non-finite norm."""


class SupportExit(KvnLabError):
    """Mapped state support left the grid by more than the allowed budget."""


class ScenarioError(KvnLabError):
    """Scenario file failed schema validation."""


class CheckFailure(KvnLabError):
    """A suite check names an anchor that report.CLAIMS does not register."""
