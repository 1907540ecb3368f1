"""Exception hierarchy shared across the package."""


class MartpropError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(MartpropError):
    """Malformed coefficient expression.

    Carries the character position of the offending token and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message, position, expected=frozenset()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = frozenset(expected)


class UnknownIdentifier(MartpropError):
    """Identifier outside the variable/function catalog."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier {name!r} at position {position}")
        self.name = name
        self.position = position


class EvalDomain(MartpropError):
    """Expression evaluated to a non-finite value where a finite one is required."""


class DimensionMismatch(MartpropError):
    pass


class IndexOutOfRange(MartpropError):
    pass


class DegenerateDiffusion(MartpropError):
    """Quadratic-variation density vanishes on the integration range."""


class QuadratureFailure(MartpropError):
    """Quadrature did not meet its error target or probes were inconclusive."""


class PreconditionViolated(MartpropError):
    """Hard failure of a grid-based precondition check (e.g. c <= 0)."""


class UnboundedOnCompact(MartpropError):
    """Grid supremum keeps growing under refinement."""


class ValidationError(MartpropError):
    """Input data violates a structural invariant."""


class JumpBoundViolation(MartpropError):
    """A simulated jump of the exponent hit or crossed -1."""


class ConfigError(MartpropError):
    """CLI configuration is invalid; carries the offending field path."""

    def __init__(self, message, field=""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
