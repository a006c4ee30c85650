"""Exception hierarchy shared across the package."""


class GeoUioError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GeoUioError):
    """Operands live in incompatible spaces."""


class InvarianceViolated(GeoUioError):
    """A subspace expected to be invariant under a map is not (within tolerance)."""


class NotConditionedInvariant(GeoUioError):
    """No output-injection friend exists for the given subspace."""


class SpectrumUnassignable(GeoUioError):
    """Pole placement could not move the quotient spectrum into the good region."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class NotSolvable(GeoUioError):
    """The stacked reconstruction system is column-rank deficient."""


class ExistenceFailed(GeoUioError):
    """Observer existence condition failed; `.reason` and `.diagnostics` explain why."""

    def __init__(self, reason, diagnostics=None):
        super().__init__(reason)
        self.reason = reason
        self.diagnostics = diagnostics or {}


class AssumptionViolated(GeoUioError):
    """A network design assumption (1: connectivity, 2: input bound, 3: joint
    detectability) does not hold."""

    def __init__(self, assumption, message, diagnostics=None):
        super().__init__(f"assumption {assumption}: {message}")
        self.assumption = assumption
        self.message = message
        self.diagnostics = diagnostics or {}

    def __reduce__(self):
        # BaseException would rebuild from its one formatted ``args`` entry
        return (type(self), (self.assumption, self.message, self.diagnostics),
                self.__dict__)


class SingularQ(GeoUioError):
    """The consensus Gram matrix is numerically singular."""


class NonFiniteState(GeoUioError):
    """Simulation state left the finite/bounded region (divergence diagnosis)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(GeoUioError):
    """Configuration file is malformed or semantically invalid."""
