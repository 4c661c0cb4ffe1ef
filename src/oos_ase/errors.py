"""Exception hierarchy.

Every error carries the process exit code the CLI maps it to:
2 = bad configuration/input, 3 = numerical degeneracy, 4 = solver failure,
5 = file/format I/O. Library callers can catch the base class or any subtree.
"""


class OosAseError(Exception):
    exit_code = 1


class ConfigError(OosAseError, ValueError):
    """Invalid input: bad shapes, non-finite entries, malformed config."""

    exit_code = 2


class ModelViolationError(ConfigError):
    """Latent configuration produces an edge probability outside [0, 1]."""


class DegeneracyError(OosAseError):
    """Numerical degeneracy: collapsed spectrum, singular matrix, no root."""

    exit_code = 3


class SingularityError(DegeneracyError):
    """Rank-deficient least-squares design; carries a condition estimate."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DegenerateSpectrumError(DegeneracyError):
    """A retained eigenvalue is not strictly positive."""


class ThresholdError(DegeneracyError):
    """The classification density-ratio equation has no descending root."""


class SolverError(OosAseError):
    exit_code = 4


class FeasibilityError(SolverError):
    """The constraint box {w : eps <= X_i^T w <= 1-eps} is empty."""


class NonConvergenceError(SolverError):
    """Iteration limit hit; carries the last iterate for diagnostics."""

    def __init__(self, message, last_w=None, iterations=None, grad_norm=None):
        super().__init__(message)
        self.last_w = last_w
        self.iterations = iterations
        self.grad_norm = grad_norm


class FileFormatError(OosAseError):
    exit_code = 5
