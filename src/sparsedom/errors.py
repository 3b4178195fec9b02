"""Exception types shared across the package.

Every error that a caller is expected to catch maps to one of these
classes; generic ValueError/TypeError are reserved for plain misuse.
"""


class SparsedomError(Exception):
    """Base class for package errors."""


class AlignmentError(SparsedomError, ValueError):
    """A geometric operation would leave the integer cell lattice."""


class LeafCubeError(SparsedomError, ValueError):
    """A single-cell cube was asked for children."""


class ParameterError(SparsedomError, ValueError):
    """A parameter violates a documented constraint."""


class DensityError(SparsedomError, ValueError):
    """A stopping-time precondition on set density failed."""


class ValidationError(SparsedomError, ValueError):
    """An input object failed structural validation (e.g. a non-convex gauge)."""


class DegenerateInputError(SparsedomError, ValueError):
    """An input is degenerate for the requested statistic (e.g. f == 0)."""


class UndefinedRatioError(SparsedomError, ZeroDivisionError):
    """A requested ratio has a vanishing denominator with nonzero numerator."""


class NumericError(SparsedomError, ArithmeticError):
    """A numeric evaluation failed: a non-finite value, an underflow or a broken invariant."""


class ConfigError(SparsedomError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
