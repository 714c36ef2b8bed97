"""Exception types shared across the package."""


class ProxsplitError(Exception):
    """Base class for every package-specific error."""


class DomainError(ProxsplitError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    parameter names the argument when one check decided it; the message
    then reads "<parameter> <detail>".
    """

    def __init__(self, message, parameter=None):
        super().__init__(message if parameter is None else "%s %s" % (parameter, message))
        self.parameter = parameter
        self.detail = message


class ConvergenceError(ProxsplitError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class FactorizationError(ProxsplitError, RuntimeError):
    """A matrix factorization failed (loss of positive definiteness or NaN input)."""


class NumericalError(ProxsplitError, ArithmeticError):
    """A non-finite value appeared where finite arithmetic was expected."""


class ParseError(ProxsplitError, ValueError):
    """Malformed input data.  Carries the 1-based line number when known."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class UnknownClassError(ProxsplitError, ValueError):
    """A requested class label does not occur in the dataset."""


class DegenerateDatasetError(ProxsplitError, ValueError):
    """The dataset cannot support the requested task (e.g. a single class)."""


class NonConvergenceError(ProxsplitError, RuntimeError):
    """A reference run finished without reaching its convergence certificate."""
