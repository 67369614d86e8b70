"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so new error types should
subclass one of the three roots below.
"""


class ValidationFailure(ValueError):
    """Bad user input: config files, parameters, shapes, domains."""


class ParameterError(ValidationFailure):
    pass


class InputShapeError(ValidationFailure):
    pass


class DomainError(ValidationFailure):
    pass


class ConfigError(ValidationFailure):
    """Config file failed to parse or validate (message carries location)."""


class PropertyFailure(RuntimeError):
    """A checked mathematical property or certificate did not hold."""


class CertificationError(PropertyFailure):
    pass


class PropertyViolation(PropertyFailure):
    pass


class ContractError(PropertyFailure):
    """A caller-supplied object violated a documented contract."""


class ExecutionError(RuntimeError):
    """Runtime failures: divergence, degenerate fits, exhausted ranges."""


class RangeTooSmallError(ExecutionError):
    """The minimizer lies outside the search range (it may be unbounded);
    side is "lower" or "upper"."""

    def __init__(self, message, side):
        super().__init__(message)
        self.side = side


class DivergenceError(ExecutionError):
    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
