"""Exception types shared across the package."""


class CoverageError(ValueError):
    """A pick index falls outside every segment of a change-point partition."""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent with the data."""


class NumericError(ArithmeticError):
    """A non-finite value appeared during differentiation.

    Carries the id of the tape node whose gradient went bad.
    """

    def __init__(self, message: str, node_id: int | None = None):
        super().__init__(message)
        self.node_id = node_id
