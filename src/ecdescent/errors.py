"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SingularCurve(ValueError):
    """A Weierstrass model (or parameter choice) has vanishing discriminant."""


class DatasetFormatError(ValueError):
    """A dataset CSV file does not match the expected schema."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
