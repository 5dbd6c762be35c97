"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument or input file is outside the domain of the operation."""


class SingularCurve(ValueError):
    """A Weierstrass model (or parameter choice) has vanishing discriminant."""


class DatasetFormatError(DomainError):
    """A dataset CSV file cannot be read or does not match the expected schema."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
