"""Exception types shared across the package."""


class SupercechError(Exception):
    """Base class for all package errors."""


class ContextError(SupercechError):
    """Operands live over different coordinate contexts (even names or odd rank)."""


class SubstitutionError(SupercechError):
    """A substitution is outside the supported class (reduced part of an even
    image must be an invertible Laurent monomial whenever negative powers of
    that coordinate have to be expanded)."""


class CocycleError(SupercechError):
    """Input that was required to satisfy a cocycle/inverse condition does not."""


class LevelError(SupercechError):
    """Obstruction extraction requested below the actual deviation level."""


class WindowError(SupercechError):
    """An exponent window is required but none was given or derivable."""


class ParseError(SupercechError):
    """Text input does not match the documented grammar."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
