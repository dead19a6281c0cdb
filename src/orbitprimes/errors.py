"""Exception types shared across the package."""


class ExprSyntaxError(ValueError):
    """Raised on malformed map/polynomial expressions; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MapConstructionError(ValueError):
    """Raised when coefficient data does not define a valid rational map of degree > 1."""


class ResourceCapError(RuntimeError):
    """Raised when an exact computation would exceed a configured size cap."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class CacheError(ValueError):
    """Raised on a corrupted, edited or old-format cache file."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class InvariantError(AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""
