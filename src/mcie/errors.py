"""Exception types shared across the package."""


class IntegralEquationError(Exception):
    """Base class for all package-specific failures."""


class InvalidSpecError(IntegralEquationError, ValueError):
    """A problem definition, schedule, or config violates a documented contract."""


class NonFiniteKernelError(IntegralEquationError, ArithmeticError):
    """A kernel or forcing term produced NaN or infinity."""


class UnknownCaseError(IntegralEquationError, KeyError):
    """Requested benchmark case id is not registered."""

    def __str__(self) -> str:
        # KeyError would wrap the message in quotes.
        return str(self.args[0]) if self.args else ""


def is_int(value) -> bool:
    """The one rule for every count and index: an ``int`` that is not a ``bool``.

    A numpy integer or a float is not an integer here either.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(value, low: int, message: str) -> None:
    """Raise ``InvalidSpecError(message)`` unless ``value`` is an integer of at least ``low``."""
    if not is_int(value) or value < low:
        raise InvalidSpecError(message)
