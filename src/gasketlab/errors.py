"""Exception types shared across the package, and the argument checks that
raise them.

Every public entry point either returns or raises :class:`DomainError`.
Scalar arguments go through :func:`check_int` or :func:`check_real`, so
"is this a usable number in range" is decided in one place: a bool is
never a number here, an integer is anything with ``__index__``, and the
message names the argument.  Any other argument of a fixed type (a graph,
a bit string, a side info) goes through :func:`check_instance`, and a
collection of labels through :func:`check_iterable` before its items are
checked.
"""

from numbers import Real
from operator import index


class DomainError(ValueError):
    """An input violates a documented precondition.

    The message names the precondition so callers (and the CLI, which maps
    this to exit code 1) can see which contract was broken.
    """


class ResourceLimitError(DomainError):
    """An instance exceeds a configured search or memory budget."""


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in ``low..high`` (either end may be open)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low or high is not None and value > high:
        if high is None:
            raise DomainError(f"{name} must be >= {low}, got {value}")
        if low is None:
            raise DomainError(f"{name} must be <= {high}, got {value}")
        raise DomainError(f"{name} must be in {low}..{high}, got {value}")
    return value


def check_instance(value, kind: type, name: str):
    """``value`` unchanged if it is an instance of ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
    return value


def check_iterable(value, name: str):
    """``value`` unchanged if it is iterable."""
    try:
        iter(value)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {type(value).__name__}") from None
    return value


def check_real(value, name: str):
    """``value`` unchanged if it is a real number (``numbers.Real``, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return value
