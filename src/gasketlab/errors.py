"""Exception types shared across the package, and the argument checks that
raise them.

Every public entry point either returns or raises :class:`DomainError`.
Scalar arguments go through :func:`check_int` or :func:`check_real`, so
"is this a usable number in range" is decided in one place: a bool is
never a number here, an integer is anything with ``__index__``, and the
message names the argument.  Any other argument of a fixed type (a graph,
a bit string, a side info) goes through :func:`check_instance`, and a
collection of labels through :func:`check_iterable` before its items are
checked.  A message shows a caller's value through :func:`shown`, so an
integer too long to print still ends in a :class:`DomainError`.
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


def shown(value, form=repr) -> str:
    """``form(value)`` for a message.  CPython refuses to turn an int of
    more than 4300 digits (by default) into text, with a ValueError; such an
    int is named by its bit length instead, and any other value that holds
    one by its type."""
    try:
        return form(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too large to print"


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in ``low..high`` (either end may be open)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {shown(value)}") from None
    if low is not None and value < low or high is not None and value > high:
        if high is None:
            raise DomainError(f"{name} must be >= {low}, got {shown(value)}")
        if low is None:
            raise DomainError(f"{name} must be <= {high}, got {shown(value)}")
        raise DomainError(f"{name} must be in {low}..{high}, got {shown(value)}")
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
        raise DomainError(f"{name} must be a real number, got {shown(value)}")
    return value
