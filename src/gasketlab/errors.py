"""Exception types shared across the package, the argument checks that
raise them, and :class:`Record`, the base of the package's value types.

Every public entry point either returns or raises :class:`DomainError`.
Scalar arguments go through :func:`check_int` or :func:`check_real`, so
"is this a usable number in range" is decided in one place: a bool is
never a number here, an integer is anything with ``__index__``, and the
message names the argument.  Any other argument of a fixed type (a graph,
a bit string, a side info) goes through :func:`check_instance`, and a
collection of labels through :func:`check_iterable` before its items are
checked.  A message shows a caller's value through :func:`shown`, so an
integer too long to print still ends in a :class:`DomainError`.

Every value type (a graph, a report, a side info) subclasses
:class:`Record` instead of the frozen ``dataclass`` decorator.  Its
fields are declared as in a dataclass and ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass`` see them, but the methods a
frozen dataclass would exec-compile per class (``__init__``,
``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__``,
``__delattr__``) are written once here.  That takes about 0.5 ms per
class off every import of the package (CPython 3.11, without cached
bytecode).
"""

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature
from numbers import Real
from operator import attrgetter, index
from reprlib import recursive_repr


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


def _values(names: tuple[str, ...]):
    """A function from an object to the tuple of its ``names`` attributes
    (``attrgetter`` of one name returns the bare value)."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda record: (get(record),)


class Record:
    """Base of an immutable value type, which behaves as a frozen dataclass.

    A subclass declares its fields as a dataclass does (plain defaults, and
    ``field(repr=False, compare=False, hash=...)``; no ``default_factory``)
    and may define ``__post_init__``, which sets a checked value through
    ``object.__setattr__``.  Each field is an ``__init__`` parameter,
    positional or by keyword, in declaration order.  ``repr``, ``==``
    (same class only) and ``hash`` read the fields as a frozen dataclass's
    do, and assigning or deleting any attribute raises
    ``FrozenInstanceError``.  ``inspect.signature``, ``help`` and a missing
    docstring read as for the dataclass.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        auto_doc = not cls.__doc__
        dataclass(init=False, repr=False, eq=False)(cls)  # records fields, makes no method
        kept = fields(cls)
        params = [
            Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                      default=Parameter.empty if f.default is MISSING else f.default)
            for f in kept
        ]
        cls.__signature__ = Signature(params, return_annotation=None)  # as a dataclass __init__'s
        if auto_doc:
            cls.__doc__ = cls.__name__ + str(cls.__signature__).replace(" -> None", "")
        cls._names = tuple(f.name for f in kept)
        cls._shown = tuple(f.name for f in kept if f.repr)
        cls._compared = staticmethod(_values(tuple(f.name for f in kept if f.compare)))
        cls._hashed = staticmethod(
            _values(tuple(f.name for f in kept if (f.compare if f.hash is None else f.hash)))
        )

    def __init__(self, *args, **kwargs) -> None:
        names = self._names
        if kwargs or len(args) != len(names):
            bound = self.__signature__.bind(*args, **kwargs)  # TypeError as a dataclass's
            bound.apply_defaults()
            args = bound.arguments.values()
        for name, value in zip(names, args):  # not __dict__.update: that slows every read
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    @recursive_repr()
    def __repr__(self) -> str:
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._hashed(self))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
