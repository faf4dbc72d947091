"""Frozen records declared by annotations, with no code generated per class.

A subclass of :class:`Record` lists its fields as class annotations, in
order, with defaults as class attributes, as a frozen dataclass does::

    class Tolerance(Record):
        rel: float = 1e-10
        absolute: float = 1e-14

Every record class shares the few functions below, so defining one costs
a class statement; ``@dataclass`` would compile six methods per class on
every import.

A record is built by position, by keyword or both, with defaults.  A
missing, unknown or repeated argument raises ``TypeError``.  Then its
``__post_init__`` runs, if it has one: it may raise, and it may
normalise a field with ``object.__setattr__``.  Assignment and deletion
raise ``AttributeError``.  Two records are equal when they are of the
same class and their fields' tuples are equal, and the hash is the
hash of that tuple.  ``repr`` is the dataclass's, ``Name(field=value,
...)``.  ``_fields`` names the fields, ``_field_defaults`` maps the
defaulted ones to their defaults, and ``_replace(**changes)`` builds a
new record, validated like any other, from this one's fields and the
changes.  A subclass of a record adds its fields after its parent's.

The fields live in the instance dict, where attribute reads are as
quick as in a slot, and each default stays a class attribute, which
callers may read.  A record class is a plain class: a metaclass would
make every ``isinstance`` test against it several times slower, and
the expression evaluator dispatches on such tests.

A record with no base class, no validation and no default that callers
read from its class is a named tuple instead (:func:`tuple_record`): it
builds in about half the time of a frozen dataclass, and its one
generated method (``__new__``) is small.
"""

from collections import namedtuple
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Tuple

__all__ = ["Record", "tuple_record"]

_set = object.__setattr__


def _fields_of(fields: Tuple[str, ...], get) -> Callable[[Any], tuple]:
    # the tuple of a record's fields, or of a mapping's values at them
    # (get is attrgetter or itemgetter): one C call for two fields or more
    if len(fields) > 1:
        return get(*fields)
    if not fields:
        return lambda source: ()
    one = get(fields[0])
    return lambda source: (one(source),)


def _argument_error(cls: type, args: tuple, kwargs: Dict[str, Any]) -> TypeError:
    # the TypeError a function with the record's signature would raise
    name, fields = cls.__name__, cls._fields
    if len(args) > len(fields):
        return TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
    for key in kwargs:
        if key not in fields:
            return TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in fields[: len(args)]:
            return TypeError(f"{name}() got multiple values for argument {key!r}")
    missing = [f for f in fields[len(args) :] if f not in kwargs and f not in cls._field_defaults]
    return TypeError(f"{name}() missing required argument{'s' * (len(missing) > 1)}: " + ", ".join(map(repr, missing)))


def _initializer(cls: type) -> Callable[..., None]:
    """``__init__`` of a record class: a closure over the class's fields,
    defaults and ``__post_init__``, whose code every record class
    shares.  The arguments become the fields' values in order by C-level
    tuple, dict and set operations; a full positional call skips even
    those."""
    fields, defaults = cls._fields, cls._field_defaults
    n = len(fields)
    tail = tuple(defaults[f] for f in fields if f in defaults)
    first_default = n - len(tail)
    in_order, names = _fields_of(fields, itemgetter), frozenset(fields)
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs:
            if args:  # fold the positional arguments into the keywords
                if len(args) > n or not kwargs.keys().isdisjoint(fields[: len(args)]):
                    raise _argument_error(cls, args, kwargs)
                kwargs.update(zip(fields, args))
            if not kwargs.keys() <= names:
                raise _argument_error(cls, (), kwargs)
            try:
                args = in_order(kwargs if len(kwargs) == n else {**defaults, **kwargs})
            except KeyError:  # a field without a default left out
                raise _argument_error(cls, (), kwargs) from None
        elif len(args) != n:
            if not first_default <= len(args) <= n:
                raise _argument_error(cls, args, kwargs)
            args += tail[len(args) - first_default :]
        i = 0
        for value in args:
            _set(self, fields[i], value)
            i += 1
        if post is not None:
            post(self)

    return __init__


class Record:
    """Base of the frozen records: see the module docstring."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _field_defaults: Dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        fields = cls._fields + tuple(f for f in annotations if f not in cls._fields)
        defaults = {**cls._field_defaults, **{f: cls.__dict__[f] for f in annotations if f in cls.__dict__}}
        for a, b in zip(fields, fields[1:]):
            if a in defaults and b not in defaults:
                raise TypeError(f"{cls.__name__}: field {b!r} without a default follows field {a!r} with one")
        cls._fields, cls._field_defaults = fields, defaults
        cls._values = staticmethod(_fields_of(fields, attrgetter))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(cls)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def _replace(self, **changes: Any) -> "Record":
        return self.__class__(**{**dict(zip(self._fields, self._values(self))), **changes})


def _eq_within_type(self: tuple, other: Any) -> Any:
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # a tuple asks this first, as its subclass's, and would then compare values
    return False if isinstance(other, tuple) else NotImplemented


def _ne_within_type(self: tuple, other: Any) -> Any:
    equal = _eq_within_type(self, other)
    return equal if equal is NotImplemented else not equal


def tuple_record(cls: type) -> type:
    """The record that the class body ``cls`` declares, as a
    ``collections.namedtuple``: its annotated fields and their defaults,
    its methods and docstring, and the equality of a :class:`Record`
    (equal only to an instance of its own class with equal fields, not
    to a plain tuple or another record of the same values; the hash
    stays the tuple's).  ``typing.NamedTuple`` would build the same class
    at about twice the cost, most of it in compiling each annotation."""
    ns = cls.__dict__
    fields = tuple(ns.get("__annotations__", {}))
    first = next((i for i, f in enumerate(fields) if f in ns), len(fields))
    record = namedtuple(cls.__name__, fields, defaults=[ns[f] for f in fields[first:]], module=cls.__module__)
    for name, value in ns.items():
        if name not in fields and name not in ("__dict__", "__weakref__"):
            setattr(record, name, value)
    record.__eq__, record.__ne__ = _eq_within_type, _ne_within_type
    return record
