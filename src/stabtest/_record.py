"""Frozen value classes with the equality, hash and repr of frozen dataclasses.

`record` builds each method as a closure over the class's field names, so
decorating a class compiles nothing. `dataclasses` imports a dozen modules
(`inspect`, `ast`, `dis`, ...) and compiles six methods per class, which
together took over a third of the start-up of a stabtest command.
Instances keep a `__dict__`, so a class may hold a `functools.cached_property`,
and `__post_init__` may rewrite a field with `object.__setattr__`.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record"]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field '{name}'")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field '{name}'")


def _bound(name: str, fields: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call name(*args, **kwargs), in field order; a
    TypeError where a call of a function with the fields as parameters fails."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
    given = dict(zip(fields, args))
    for key in kwargs:
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument '{key}'")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument '{key}'")
    given.update(kwargs)
    missing = [field for field in fields if field not in given and field not in defaults]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return [given[field] if field in given else defaults[field] for field in fields]


def record(cls: type) -> type:
    """Make cls a frozen record, as @dataclass(frozen=True) would.

    The fields are cls's own annotations, in order, and a class attribute of
    the same name is the field's default. __init__ takes the fields
    positionally or by keyword and then calls __post_init__, if cls has one.
    Assigning or deleting an attribute raises AttributeError. Two instances
    of the same class are equal when their field tuples are, the hash is that
    of the field tuple, and the repr is Name(field=value, ...).
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {field: cls.__dict__[field] for field in fields if field in cls.__dict__}
    # attrgetter of one name returns the bare value, and of none is an error.
    values = attrgetter(*fields) if len(fields) > 1 else lambda self: tuple(getattr(self, f) for f in fields)
    post_init = getattr(cls, "__post_init__", None)
    count = len(fields)
    setattr_ = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bound(cls.__qualname__, fields, defaults, args, kwargs)
        for field, value in zip(fields, args):
            setattr_(self, field, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = fields
    return cls
