"""Frozen value types built from class annotations.

`record` gives a class with annotated fields the behaviour brauerkit's
values and reports rely on: construction by position or keyword with class
attributes as defaults, then `__post_init__`; equality only between
instances of the same class, field by field; a hash of the tuple of field
values; a `Name(field=value, ...)` repr; and no assignment after
construction.  `replace` copies a record with some fields changed and
validates the copy again.

Every method is one shared function, so making a class a record generates
and compiles no code.  An instance's `__dict__` holds exactly its fields in
declaration order (so `vars(record)` lists them): `__init__` inserts them in
that order, a `__post_init__` may only rebind a field with
`object.__setattr__`, and nothing can add an attribute later.
"""

from __future__ import annotations

_MISSING = object()


def record(cls):
    """Make `cls` a frozen record whose fields are its own annotations."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    # each field's default or _MISSING; positional calls must reach past the
    # last field without a default (`_required`), keywords may fill the rest
    padding = tuple(cls.__dict__.get(name, _MISSING) for name in fields)
    cls._fields = fields
    cls._index = {name: i for i, name in enumerate(fields)}
    cls._padding = padding
    cls._required = max((i + 1 for i, v in enumerate(padding) if v is _MISSING), default=0)
    if not hasattr(cls, "__post_init__"):
        cls.__post_init__ = _no_check
    cls.__init__ = _init
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen
    cls.__delattr__ = _frozen
    return cls


def _no_check(self):
    pass


def _init(self, *args, **kwargs):
    fields = self._fields
    if kwargs or len(args) != len(fields):
        if not kwargs and self._required <= len(args) < len(fields):
            args += self._padding[len(args):]
        else:
            args = _bind(self.__class__, args, kwargs)
    # indexing beats zip() here: this runs for every value brauerkit builds
    values, i = self.__dict__, 0
    for name in fields:
        values[name] = args[i]
        i += 1
    self.__post_init__()


def _bind(cls, args, kwargs):
    """Field values in declaration order from positional and keyword
    arguments and the class defaults."""
    n = len(args)
    if n > len(cls._fields):
        raise TypeError(f"{cls.__qualname__}() takes {len(cls._fields)} arguments "
                        f"but {n} were given")
    values = [*args, *cls._padding[n:]]
    index = cls._index
    for name, value in kwargs.items():
        i = index.get(name, -1)
        if i < n:
            problem = "an unexpected argument" if i < 0 else "multiple values for"
            raise TypeError(f"{cls.__qualname__}() got {problem} {name!r}")
        values[i] = value
    if n < cls._required:
        for i in range(n, cls._required):
            if values[i] is _MISSING:
                raise TypeError(f"{cls.__qualname__}() missing argument {cls._fields[i]!r}")
    return values


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _hash(self):
    return hash(tuple(self.__dict__.values()))


def _repr(self):
    body = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
    return f"{self.__class__.__qualname__}({body})"


def _frozen(self, name, *value):
    raise AttributeError(f"{self.__class__.__qualname__} is frozen: "
                         f"cannot change {name!r}")


def replace(obj, **changes):
    """A copy of the record `obj` with `changes` applied, validated again by
    its `__post_init__`."""
    return obj.__class__(*[changes.pop(name, value) for name, value in obj.__dict__.items()],
                         **changes)
