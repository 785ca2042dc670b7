"""Record, the frozen base of corrbox's result and table types.

A record lists its fields as class annotations, after the fields of the
record it extends; Record reads their names when the class is created and
generates no code.  Equality, hash and repr go by the fields in order, and a
record equals only records of its own class.  A record whose fields hold a
dict, a list or an array is not hashable; one that should equal only itself
takes object's __eq__ and __hash__.  Setting or deleting an attribute raises
dataclasses.FrozenInstanceError, imported only then, so that no command
loads dataclasses.

Each instance keeps a __dict__, which holds the fields and whatever
functools.cached_property stores.  The shared constructor takes every field
by position or keyword, at nearly twice the cost of a dataclass's generated
one.  A record built on every command, or one with defaults or checks,
defines its own __init__ and stores its fields in self.__dict__.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A class's __annotations__ holds its own annotations only.
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(values)

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._astuple())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"
