"""Record, the frozen base of corrbox's result and table types.

A record lists its fields as class annotations, after the fields of the
record it extends; Record reads their names when the class is created and
generates no code.  A field assigned in the class body, as in
`certificate: tuple[Fraction, ...] | None = None`, takes that value as its
default.  Equality, hash and repr go by the fields in order, and a record
equals only records of its own class.  A record whose fields hold a dict, a
list or an array is not hashable; one that should equal only itself takes
object's __eq__ and __hash__.  Setting or deleting an attribute raises
dataclasses.FrozenInstanceError, imported only then, so that no command
loads dataclasses.

Each instance keeps a __dict__, which holds the fields and whatever
functools.cached_property stores.  The shared constructor takes every field
by position or keyword and fills the rest from the defaults.  It costs 1.1
to 1.4 us more per call than a constructor that only stores its fields:
2.4 against 1.0 us for DeterministicBox by keyword, 1.7 against 0.6 us for
Relabeling by position.  So a record keeps its own __init__, storing its
fields in self.__dict__, only if it checks its input (Box, MixingTable,
LinearProgram, FamilySpec) or is built for every reported box (Analysis,
CostReport and the three measure reports).  The others take the shared one:
the 256 DeterministicBox and 128 Relabeling records are built once per
process for cached tables; an LpSolution and a Decomposition once per
analyze or decompose solve and 5 times per fuzz command; a FindingsReport
once per fuzz command; a PropertyResult 56 times per repro and 11 times per
fuzz box with a failing row.  Together that is about 0.5 ms of a cold start
and a few us per command.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A class's __annotations__ holds its own annotations only.
        own = tuple(cls.__annotations__)
        body = vars(cls)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{name: body[name] for name in own if name in body}}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # Fewer values than arguments: a field given twice, or too many
        # positional arguments.
        if len(values) == len(args) + len(kwargs):
            if len(values) != len(fields):
                values = {**self._defaults, **values}
            if values.keys() == set(fields):
                self.__dict__.update(values)
                return
        listed = (f"{k}={self._defaults[k]!r}" if k in self._defaults else k for k in fields)
        raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(listed)}")

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
