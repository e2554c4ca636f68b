"""Immutable records: the base of covertool's value classes.

A record class lists its fields, in constructor order, as `__slots__`
and sets each one once, in its own `__init__`, with `_set`.  A slot
whose name starts with an underscore is a private cache and stays out
of equality, hash and repr.  Otherwise a record behaves as a frozen
dataclass: it equals only a record of its own class with equal fields,
hashes as the tuple of its fields, prints as `Name(field=value, ...)`
and refuses assignment and deletion.  `MonomialPrime`, `MonomialIdeal`
and `Graph`, compared and hashed in the engine's loops, define `__eq__`
and `__hash__` themselves on the same terms: the generic ones here cost
about twice as much per call.  The dataclass decorator would
cost every command's start-up: each decoration compiles six methods
with `exec`, and importing `dataclasses` loads `inspect`.
"""

from __future__ import annotations

import operator

# Sets a slot past Record.__setattr__; for use in __init__ only.
_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        get = operator.attrgetter(*cls._fields)
        # attrgetter of one name returns the value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__; their default restore
        # of slot state would go through __setattr__.
        return self.__class__, self._values(self)


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with the given fields changed; an
    unknown field raises TypeError, as in dataclasses.replace."""
    fields = dict(zip(record._fields, record._values(record)))
    return record.__class__(**{**fields, **changes})
