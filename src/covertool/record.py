"""Immutable records: the base of covertool's value classes.

A record class lists its fields, in constructor order, as `__slots__`.
A slot whose name starts with an underscore is a private cache and
stays out of the constructor, equality, hash and repr.  Otherwise a
record behaves as a frozen dataclass: it is built by position or by
name, equals only a record of its own class with equal fields, hashes
as the tuple of its fields, prints as `Name(field=value, ...)` and
refuses assignment and deletion.  A class keeps one table, `_fields`,
its public slot names, and every method reads the fields by name
through it.  A record writes its own `__init__`, setting its slots
with `_set`, only to check or derive a field: `MonomialPrime`,
`IrreducibleComponent`, `Graph` and `Hypergraph`.  `MonomialPrime`
alone writes `__eq__` and `__hash__`, as the one record that commands
compare and hash: one batch of the benchmark's `tree_sweep` (60
commands) makes 3,896 prime comparisons and 3,790 prime hashes, and
no other record is compared or hashed in any workload.  Per call the
generic pair costs 0.77 against 0.09 µs for `==` and 0.44 against
0.12 µs for the hash (Python 3.11, 2-core VM), about 4 ms per batch.
The dataclass decorator would cost every command's start-up: each
decoration compiles six methods with `exec`, and importing
`dataclasses` loads `inspect`.
"""

from __future__ import annotations

# Sets a slot past Record.__setattr__; for use in __init__ only.
_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = self._bind(values, named)
        for field, value in zip(self._fields, values):
            _set(self, field, value)

    @classmethod
    def _bind(cls, values, named):
        """The field values, in field order, of a call by name or with a
        wrong count; a bad call raises TypeError, as a function call would."""
        fields = cls._fields
        bound = dict(zip(fields, values))
        errors = [f"unknown field {f!r}" for f in named if f not in fields]
        errors += [f"two values for field {f!r}" for f in named if f in bound]
        bound.update(named)
        errors += [f"missing field {f!r}" for f in fields if f not in bound]
        errors += [f"no field for value {v!r}" for v in values[len(fields):]]
        if errors:
            raise TypeError(f"{cls.__qualname__}(): {', '.join(errors)}")
        return [bound[f] for f in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

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
        return self.__class__, self._values()


def fields(record: Record) -> dict:
    """The fields of record by name, in field order."""
    return dict(zip(record._fields, record._values()))


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with the given fields changed; an
    unknown field raises TypeError, as in dataclasses.replace."""
    return record.__class__(**{**fields(record), **changes})
