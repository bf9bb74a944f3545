"""Value records: plain classes that name their fields in `__slots__`.

A record sets its fields in its own `__init__`.  `_Record` gives equality
field by field between records of one class and the repr
`Name(field=value, ...)`; `_Frozen` records also hash over their fields and
refuse assignment.  The fields are the slots whose names do not start with
an underscore, the inherited ones first (`_fields`); a slot such as
`__weakref__` or a private cache is state, not a field.  The package keeps
`dataclasses` (and with it `inspect` and `ast`) off its import path,
because every `pdiv` process pays for that import.
"""

from __future__ import annotations


class _Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(f for f in own if not f.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the fields, in `__slots__` order, past the frozen guard."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a frozen record is read-only")

    __delattr__ = __setattr__
