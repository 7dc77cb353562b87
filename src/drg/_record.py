"""Record: the base of drg's immutable value types.

A record class lists its fields in `_fields`, keeps them in slots and
sets each one in its own __init__ with set_field, which is
object.__setattr__ (a name lookup cheaper than the attribute).  Like a
frozen dataclass, a record compares and hashes by its fields, reprs as
`Name(field=value, ...)` and refuses assignment and deletion; it copies
and pickles through its constructor.  All of this reads the fields
through one operator.attrgetter, so defining a record class runs no
generated code, and importing this module loads nothing else.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # attrgetter of one name returns the bare value, not a 1-tuple
        if len(cls._fields) < 2:
            raise TypeError(f"{cls.__name__} needs at least two fields")
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
