"""Immutable value records, compared and hashed by their fields."""
from types import MappingProxyType


class Record:
    """Base of the public result classes.

    A subclass names its fields in ``_fields`` and stores them in its
    ``__init__`` with ``object.__setattr__``.  Two records are equal when
    they are of the same class with equal field tuples; a record hashes
    by its field tuple, prints as ``Name(field=value, ...)`` and refuses
    assignment and deletion.  A copy or a pickle calls the class with
    the field values in order, a read-only mapping passed as a dict (a
    mapping proxy can be neither pickled nor deep-copied), so
    ``__init__`` must take ``_fields`` positionally.  An attribute left
    out of ``_fields`` is neither compared, hashed, printed nor copied.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), tuple([dict(v) if type(v) is MappingProxyType else v for v in self._values()])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
