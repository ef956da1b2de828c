"""Immutable value records, compared and hashed by their fields."""
from types import MappingProxyType


class Record:
    """Base of the public result classes.

    A subclass names its fields in ``_fields`` and the defaults of its
    trailing fields in a ``_defaults`` dict.  A class that declares
    ``_fields`` and no ``__init__`` gets one that takes the fields in
    order and stores them; a subclass that does not restate ``_fields``
    inherits its parent's.  Two records are equal when they are of the
    same class with equal field tuples; a record hashes by its field
    tuple, prints as ``Name(field=value, ...)`` and refuses assignment
    and deletion.  A copy or a pickle calls the class with the field
    values in order, a read-only mapping passed as a dict (a mapping
    proxy can be neither pickled nor deep-copied), so a hand-written
    ``__init__`` must take ``_fields`` positionally.  An attribute left
    out of ``_fields`` is neither compared, hashed, printed nor copied.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

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


def _constructor(cls):
    """Compile ``cls.__init__`` from its fields once, as
    ``collections.namedtuple`` compiles ``__new__``: straight-line stores
    run faster than a loop over ``*args`` and ``**kwargs``, and the
    interpreter itself checks the arguments and words its errors."""
    fields = cls._fields
    defaults = cls.__dict__.get("_defaults", {})
    body = "".join(f"\n    _setattr(self, {name!r}, {name})" for name in fields)
    namespace = {"_setattr": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[name] for name in fields[len(fields) - len(defaults):])
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
