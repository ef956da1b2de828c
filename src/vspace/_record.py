"""Immutable value records, compared and hashed by their fields.

A record holds only its fields, each in a slot, so it has no instance
``__dict__`` and refuses stray attributes; ``FiniteVSpace`` alone lists
``__dict__`` in its own ``__slots__``, for its memos.
"""
from types import MappingProxyType


def _storer(cls, name: str):
    """Compile the method ``name`` of ``cls`` that takes its fields in
    order and stores each through its slot descriptor's ``__set__``, as
    ``collections.namedtuple`` compiles ``__new__``: straight-line stores
    run faster than a loop over ``*args`` and ``**kwargs`` or
    ``object.__setattr__``, and the interpreter itself checks the
    arguments and words its errors."""
    fields = cls._fields
    defaults = cls.__dict__.get("_defaults", {})
    namespace = {f"_set_{field}": getattr(cls, field).__set__ for field in fields}
    body = "".join(f"\n    _set_{field}(self, {field})" for field in fields)
    exec(f"def {name}(self, {', '.join(fields)}):{body}", namespace)
    store = namespace[name]
    store.__defaults__ = tuple(defaults[field] for field in fields[len(fields) - len(defaults):])
    store.__module__ = cls.__module__
    store.__qualname__ = f"{cls.__qualname__}.{name}"
    return store


class _RecordType(type):
    """Gives each record class one slot per field its base does not have
    yet, plus the names the class lists in its own ``__slots__``, and a
    class that names fields a compiled ``_store`` of them, which is its
    ``__init__`` unless it writes one."""

    def __new__(mcls, name, bases, namespace):
        slots = [*namespace.get("__slots__", ())]
        fields = namespace.get("_fields", ())
        for field in fields:
            if not hasattr(bases[0], field):  # else a base slots it already
                slots.append(field)
        namespace["__slots__"] = tuple(slots)
        cls = super().__new__(mcls, name, bases, namespace)
        if fields:
            if "__init__" in namespace:
                cls._store = _storer(cls, "_store")
            else:
                cls._store = cls.__init__ = _storer(cls, "__init__")
        return cls


class Record(metaclass=_RecordType):
    """Base of the public result classes.

    A subclass names its fields in ``_fields`` and the defaults of its
    trailing fields in a ``_defaults`` dict.  The class statement compiles
    ``_store``, which takes the fields in order and stores them; a class
    that writes no ``__init__`` has ``_store`` as its ``__init__``, and a
    hand-written ``__init__`` ends in one ``self._store(...)`` call.  A
    subclass that does not restate ``_fields`` inherits both.  Two records
    are equal when they are of the same class with equal field tuples; a
    record hashes by its field tuple, prints as ``Name(field=value, ...)``
    and refuses assignment and deletion.  A copy or a pickle calls the
    class with the field values in order, a read-only mapping passed as a
    dict (a mapping proxy can be neither pickled nor deep-copied), so a
    hand-written ``__init__`` must take ``_fields`` positionally.  A name
    a subclass adds to ``__slots__`` outside ``_fields`` is neither
    compared, hashed, printed nor copied.
    """

    __slots__ = ("__weakref__",)
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
