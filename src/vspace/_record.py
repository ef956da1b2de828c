"""Immutable value records, compared and hashed by their fields.

A record holds only its fields, each in a slot, so it has no instance
``__dict__`` and refuses stray attributes; ``FiniteVSpace`` alone lists
``__dict__`` in its own ``__slots__``, for its memos.
"""
from types import MappingProxyType


class _RecordType(type):
    """Gives each record class one slot per field its base does not have
    yet, plus the names the class lists in its own ``__slots__``, and a
    compiled ``__init__`` when the class names ``_fields`` and writes none."""

    def __new__(mcls, name, bases, namespace):
        slots = [*namespace.get("__slots__", ())]
        for field in namespace.get("_fields", ()):
            if not hasattr(bases[0], field):  # else a base slots it already
                slots.append(field)
        namespace["__slots__"] = tuple(slots)
        if "_fields" in namespace and "__init__" not in namespace:
            namespace["__init__"] = _LazyConstructor()
        return super().__new__(mcls, name, bases, namespace)


class _LazyConstructor:
    """A record class's ``__init__`` until its first use, when it compiles
    the real one and puts it in its place: an import compiles none, and a
    process only the constructors it calls."""

    def __set_name__(self, owner, name):
        self.owner = owner

    def __get__(self, record, cls):
        init = _constructor(self.owner)
        setattr(self.owner, "__init__", init)
        return init.__get__(record, cls)


class Record(metaclass=_RecordType):
    """Base of the public result classes.

    A subclass names its fields in ``_fields`` and the defaults of its
    trailing fields in a ``_defaults`` dict.  A class that declares
    ``_fields`` and no ``__init__`` gets one that takes the fields in
    order and stores them, compiled on first use; a subclass that does
    not restate ``_fields`` inherits its parent's.  A hand-written
    ``__init__`` stores each field through ``setters(cls)``, as the
    compiled one does.  Two records are equal when they are of the same
    class with equal field tuples; a record hashes by its field tuple,
    prints as ``Name(field=value, ...)`` and refuses assignment and
    deletion.  A copy or a pickle calls the class with the field values in
    order, a read-only mapping passed as a dict (a mapping proxy can be
    neither pickled nor deep-copied), so a hand-written ``__init__`` must
    take ``_fields`` positionally.  A name a subclass adds to
    ``__slots__`` outside ``_fields`` is neither compared, hashed, printed
    nor copied.
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


def setters(cls) -> tuple:
    """The bound ``__set__`` of each field's slot descriptor, in field
    order: the one way a constructor stores a field, and cheaper than
    ``object.__setattr__``, which looks the name up on every store."""
    return tuple([getattr(cls, name).__set__ for name in cls._fields])


def _constructor(cls):
    """Compile ``cls.__init__`` from its fields once, as
    ``collections.namedtuple`` compiles ``__new__``: straight-line stores
    run faster than a loop over ``*args`` and ``**kwargs``, and the
    interpreter itself checks the arguments and words its errors."""
    fields = cls._fields
    defaults = cls.__dict__.get("_defaults", {})
    namespace = {f"_set_{name}": setter for name, setter in zip(fields, setters(cls))}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in fields)
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[name] for name in fields[len(fields) - len(defaults):])
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
