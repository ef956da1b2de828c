"""Value semantics of the public result classes.

Each class is an immutable record: built by keyword or position, equal to
another instance of the same class with equal fields, hashed by its field
tuple, printed as ``Name(field=value, ...)``, and refusing assignment and
deletion.  A record holds only its fields, in slots; a space alone keeps a
``__dict__``, for its memos.
"""
import inspect
import weakref
from types import MappingProxyType

import pytest

import vspace.connectivity as connectivity
import vspace.tolerance as tolerance
from _helpers import CLONES
from vspace import (
    NOT_APPLICABLE,
    STRONG,
    WEAK,
    CodedSpace,
    CodedSpaceConfig,
    ConnectivityVerdict,
    EnumerationOracle,
    FiniteVSpace,
    RoundtripReport,
    TheoremOutcome,
    ToleranceReport,
    VicinitySystem,
    Violation,
    validate_space,
)
from vspace._record import Record
from vspace.files import SpaceDocument

SYSTEM = VicinitySystem(owner=0, vicinities=(frozenset({0}),), mode=STRONG)
SPACE = FiniteVSpace(num_points=1, systems={0: SYSTEM}, mode=STRONG)
CONFIG = CodedSpaceConfig(a=0, b=2, point_bound=25, stage_bound=3)

# One instance of every public result class, given as the class and its
# fields by keyword, in declaration order.
RECORDS = [
    (Violation, dict(kind="empty-system", point=1, detail="system has no vicinities")),
    (VicinitySystem, dict(owner=1, vicinities=(frozenset({1}), frozenset({0, 1})), mode=WEAK)),
    (FiniteVSpace, dict(num_points=1, systems={0: SYSTEM}, mode=STRONG)),
    (ConnectivityVerdict, dict(connected=True, witness=None)),
    (ToleranceReport, dict(violations=frozenset({2}), tolerant_indices={0: 0, 1: 1})),
    (TheoremOutcome, dict(status="holds", reason=None, violations=frozenset({1}), witness=None)),
    (CodedSpaceConfig, dict(a=0, b=2, point_bound=25, stage_bound=3)),
    (CodedSpace, dict(space=SPACE, pi={0: "0"}, config=CONFIG)),
    (
        RoundtripReport,
        dict(
            labels_differ=True, tolerance_ok=True, witness_ok=True, agreement_ok=False,
            decoded_in=(3,), mismatches=((4, False, True),), witness={0: 0},
        ),
    ),
    (EnumerationOracle, dict(entries={3: 1}, stage_bound=3)),
    (SpaceDocument, dict(space=SPACE, labels={0: "A"}, a=0, b=None)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]

# Each class's constructor parameters with their defaults, annotations
# left out; all of them can be passed by position or by keyword.
SIGNATURES = {
    Violation: "(kind, point, detail)",
    VicinitySystem: "(owner, vicinities, mode='strong')",
    FiniteVSpace: "(num_points, systems, mode='strong')",
    ConnectivityVerdict: "(connected, witness=None)",
    ToleranceReport: "(violations, tolerant_indices)",
    TheoremOutcome: "(status, reason=None, violations=None, witness=None)",
    CodedSpaceConfig: "(a, b, point_bound, stage_bound)",
    CodedSpace: "(space, pi, config)",
    RoundtripReport: "(labels_differ, tolerance_ok, witness_ok, agreement_ok, decoded_in, mismatches, witness)",
    EnumerationOracle: "(entries, stage_bound)",
    SpaceDocument: "(space, labels=None, a=None, b=None)",
}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields):
    one, two = cls(**fields), cls(*fields.values())
    assert one == two and not one != two
    values = tuple(getattr(one, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == expected


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_a_different_class_with_the_same_fields_is_not_equal(cls, fields):
    other = type(cls.__name__, (cls,), {})(**fields)
    assert cls(**fields) != other and not cls(**fields) == other


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_constructor_signature(cls, fields):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == list(fields) == list(cls._fields)
    unannotated = inspect.Signature([p.replace(annotation=inspect.Parameter.empty) for p in parameters])
    assert str(unannotated) == SIGNATURES[cls]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_constructor_argument_errors(cls, fields):
    name = f"{cls.__name__}.__init__()"
    first, *rest = fields
    with pytest.raises(TypeError) as missing:
        cls(**{key: fields[key] for key in rest})
    assert str(missing.value) == f"{name} missing 1 required positional argument: '{first}'"
    with pytest.raises(TypeError) as unknown:
        cls(**fields, extra=None)
    assert str(unknown.value) == f"{name} got an unexpected keyword argument 'extra'"
    with pytest.raises(TypeError) as surplus:
        cls(*fields.values(), None)
    most = 1 + len(fields)
    least = 1 + sum(p.default is inspect.Parameter.empty for p in inspect.signature(cls).parameters.values())
    takes = f"{most}" if least == most else f"from {least} to {most}"
    assert str(surplus.value) == f"{name} takes {takes} positional arguments but {most + 1} were given"
    with pytest.raises(TypeError) as twice:
        cls(fields[first], **fields)
    assert str(twice.value) == f"{name} got multiple values for argument '{first}'"


def test_repr_spells_out_every_field():
    assert repr(ConnectivityVerdict(False, {0: 0, 1: 1})) == "ConnectivityVerdict(connected=False, witness={0: 0, 1: 1})"
    assert repr(ConnectivityVerdict(True)) == "ConnectivityVerdict(connected=True, witness=None)"
    assert (
        repr(Violation("empty-system", None, "system has no vicinities"))
        == "Violation(kind='empty-system', point=None, detail='system has no vicinities')"
    )


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


def test_defaults():
    assert VicinitySystem(0, (frozenset({0}),)).mode == STRONG
    assert FiniteVSpace(1, {0: SYSTEM}).mode == STRONG
    assert ConnectivityVerdict(True).witness is None
    outcome = TheoremOutcome("refuted")
    assert (outcome.reason, outcome.violations, outcome.witness) == (None, None, None)
    one, two = SpaceDocument(SPACE), SpaceDocument(space=SPACE)
    assert (one.labels, one.a, one.b) == ({}, None, None)
    assert one.labels is not two.labels


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_clones_are_equal_records(cls, fields, clone):
    record = cls(**fields)
    twin = clone(record)
    assert type(twin) is cls and twin == record


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_each_field_has_a_slot(cls, fields):
    slots = {slot for klass in cls.__mro__ for slot in vars(klass).get("__slots__", ())}
    assert set(cls._fields) <= slots
    record = cls(**fields)
    assert hasattr(record, "__dict__") == (cls is FiniteVSpace)
    assert weakref.ref(record)() is record


# ``object.__setattr__`` passes by ``Record.__setattr__``; without a
# ``__dict__`` a name that is not a slot has nowhere to go.  A space's
# ``__dict__`` holds its memos, so a space is left out.
@pytest.mark.parametrize("cls, fields", [(cls, fields) for cls, fields in RECORDS if cls is not FiniteVSpace])
def test_a_stray_attribute_is_refused_even_past_setattr(cls, fields):
    record = cls(**fields)
    with pytest.raises(AttributeError):
        object.__setattr__(record, "stray", 1)
    assert record == cls(**fields)


# A subclass of each class that does not restate ``_fields``, kept as a
# module global so that pickle finds it by name.
SUBCLASSES = {cls: type(f"Sub{cls.__name__}", (cls,), {"__module__": __name__}) for cls, _ in RECORDS}
globals().update({sub.__name__: sub for sub in SUBCLASSES.values()})


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_a_subclass_that_keeps_the_fields_constructs_compares_and_clones(cls, fields, clone):
    sub = SUBCLASSES[cls]
    record = sub(**fields)
    assert record == sub(*fields.values()) and record != cls(**fields)
    assert hasattr(record, "__dict__") == (cls is FiniteVSpace)
    twin = clone(record)
    assert type(twin) is sub and twin == record


def test_the_class_statement_compiles_the_storer_that_is_the_init_of_the_class_that_names_the_fields():
    class Pair(Record):
        _fields = ("left", "right")

    class Sub(Pair):
        pass

    init = vars(Pair)["__init__"]
    assert inspect.isfunction(init) and init.__qualname__.endswith("Pair.__init__")
    assert Pair._store is Pair.__init__ is init
    assert "__init__" not in vars(Sub) and "_store" not in vars(Sub)
    assert Sub(1, right=2) == Sub(1, 2) != Pair(1, 2)
    assert Pair(3, 4).right == 4 and vars(Pair)["__init__"] is init

    class Late(Record):
        _fields = ("x",)
        _defaults = {"x": 0}

    assert str(inspect.signature(Late)) == "(x=0)" and Late().x == 0
    assert "_store" not in vars(Record)  # it names no field


# The classes that write their own constructor and store through ``_store``.
HAND_WRITTEN = [FiniteVSpace, EnumerationOracle, SpaceDocument]


@pytest.mark.parametrize("cls", HAND_WRITTEN, ids=[cls.__name__ for cls in HAND_WRITTEN])
def test_a_hand_written_constructor_has_a_storer_of_exactly_its_fields(cls):
    store = vars(cls)["_store"]
    assert inspect.isfunction(store) and store is not vars(cls)["__init__"]
    assert store.__qualname__ == f"{cls.__name__}._store"
    parameters = inspect.signature(store).parameters.values()
    assert [p.name for p in parameters] == ["self", *cls._fields]
    assert all(p.default is inspect.Parameter.empty for p in parameters)
    record = cls(**dict(RECORDS)[cls])
    twin = cls.__new__(cls)
    twin._store(*record._values())
    assert twin == record


# The records that hold a read-only mapping, and the field that holds it.
MAPPING_HOLDERS = [(FiniteVSpace, "systems"), (EnumerationOracle, "entries")]


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, name", MAPPING_HOLDERS, ids=["FiniteVSpace", "EnumerationOracle"])
def test_clones_keep_their_mapping_read_only(cls, name, clone):
    fields = dict(RECORDS)[cls]
    mapping = getattr(clone(cls(**fields)), name)
    assert type(mapping) is MappingProxyType and mapping == fields[name]
    with pytest.raises(TypeError):
        mapping[0] = None


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
def test_a_clone_of_a_space_validates_on_first_use(clone):
    space = FiniteVSpace(1, {0: SYSTEM})
    assert space.violations == () and "violations" in vars(space)
    twin = clone(space)
    assert "violations" not in vars(twin)
    assert twin.violations == () and "violations" in vars(twin)


def test_a_space_builds_its_point_range_once():
    space = FiniteVSpace(3, {})
    assert "points" not in vars(space)
    assert space.points is space.points and space.points == range(3)
    assert vars(space)["points"] is space.points


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
def test_a_clone_of_a_space_builds_its_point_range_again(clone):
    space = FiniteVSpace(1, {0: SYSTEM})
    assert space.points == range(1)
    twin = clone(space)
    assert "points" not in vars(twin)
    assert twin.points == range(1) and "points" in vars(twin)


def test_a_space_of_bad_size_constructs_and_raises_only_on_its_point_range():
    space = FiniteVSpace("3", {})
    assert validate_space(space) == [Violation("bad-size", None, "point count '3' is not an int >= 0")]
    for _ in range(2):
        with pytest.raises(TypeError):
            space.points
        assert "points" not in vars(space)


# The answers that carry no data are module constants, shared by every call.
SHARED = {
    "connected": (connectivity._CONNECTED, lambda: ConnectivityVerdict(True)),
    "equal-labels": (tolerance._EQUAL_LABELS, lambda: TheoremOutcome(NOT_APPLICABLE, reason="equal labels")),
    "not-connected": (tolerance._NOT_CONNECTED, lambda: TheoremOutcome(NOT_APPLICABLE, reason="not connected")),
}


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("case", sorted(SHARED))
def test_a_shared_answer_is_a_fresh_one(case, clone):
    shared, fresh = SHARED[case]
    assert shared == fresh() and hash(shared) == hash(fresh())
    twin = clone(shared)
    assert type(twin) is type(shared) and twin == shared
    for name in shared._fields:
        with pytest.raises(AttributeError):
            setattr(shared, name, None)
    assert shared == fresh()
