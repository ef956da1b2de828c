import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vspace.spaces as spaces
from _helpers import CLONES, reference_violations
from vspace import (
    HOLDS,
    STRONG,
    WEAK,
    CodedSpaceConfig,
    EnumerationOracle,
    FiniteVSpace,
    ValidationError,
    VicinitySystem,
    build_coded_space,
    check_nontol,
    induced_space,
    is_connected,
    make_space,
    tolerance_report,
    validate_space,
    verify_witness,
)
from vspace.files import parse_space


def s1():
    return make_space({0: [{0, 1}], 1: [{1}, {1, 2}], 2: [{2}]})


def test_valid_space_has_no_violations():
    assert validate_space(s1()) == []


def test_owner_missing_from_vicinity():
    space = make_space({0: [{0}], 1: [{0, 2}], 2: [{2}]})
    violations = validate_space(space)
    assert [v.kind for v in violations] == ["owner-not-in-vicinity"]
    assert violations[0].point == 1


def test_duplicate_vicinity_under_strong_mode():
    space = make_space({0: [{0}], 1: [{1}, {1}], 2: [{2}]})
    violations = validate_space(space)
    assert [v.kind for v in violations] == ["duplicate-vicinity"]
    assert violations[0].point == 1


def test_duplicates_permitted_under_weak_mode():
    space = make_space({0: [{0}], 1: [{1}, {1}], 2: [{2}]}, mode=WEAK)
    assert validate_space(space) == []


def test_empty_system_reported():
    space = make_space({0: [{0, 1}]}, num_points=2)
    assert [v.kind for v in validate_space(space)] == ["empty-system"]


def test_member_out_of_range():
    space = make_space({0: [{0, 7}], 1: [{1}]}, num_points=2)
    assert [v.kind for v in validate_space(space)] == ["member-out-of-range"]


def test_every_vicinity_contains_its_owner_in_valid_spaces():
    space = s1()
    assert validate_space(space) == []
    for p in space.points:
        for vic in space.systems[p].vicinities:
            assert p in vic


def test_space_is_validated_once_per_instance(monkeypatch):
    calls = []

    def counting(space):
        calls.append(space)
        return validate_space(space)

    monkeypatch.setattr(spaces, "validate_space", counting)
    space = make_space({0: [{0, 1}], 1: [{0, 1, 2}], 2: [{2}]})
    pi = {0: "A", 1: "A", 2: "B"}
    assert check_nontol(space, pi, 0, 2).status == HOLDS
    tolerance_report(space, pi)
    assert not verify_witness(space, {0: 0, 1: 0, 2: 0}, 0, 2)
    assert len(calls) == 1 and calls[0] is space


def test_systems_are_read_only():
    space = s1()
    with pytest.raises(TypeError):
        space.systems[0] = space.systems[1]


def test_space_keeps_its_own_copy_of_the_systems():
    source = {p: VicinitySystem(p, (frozenset({p}),)) for p in range(2)}
    space = FiniteVSpace(2, source)
    assert space.violations == ()
    source[1] = VicinitySystem(1, ())
    assert validate_space(space) == []


@pytest.mark.parametrize(
    "clone",
    CLONES,
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal_spaces(clone):
    space = s1()
    assert space.violations == ()
    twin = clone(space)
    assert twin == space
    assert twin.violations == ()
    with pytest.raises(TypeError):
        twin.systems[0] = twin.systems[1]


def test_replace_starts_a_fresh_memo():
    weak = make_space({0: [{0}], 1: [{1}, {1}]}, mode=WEAK)
    assert not is_connected(weak, 0, 1).connected
    strong = FiniteVSpace(weak.num_points, weak.systems, STRONG)
    with pytest.raises(ValidationError):
        is_connected(strong, 0, 1)


def test_induced_space_example():
    pi = {0: "A", 1: "A", 2: "B"}
    space = induced_space(range(3), pi)
    assert space.mode == STRONG
    assert space.systems[0].vicinities == (frozenset({0, 1}),)
    assert space.systems[1].vicinities == (frozenset({0, 1}),)
    assert space.systems[2].vicinities == (frozenset({2}),)


def test_induced_space_constant_labeling():
    space = induced_space(range(4), {p: "X" for p in range(4)})
    for p in range(4):
        assert space.systems[p].vicinities == (frozenset(range(4)),)


def test_induced_space_injective_labeling():
    space = induced_space(range(4), {p: f"L{p}" for p in range(4)})
    for p in range(4):
        assert space.systems[p].vicinities == (frozenset({p}),)


def test_every_producer_of_spaces_holds_tuples_of_frozensets():
    # validate_space accepts a space in one scan only when every vicinity
    # is exactly a frozenset, so each producer must hold no other type.
    produced = [
        make_space({0: [[0, 1]], 1: [(1,), {1, 2}], 2: [frozenset({2})]}),
        parse_space("vspace v1\nmode weak\npoints 2\nvic 0: 0\nvic 0: 0 1\nvic 1: 1\n").space,
        induced_space(range(3), {0: "A", 1: "A", 2: "B"}),
        build_coded_space(EnumerationOracle({3: 1}, 3), CodedSpaceConfig(0, 2, 25, 3)).space,
    ]
    for space in produced:
        assert space.violations == ()
        for system in space.systems.values():
            assert type(system.vicinities) is tuple
            assert {type(v) for v in system.vicinities} == {frozenset}


def test_induced_space_requires_total_labeling():
    with pytest.raises(ValidationError):
        induced_space(range(3), {0: "A", 1: "A"})


@given(st.integers(1, 12), st.data())
def test_induced_space_membership_matches_labels(n, data):
    pi = {p: data.draw(st.sampled_from("ABC"), label=f"pi{p}") for p in range(n)}
    space = induced_space(range(n), pi)
    assert validate_space(space) == []
    for x in range(n):
        assert len(space.systems[x].vicinities) == 1
        vic = space.systems[x].vicinities[0]
        for y in range(n):
            assert (y in vic) == (pi[x] == pi[y])


def test_induced_space_matches_the_definition_on_random_labelings():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 300)
        tokens = [f"L{i}" for i in range(rng.randint(1, n))]
        pi = {p: rng.choice(tokens) for p in range(n)}
        space = induced_space(range(n), pi)
        assert space.num_points == n and space.mode == STRONG
        for p in range(n):
            expected = frozenset(q for q in range(n) if pi[q] == pi[p])
            assert space.systems[p] == VicinitySystem(p, (expected,), STRONG)


def test_non_int_member_is_reported_not_raised():
    space = make_space({0: [{0, "x"}]}, num_points=1)
    assert [v.kind for v in space.violations] == ["member-out-of-range"]
    with pytest.raises(ValidationError, match="member-out-of-range"):
        is_connected(space, 0, 0)


def test_out_of_range_members_list_ints_ascending_then_the_rest():
    space = make_space({0: [{0, 9, "x", 7, 2.5}]}, num_points=1)
    assert [v.detail for v in validate_space(space)] == ["vicinity 0 members [7, 9, 'x', 2.5] outside 0..0"]


@pytest.mark.parametrize("mode", [STRONG, WEAK])
@pytest.mark.parametrize("member", [(1,), -1, True], ids=repr)
def test_a_system_reports_members_that_are_not_points_in_either_mode(mode, member):
    space = FiniteVSpace(2, {0: _system(0, {0}, {0, member}, mode=mode), 1: _system(1, {1}, mode=mode)}, mode)
    assert validate_space(space) == [
        spaces.Violation("member-out-of-range", 0, f"vicinity 1 members [{member!r}] outside 0..1")
    ]


@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_an_empty_system_is_reported_in_either_mode(mode):
    assert validate_space(FiniteVSpace(1, {0: VicinitySystem(0, (), mode)}, mode)) == [
        spaces.Violation("empty-system", 0, "system has no vicinities")
    ]


def _system(owner, *vicinities, mode=STRONG):
    return VicinitySystem(owner, tuple(frozenset(v) for v in vicinities), mode)


def _shared_stray_space():
    """Points 0, 1 and 2 hold one vicinity object with the stray member 5."""
    shared = frozenset({0, 1, 2, 5})
    return FiniteVSpace(3, {p: VicinitySystem(p, (frozenset({p}), shared)) for p in range(3)})


MALFORMED_SPACES = {
    "space-mode": (lambda: FiniteVSpace(1, {0: _system(0, {0})}, "odd"), "bad-mode", None, "unknown mode 'odd'"),
    "system-mode": (lambda: FiniteVSpace(1, {0: _system(0, {0}, mode="odd")}), "bad-mode", 0, "unknown mode 'odd'"),
    "missing": (lambda: FiniteVSpace(2, {0: _system(0, {0})}), "missing-system", 1, "no vicinity system"),
    "stray-key": (
        lambda: FiniteVSpace(1, {0: _system(0, {0}), 5: _system(5, {5})}),
        "unknown-point", 5, "outside 0..0",
    ),
    "str-key": (
        lambda: FiniteVSpace(1, {0: _system(0, {0}), "x": _system(0, {0})}),
        "unknown-point", "x", "outside 0..0",
    ),
    "bool-key": (
        lambda: FiniteVSpace(2, {0: _system(0, {0}), True: _system(1, {1})}),
        "unknown-point", True, "outside 0..1",
    ),
    "owner": (
        lambda: FiniteVSpace(2, {0: _system(1, {0, 1}), 1: _system(1, {1})}),
        "owner-mismatch", 0, "system owner is 1",
    ),
    "shared-stray": (_shared_stray_space, "member-out-of-range", 2, "vicinity 1 members [5] outside 0..2"),
    "weak-list-member": (
        lambda: FiniteVSpace(2, {0: VicinitySystem(0, ([0, [1]],), WEAK), 1: _system(1, {1}, mode=WEAK)}, WEAK),
        "bad-system", 0, "vicinity 0 is a list, not a frozenset",
    ),
    "strong-list-member": (
        lambda: FiniteVSpace(2, {0: VicinitySystem(0, ([0, [1]],), STRONG), 1: _system(1, {1})}),
        "bad-system", 0, "vicinity 0 is a list, not a frozenset",
    ),
    "strong-list-duplicate": (
        lambda: FiniteVSpace(1, {0: VicinitySystem(0, ([0], [0]), STRONG)}),
        "bad-system", 0, "vicinity 0 is a list, not a frozenset",
    ),
    "int-vicinity": (
        lambda: FiniteVSpace(1, {0: VicinitySystem(0, (5,))}),
        "bad-system", 0, "vicinity 0 is a int, not a frozenset",
    ),
    "none-vicinity": (
        lambda: FiniteVSpace(1, {0: VicinitySystem(0, (frozenset({0}), None))}),
        "bad-system", 0, "vicinity 1 is a NoneType, not a frozenset",
    ),
    "str-vicinity": (
        lambda: FiniteVSpace(1, {0: VicinitySystem(0, ("0",))}),
        "bad-system", 0, "vicinity 0 is a str, not a frozenset",
    ),
    "dict-vicinity": (
        lambda: FiniteVSpace(1, {0: VicinitySystem(0, ({0: 1},))}),
        "bad-system", 0, "vicinity 0 is a dict, not a frozenset",
    ),
    "list-owner": (
        lambda: FiniteVSpace(1, {0: VicinitySystem([0], (frozenset({0}),))}),
        "bad-system", 0, "owner is an unhashable list",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPACES))
def test_malformed_spaces_are_reported(case):
    build, kind, point, detail = MALFORMED_SPACES[case]
    assert any(
        v.kind == kind and v.point == point and detail in v.detail for v in validate_space(build())
    )


def test_a_shared_stray_vicinity_is_reported_at_each_point():
    assert [(v.kind, v.point, v.detail) for v in validate_space(_shared_stray_space())] == [
        ("member-out-of-range", p, "vicinity 1 members [5] outside 0..2") for p in range(3)
    ]


class _Members(frozenset):
    """A vicinity type that the shape rule accepts as a frozenset."""


# Vicinities that the shape rule refuses.
ODD_VICINITIES = [5, None, "0", {0: 1}, {0}, [0], (0,)]


def test_a_vicinity_of_a_subclass_of_an_accepted_type_is_read():
    space = FiniteVSpace(2, {0: VicinitySystem(0, (_Members({0, 1}),)), 1: VicinitySystem(1, (frozenset({1}), _Members({0, 1})))})
    assert validate_space(space) == []
    assert is_connected(space, 0, 1).connected


def generated_spaces():
    """Labelled spaces that break the rules in many ways at once, then every
    3-point space of the exhaustive sweep (one or two vicinities per point,
    each holding it) and every one of one vicinity within 0..3."""
    for seed in range(1000):
        rng = random.Random(31_000 + seed)
        shape_rng = random.Random(41_000 + seed)
        n = rng.randint(1, 6)
        mode = rng.choice([STRONG, WEAK])
        space_mode = rng.choice([mode] * 6 + [STRONG if mode == WEAK else WEAK, "odd"])
        # Most spaces keep every member in range, so that no member strays.
        top = n + 2 if rng.random() < 0.3 else n
        pool = [frozenset(rng.sample(range(top), rng.randint(0, min(3, top)))) for _ in range(4)]
        keys = [p for p in range(n) if rng.random() < 0.9] + rng.sample([n, -1, True, False, "x"], rng.randint(0, 2))
        systems = {}
        for key in keys:
            owner = rng.choice([key, key, key, rng.randrange(n), True])
            vics = [rng.choice(pool) for _ in range(1 if rng.random() < 0.6 else rng.randint(0, 3))]
            vics = [v | {owner} if rng.random() < 0.7 else v for v in vics]
            vics = [_Members(v) if shape_rng.random() < 0.1 and isinstance(v, frozenset) else v for v in vics]
            vics = [shape_rng.choice(ODD_VICINITIES) if shape_rng.random() < 0.03 else v for v in vics]
            owner = [owner] if shape_rng.random() < 0.02 else owner
            system_mode = rng.choice([mode] * 8 + [STRONG if mode == WEAK else WEAK, "odd"])
            systems[key] = VicinitySystem(owner, tuple(vics), system_mode)
        yield seed, FiniteVSpace(n, systems, space_mode)
    one = [frozenset(q for q in range(4) if mask >> q & 1) for mask in range(16)]
    for mode in (STRONG, WEAK):
        sweep = []
        for p in range(3):
            held = [v | {p} for v in one[:8] if p not in v]
            sweep.append([(s,) for s in held] + [(s, t) for s in held for t in held if s != t])
        for per_point in (sweep, [[(v,) for v in one]] * 3):
            for combo in itertools.product(*per_point):
                yield (mode, combo), FiniteVSpace(3, {p: VicinitySystem(p, combo[p], mode) for p in range(3)}, mode)


# The sha256 of validate_space's violations over generated_spaces(), one
# repr per line: a change to any kind, point, detail or order moves it.
GENERATED_VIOLATIONS_SHA256 = "cf299f68ac0b957fa9664b9ef825981cab9f35e250ad3b5b7f21346e00d4880b"


def test_validate_space_matches_the_per_system_rules_in_key_order():
    # The violations are the space's own, then per key those of the
    # reference rules, which share no code with validate_space.
    digest = hashlib.sha256()
    for label, space in generated_spaces():
        found = validate_space(space)
        assert found == reference_violations(space), label
        # Violations are reported at keys, never at an unhashable owner.
        hash(tuple(found))
        digest.update(repr(found).encode() + b"\n")
    assert digest.hexdigest() == GENERATED_VIOLATIONS_SHA256


class _Counted(frozenset):
    """A vicinity that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_a_vicinity_shared_by_many_keys_is_read_as_often_as_by_few():
    iterations = []
    for n in (10, 1000):
        shared = _Counted(range(n))
        systems = {p: VicinitySystem(p, (shared,)) for p in range(n)}
        systems[0] = VicinitySystem(1, (shared,))
        assert [str(v) for v in validate_space(FiniteVSpace(n, systems))] == ["owner-mismatch (point 0): system owner is 1"]
        iterations.append(shared.iterations)
    assert iterations[0] == iterations[1]


ONE_RULE_BROKEN = {
    # A small space that breaks one rule.
    "owner-missing": (
        FiniteVSpace(2, {0: _system(0, {1}), 1: _system(1, {1})}),
        ["owner-not-in-vicinity (point 0): vicinity 0 does not contain its owner"],
    ),
    "mode-mismatch": (
        FiniteVSpace(1, {0: _system(0, {0}, mode=WEAK)}),
        ["mode-mismatch (point 0): system mode weak != space mode strong"],
    ),
    "mode-none": (
        FiniteVSpace(1, {0: _system(0, {0}, mode=None)}, None),
        ["bad-mode (space): unknown mode None", "bad-mode (point 0): unknown mode None"],
    ),
    "mode-odd": (
        FiniteVSpace(1, {0: _system(0, {0}, mode="odd")}, "odd"),
        ["bad-mode (space): unknown mode 'odd'", "bad-mode (point 0): unknown mode 'odd'"],
    ),
    # A space of mode None reports each system's mode, as one of mode "odd" does.
    "mode-none-strong-system": (
        FiniteVSpace(1, {0: _system(0, {0})}, None),
        ["bad-mode (space): unknown mode None", "mode-mismatch (point 0): system mode strong != space mode None"],
    ),
    "stray-member": (
        FiniteVSpace(1, {0: _system(0, {0, 5})}),
        ["member-out-of-range (point 0): vicinity 0 members [5] outside 0..0"],
    ),
    "two-vicinities": (
        FiniteVSpace(1, {0: _system(0, {0}, {0})}),
        ["duplicate-vicinity (point 0): vicinities 0 and 1 are equal sets"],
    ),
    # A weak system may repeat a vicinity; each repeat is reported at its index.
    "weak-repeat": (
        FiniteVSpace(2, {0: _system(0, {1}, {1}, mode=WEAK), 1: _system(1, {1}, mode=WEAK)}, WEAK),
        [f"owner-not-in-vicinity (point 0): vicinity {i} does not contain its owner" for i in (0, 1)],
    ),
    # An owner is the int equal to its key, as a point is an int.
    "float-owner": (
        FiniteVSpace(1, {0: _system(0.0, {0})}),
        ["owner-mismatch (point 0): system owner is 0.0"],
    ),
    "bool-owner": (
        FiniteVSpace(2, {0: _system(0, {0}), 1: _system(True, {1})}),
        ["owner-mismatch (point 1): system owner is True"],
    ),
}


@pytest.mark.parametrize("case", sorted(ONE_RULE_BROKEN))
def test_a_space_breaking_one_rule_gets_its_violations(case):
    space, expected = ONE_RULE_BROKEN[case]
    assert [str(v) for v in validate_space(space)] == expected
    assert validate_space(space) == reference_violations(space)


MISSHAPEN_SYSTEMS = {
    "list-system": ([frozenset({0})], "system is a list, not a VicinitySystem"),
    "none-vicinities": (VicinitySystem(1, None), "vicinities are a NoneType, not a tuple"),
    "set-of-one": (VicinitySystem(0, {frozenset({0})}), "vicinities are a set, not a tuple"),
    "set-of-two": (VicinitySystem(0, {frozenset({0}), frozenset({0, 1})}), "vicinities are a set, not a tuple"),
    # A space keeps its violations once computed, so a valid one holds
    # nothing that a caller could change afterwards: no list of
    # vicinities and no set vicinity.
    "list-of-one": (VicinitySystem(0, [frozenset({0})]), "vicinities are a list, not a tuple"),
    "int-vicinity": (VicinitySystem(0, (5,)), "vicinity 0 is a int, not a frozenset"),
    "none-vicinity": (VicinitySystem(0, (frozenset({0}), None)), "vicinity 1 is a NoneType, not a frozenset"),
    "str-vicinity": (VicinitySystem(0, ("0",)), "vicinity 0 is a str, not a frozenset"),
    "dict-vicinity": (VicinitySystem(0, ({0: 1},)), "vicinity 0 is a dict, not a frozenset"),
    "set-vicinity": (VicinitySystem(0, (frozenset({0}), {0, 1})), "vicinity 1 is a set, not a frozenset"),
    "list-vicinity": (VicinitySystem(0, ([0],)), "vicinity 0 is a list, not a frozenset"),
    "tuple-vicinity": (VicinitySystem(0, ((0, 1),)), "vicinity 0 is a tuple, not a frozenset"),
    # Also a stray member, in a vicinity that is not read.
    "list-owner": (VicinitySystem([0], (frozenset({0, 9}),)), "owner is an unhashable list"),
}


@pytest.mark.parametrize("engine", ["brute", "pruned"])
@pytest.mark.parametrize("case", sorted(MISSHAPEN_SYSTEMS))
def test_a_misshapen_system_is_one_bad_system_violation(case, engine):
    # The none-vicinities system also names the wrong owner, which is not read.
    system, detail = MISSHAPEN_SYSTEMS[case]
    space = FiniteVSpace(2, {0: system, 1: _system(1, {1}), 5: system})
    assert [str(v) for v in validate_space(space)] == [
        f"bad-system (point 0): {detail}", "unknown-point (point 5): system keyed by point outside 0..1"
    ]
    with pytest.raises(ValidationError, match=r"invalid space: bad-system \(point 0\)"):
        is_connected(space, 0, 1, engine=engine)


def test_is_connected_reports_non_int_system_keys():
    with pytest.raises(ValidationError, match=r"invalid space: unknown-point \(point x\)"):
        is_connected(MALFORMED_SPACES["str-key"][0](), 0, 0)


def test_int_keyed_violations_follow_key_order():
    space = FiniteVSpace(2, {5: _system(5, {5}), 1: _system(0, {0, 1}), -1: _system(-1, {-1}), 0: _system(0, {0})})
    assert [(v.kind, v.point) for v in validate_space(space)] == [
        ("unknown-point", -1), ("owner-mismatch", 1), ("unknown-point", 5)
    ]


def test_empty_label_is_refused():
    with pytest.raises(ValidationError, match="label of point 0 must be a non-empty string"):
        spaces.require_total_labeling({0: ""}, [0])


@pytest.mark.parametrize("points", [range(5), [4, 3, 0, 1, 2]], ids=["range", "list"])
def test_a_labeling_missing_several_points_names_them_sorted(points):
    with pytest.raises(ValidationError, match=r"^labeling undefined on points \[0, 1, 3, 4\]$"):
        spaces.require_total_labeling({2: "A"}, points)


def test_not_points_lists_ints_ascending_then_the_rest_by_repr():
    assert spaces._not_points([2.5, "x", -1, True, 0, 5, 1], 3) == [-1, 5, "x", 2.5, True]
    assert spaces._not_points(range(3), 3) == []


@pytest.mark.parametrize("points", [[0, 2], [0, 1.0], [0, True]], ids=repr)
def test_induced_space_requires_int_points_0_to_n_minus_1(points):
    with pytest.raises(ValidationError, match="dense range 0..n-1"):
        induced_space(points, {0: "A", 1: "A", 2: "B"})


@pytest.mark.parametrize(
    "vicinities, kind, point",
    [
        ({0: [{0, "x"}]}, "member-out-of-range", 0),
        ({"x": [{0}], 0: [{0}]}, "unknown-point", "x"),
        ({0: [{0, 1.5}]}, "member-out-of-range", 0),
        ({0: [{0, True}]}, "member-out-of-range", 0),
    ],
    ids=["str-member", "str-key", "float-member", "bool-member"],
)
def test_make_space_counts_only_int_points(vicinities, kind, point):
    space = make_space(vicinities)
    assert space.num_points == 1
    assert [(v.kind, v.point) for v in space.violations] == [(kind, point)]


def test_make_space_keeps_keys_outside_the_given_count():
    space = make_space({0: [{0}], 1: [{1}], 2: [{2}], 5: [{5}]}, num_points=3)
    assert [str(v) for v in space.violations] == ["unknown-point (point 5): system keyed by point outside 0..2"]


@pytest.mark.parametrize("num_points", ["3", 2.0, True], ids=repr)
def test_make_space_with_a_count_that_is_not_an_int_builds_a_space_of_bad_size(num_points):
    for vicinities, systems in (({}, {}), ({0: [{0}]}, {0: VicinitySystem(0, (frozenset({0}),))})):
        space = make_space(vicinities, num_points=num_points)
        assert space == FiniteVSpace(num_points, systems)
        assert [(v.kind, v.point) for v in space.violations] == [("bad-size", None)]


@pytest.mark.parametrize("num_points", [-1, 2.0, True, "3", None], ids=repr)
def test_bad_point_count_is_one_violation(num_points):
    space = FiniteVSpace(num_points, {0: _system(0, {0}), "x": _system(0, {7})}, "odd")
    assert [(v.kind, v.point) for v in validate_space(space)] == [("bad-size", None)]
    with pytest.raises(ValidationError, match=r"invalid space: bad-size \(space\): point count"):
        is_connected(space, 0, 0)
