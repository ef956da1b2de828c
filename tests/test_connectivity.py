import copy
import hashlib
import itertools
import random
import time
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspace import (
    STRONG,
    WEAK,
    BudgetExceededError,
    CodedSpaceConfig,
    EnumerationOracle,
    FiniteVSpace,
    ValidationError,
    VicinitySystem,
    build_coded_space,
    chain_exists,
    decode_from_cover,
    is_connected,
    make_space,
    tolerant_cover,
    validate_config,
    validate_space,
    verify_witness,
)
from vspace.connectivity import DEFAULT_MAX_COVERS, _chain, _PrunedSearch, _sets_reachable, resolve_choice
from vspace.files import parse_space

from _helpers import _path, _reaches, brute_force_connected, cover_count, first_witness, random_space

C1 = {0: 0, 1: 0, 2: 0}
C2 = {0: 0, 1: 1, 2: 0}


def s1():
    return make_space({0: [{0, 1}], 1: [{1}, {1, 2}], 2: [{2}]})


def s2():
    return make_space({0: [{0, 1}], 1: [{0, 1, 2}], 2: [{2}]})


# Under C1 the chosen sets of s1 are {0, 1}, {1}, {2}, which join only 0
# and 1; under C2 they are {0, 1}, {1, 2}, {2}, which join all three.
S1_CHAINS = [
    (C1, 0, 1, [0, 1]),
    (C1, 1, 2, None),
    (C1, 0, 2, None),
    (C2, 0, 1, [0, 1]),
    (C2, 1, 2, [1, 2]),
    (C2, 0, 2, [0, 1, 2]),
]


@pytest.mark.parametrize(
    "cover, a, b, chain", S1_CHAINS, ids=[f"C{1 + (c is C2)}-{a}-{b}" for c, a, b, _ in S1_CHAINS]
)
def test_chains_of_s1_under_c1_and_c2(cover, a, b, chain):
    assert chain_exists(s1(), cover, a, b) == chain
    assert chain_exists(s1(), cover, b, a) == (None if chain is None else chain[::-1])
    assert verify_witness(s1(), cover, a, b) == (chain is None)


def test_a_single_point_space_has_the_length_zero_chain():
    space = make_space({0: [{0}]})
    assert chain_exists(space, {0: 0}, 0, 0) == [0]
    assert not verify_witness(space, {0: 0}, 0, 0)
    assert is_connected(space, 0, 0).connected


# Weak vicinities of the owner and their first-occurrence dedupe, the
# strong system README gives as tuple(dict.fromkeys(map(frozenset, ...))).
WEAK_DEDUPES = {
    "first-repeated": (1, ({1}, {1, 2}, {1}), ({1}, {1, 2})),
    "distinct": (1, ({1},), ({1},)),
    "all-equal": (0, ({0, 1}, {0, 1}, {0, 1}), ({0, 1},)),
    "interleaved": (0, ({0, 1}, {0}, {1, 0}, {0}), ({0, 1}, {0})),
}


def _with_singletons(owner, vicinities, mode):
    """A three-point space: the owner's system, and {p} for each other point."""
    systems = {p: VicinitySystem(p, (frozenset({p}),), mode) for p in range(3)}
    systems[owner] = VicinitySystem(owner, vicinities, mode)
    return FiniteVSpace(3, systems, mode)


def brute_at_its_budget(space, a, b):
    """brute's verdict (a != b) at a budget of the space's distinct covers,
    once a budget one less has been checked to raise."""
    count = cover_count(space)
    with pytest.raises(BudgetExceededError, match=f"^the covers exceed the budget of {count - 1}$"):
        is_connected(space, a, b, max_covers=count - 1)
    return is_connected(space, a, b, max_covers=count)


@pytest.mark.parametrize("case", sorted(WEAK_DEDUPES))
def test_a_weak_system_compiles_as_its_first_occurrence_dedupe(case):
    owner, vicinities, deduped = WEAK_DEDUPES[case]
    weak = _with_singletons(owner, tuple(map(frozenset, vicinities)), WEAK)
    strong = _with_singletons(owner, tuple(dict.fromkeys(map(frozenset, weak.systems[owner].vicinities))), STRONG)
    assert strong.systems[owner].vicinities == tuple(map(frozenset, deduped))
    assert validate_space(weak) == validate_space(strong) == []
    for a, b in itertools.product(range(3), repeat=2):
        assert is_connected(weak, a, b) == is_connected(strong, a, b)
        if a != b:
            assert brute_at_its_budget(weak, a, b) == brute_at_its_budget(strong, a, b)


def _read_as(space, mode):
    """The space with each system's vicinities kept in ``mode``; a strong
    reading keeps the first occurrence of each set."""
    systems = {}
    for p, system in space.systems.items():
        vics = system.vicinities if mode == WEAK else tuple(dict.fromkeys(map(frozenset, system.vicinities)))
        systems[p] = VicinitySystem(p, vics, mode)
    return FiniteVSpace(space.num_points, systems, mode)


@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_a_space_read_in_the_other_mode_compiles_alike_and_keeps_its_verdicts(mode, monkeypatch):
    # A strong space read as weak must validate clean and give the same
    # brute budget and verdicts.  A weak one deduped into strong must too,
    # up to indices: the dedupe renumbers the sets after a repeated one.
    # Pruned takes as many nodes on either reading, and each engine's weak
    # witness names the least listed index of each set its strong one names.
    nodes = []
    search = _PrunedSearch.search
    monkeypatch.setattr(_PrunedSearch, "search", lambda self, stack: nodes.append(1) or search(self, stack))
    rng = random.Random(52_000 if mode == STRONG else 53_000)
    checked = duplicated = 0
    while checked < 150:
        space = random_space(rng, max_vics=4)
        if space.mode != mode:
            continue
        checked += 1
        duplicated += any(len(set(s.vicinities)) < len(s.vicinities) for s in space.systems.values())
        other = _read_as(space, WEAK if mode == STRONG else STRONG)
        assert validate_space(other) == []
        for a, b in itertools.product(space.points, repeat=2):
            for engine in ("brute", "pruned"):
                nodes.clear()
                verdict = is_connected(other, a, b, engine=engine)
                other_nodes = len(nodes)
                nodes.clear()
                own = is_connected(space, a, b, engine=engine)
                assert len(nodes) == other_nodes
                if engine == "brute" and a != b:
                    assert (brute_at_its_budget(other, a, b), brute_at_its_budget(space, a, b)) == (verdict, own)
                if mode == STRONG:
                    assert verdict == own
                else:
                    assert verdict.connected == own.connected
                    assert verdict.connected or verify_witness(other, verdict.witness, a, b)
                    if not own.connected:
                        named = {p: other.systems[p].vicinities[i] for p, i in verdict.witness.items()}
                        assert own.witness == {p: space.systems[p].vicinities.index(v) for p, v in named.items()}
    assert mode == STRONG or duplicated > 30


def test_weak_index_past_end_denotes_vicinity_zero():
    system = VicinitySystem(1, (frozenset({1}), frozenset({1, 2})), WEAK)
    assert resolve_choice(system, 7) == frozenset({1})
    strong = VicinitySystem(1, (frozenset({1}),), STRONG)
    with pytest.raises(ValidationError):
        resolve_choice(strong, 7)


def test_chain_exists_under_c2():
    assert chain_exists(s1(), C2, 0, 2) == [0, 1, 2]


def test_no_chain_under_c1():
    assert chain_exists(s1(), C1, 0, 2) is None


def test_chain_for_equal_endpoints():
    assert chain_exists(s1(), C1, 1, 1) == [1]


def test_s1_not_connected_with_deterministic_witness():
    verdict = is_connected(s1(), 0, 2)
    assert not verdict.connected
    assert verdict.witness == C1


def test_s2_connected():
    verdict = is_connected(s2(), 0, 2)
    assert verdict.connected and verdict.witness is None


def test_equal_endpoints_connected():
    assert is_connected(s1(), 2, 2).connected


def test_invalid_endpoint_rejected():
    with pytest.raises(ValidationError):
        is_connected(s1(), 0, 9)


def test_invalid_space_rejected():
    bad = make_space({0: [{0}], 1: [{0}]})
    with pytest.raises(ValidationError):
        is_connected(bad, 0, 1)


# A member outside the point set, and a vicinity without its owner.
INVALID_SPACES = {
    "stray-member": lambda: make_space({0: [{0, 5}], 1: [{1, 5}]}, num_points=2),
    "owner-missing": lambda: make_space({0: [{0}], 1: [{0}]}),
}

COVER_FUNCTIONS = {
    "chain_exists": lambda space: chain_exists(space, {0: 0, 1: 0}, 0, 1),
    "verify_witness": lambda space: verify_witness(space, {0: 0, 1: 0}, 0, 1),
    "decode_from_cover": lambda space: decode_from_cover(space, {0: 0, 1: 0}, 0, 1),
}


@pytest.mark.parametrize("space", sorted(INVALID_SPACES))
@pytest.mark.parametrize("function", sorted(COVER_FUNCTIONS))
def test_cover_functions_reject_invalid_spaces(function, space):
    with pytest.raises(ValidationError, match="invalid space"):
        COVER_FUNCTIONS[function](INVALID_SPACES[space]())


# C1 without point 1 (or without 0 and 2), and C1 naming a point 3 that s1 does not have.
INCOMPLETE_COVERS = {
    "missing": ({0: 0, 2: 0}, r"cover missing points \[1\]"),
    "missing-several": ({1: 0}, r"cover missing points \[0, 2\]"),
    "stray": ({**C1, 3: 0}, r"cover mentions unknown points \[3\]"),
    "stray-mixed": ({**C1, "x": 0, 5: 0}, r"cover mentions unknown points \[5, 'x'\]"),
    # A key equal to a point (1.0 == True == 1, False == 0) that is not an
    # int, in a cover with one key per point.
    "float-key": ({0: 0, 1.0: 0, 2: 0}, r"cover mentions unknown points \[1\.0\]"),
    "true-key": ({0: 0, True: 0, 2: 0}, r"cover mentions unknown points \[True\]"),
    "false-key": ({False: 0, 1: 0, 2: 0}, r"cover mentions unknown points \[False\]"),
    # A sequence is not read as a cover by its values.
    "list": ([0, 0, 0], "cover must be a mapping from points to indices, got a list"),
    "tuple": ((0, 0, 0), "cover must be a mapping from points to indices, got a tuple"),
    "str": ("000", "cover must be a mapping from points to indices, got a str"),
}
WITNESS_FUNCTIONS = {
    "chain_exists": chain_exists,
    "verify_witness": verify_witness,
    "decode_from_cover": decode_from_cover,
}


@pytest.mark.parametrize("cover", sorted(INCOMPLETE_COVERS))
@pytest.mark.parametrize("function", sorted(WITNESS_FUNCTIONS))
def test_cover_functions_reject_covers_without_exactly_the_space_points(function, cover):
    bad, message = INCOMPLETE_COVERS[cover]
    with pytest.raises(ValidationError, match=message):
        WITNESS_FUNCTIONS[function](s1(), bad, 0, 2)


def test_verify_witness_examples():
    assert verify_witness(s1(), C1, 0, 2)
    assert not verify_witness(s1(), C2, 0, 2)
    assert not verify_witness(s1(), C1, 1, 1)


def test_budget_exceeded_is_a_hard_error():
    with pytest.raises(BudgetExceededError):
        is_connected(s1(), 0, 2, max_covers=1)


@pytest.mark.parametrize("engine", ["brute", "pruned"])
@pytest.mark.parametrize("a, b", [(0, 2), (1, 1)])
def test_negative_budget_rejected(engine, a, b):
    with pytest.raises(ValidationError, match="max_covers"):
        is_connected(s1(), a, b, engine=engine, max_covers=-1)


def test_negative_budget_rejected_before_other_checks():
    bad = make_space({0: [{0}], 1: [{0}]})
    with pytest.raises(ValidationError, match="max_covers"):
        is_connected(bad, 0, 9, engine="nope", max_covers=-1)


@pytest.mark.parametrize("engine", ["brute", "pruned"])
def test_zero_budget_is_legal(engine):
    assert is_connected(s1(), 1, 1, engine=engine, max_covers=0).connected
    with pytest.raises(BudgetExceededError):
        is_connected(s1(), 0, 2, engine=engine, max_covers=0)


def test_duplicate_vicinities_collapse_before_search():
    # Point 1 repeats one set three times: only one cover remains.
    space = make_space({0: [{0, 1}], 1: [{1}, {1}, {1}]}, mode=WEAK)
    verdict = is_connected(space, 0, 1, max_covers=1)
    assert verdict.connected


def test_forced_points_never_branch_in_pruned_engine():
    # All systems have a single distinct set, so the pruned search must
    # decide at its root node within a budget of one.
    space = make_space({0: [{0, 1}], 1: [{1}], 2: [{2}]})
    verdict = is_connected(space, 0, 2, engine="pruned", max_covers=1)
    assert not verdict.connected


@pytest.mark.parametrize("seed", range(40))
def test_engines_match_brute_force_enumeration(seed):
    rng = random.Random(1000 + seed)
    space = random_space(rng, max_points=5, max_vics=3)
    a = rng.randrange(space.num_points)
    b = rng.randrange(space.num_points)
    expected = brute_force_connected(space, a, b)
    for engine in ("brute", "pruned"):
        verdict = is_connected(space, a, b, engine=engine)
        assert verdict.connected == expected
        if not verdict.connected:
            assert verify_witness(space, verdict.witness, a, b)
        if engine == "brute":
            assert verdict.witness == first_witness(space, a, b)


def dense_space(seed, n, prob):
    """n points, three distinct vicinities each, members drawn with prob."""
    rng = random.Random(seed)
    vicinities = {}
    for p in range(n):
        vics = []
        while len(vics) < 3:
            members = frozenset({p} | {q for q in range(n) if q != p and rng.random() < prob})
            if members not in vics:
                vics.append(members)
        vicinities[p] = vics
    return make_space(vicinities, num_points=n), 0, n - 1


def coded_small():
    doc = parse_space((Path(__file__).parent / "fixtures" / "coded_small.vs").read_text())
    return doc.space, doc.a, doc.b


@pytest.mark.parametrize(
    "instance, nodes, witness",
    [
        (lambda: dense_space(339476157, 16, 0.111), 1, {3: 1, 5: 1, 7: 1}),
        (lambda: dense_space(1607279297, 16, 0.125), 5, None),
        (coded_small, 1, {3: 2}),
        (lambda: dense_space(124576495, 40, 0.07), 143, None),
        (lambda: dense_space(1539898300, 40, 0.07), 2, {0: 2, 3: 1, 19: 1, 24: 1, 28: 1, 33: 1}),
        (lambda: dense_space(1888932367, 16, 0.127), 7, {3: 1, 4: 1, 7: 1, 9: 1, 10: 2, 11: 2, 12: 2}),
        (lambda: dense_space(1144457210, 16, 0.144), 5, {4: 2, 5: 1, 8: 1, 10: 1, 15: 1}),
    ],
    ids=[
        "dense-notconnected",
        "dense-connected",
        "coded_small",
        "dense40-connected",
        "dense40-notconnected",
        "dense-side-a",
        "dense-side-b",
    ],
)
def test_pruned_engine_witness_and_node_count_are_pinned(instance, nodes, witness):
    # Non-zero witness indices are listed; every other point takes index 0.
    # The side-a and side-b witnesses come from the (A, rest) and the
    # (rest, B) completion: the grown side fails at their last node.
    space, a, b = instance()
    verdict = is_connected(space, a, b, engine="pruned", max_covers=nodes)
    expected = None if witness is None else {p: witness.get(p, 0) for p in space.points}
    assert verdict.witness == expected
    assert verdict.connected == (witness is None)
    with pytest.raises(BudgetExceededError):
        is_connected(space, a, b, engine="pruned", max_covers=nodes - 1)


@pytest.mark.parametrize(
    "seed, connected", [(124576495, True), (1539898300, False)], ids=["connected", "notconnected"]
)
def test_pruned_engine_decides_forty_point_spaces_within_a_thousand_nodes(seed, connected):
    space, a, b = dense_space(seed, 40, 0.07)
    verdict = is_connected(space, a, b, engine="pruned", max_covers=1000)
    assert verdict.connected == connected
    assert connected or verify_witness(space, verdict.witness, a, b)


def test_pruned_engine_node_count_on_a_forty_point_family_is_pinned(monkeypatch):
    # 20 seeds from one generator; the total pins the search order, which
    # a faster loop must keep.  In the verdicts, 1 is connected.
    nodes = []
    search = _PrunedSearch.search
    monkeypatch.setattr(_PrunedSearch, "search", lambda self, stack: nodes.append(1) or search(self, stack))
    rng = random.Random(5)
    verdicts = ""
    for _ in range(20):
        space, a, b = dense_space(rng.randrange(2**31), 40, 0.07)
        verdict = is_connected(space, a, b, engine="pruned", max_covers=1000)
        assert verdict.connected or verify_witness(space, verdict.witness, a, b)
        verdicts += str(int(verdict.connected))
    assert verdicts == "00100111110010010010"
    assert len(nodes) == 1316


def test_pruned_engine_on_a_dense_family_of_16_and_20_points_is_pinned(monkeypatch):
    # The shape of the pruned-random benchmark: alternating 16 and 20
    # points, member probability 0.09-0.2, both verdicts.  The node total
    # and the digest of the witnesses pin the search order and its covers.
    nodes = []
    search = _PrunedSearch.search
    monkeypatch.setattr(_PrunedSearch, "search", lambda self, stack: nodes.append(1) or search(self, stack))
    rng = random.Random(27)
    digest = hashlib.sha256()
    connected = 0
    for i in range(400):
        space, a, b = dense_space(rng.randrange(2**31), (16, 20)[i % 2], round(rng.uniform(0.09, 0.2), 3))
        verdict = is_connected(space, a, b, engine="pruned")
        connected += verdict.connected
        digest.update(repr(verdict.witness).encode() + b"\n")
    assert connected == 154
    assert len(nodes) == 1296
    assert digest.hexdigest() == "3f68a38019f20b969526b6a31ae918098bfc6ca82f92d810a360102dcd7cf035"


def test_witness_early_exit_never_changes_the_answer():
    # Pre-testing the points of split on masks may only return early what
    # the full pass returns anyway: each point's least index whose set lies
    # inside its own side, or None.  Splits are any masks, closed or not.
    def reference(space, split):
        witness = {}
        for x in space.points:
            side = {p for p in space.points if (split >> p & 1) == (split >> x & 1)}
            inside = [i for i, vic in enumerate(space.systems[x].vicinities) if vic <= side]
            if not inside:
                return None
            witness[x] = inside[0]
        return witness

    rng = random.Random(91_000)
    weak = found = 0
    for _ in range(300):
        space = random_space(rng, max_points=7, max_vics=4)
        weak += space.mode == WEAK
        search = _PrunedSearch(space)
        for _ in range(8):
            split = rng.randrange(1 << space.num_points)
            expected = reference(space, split)
            found += expected is not None
            assert search._witness(split, split) == search._witness(split) == expected
    assert weak > 50 and 100 < found < 2300


def test_pruned_engine_decides_a_long_chain_without_recursion():
    # Point p may reach p + 1, so a search that recursed once per decided
    # point would pass Python's recursion limit long before the end.
    n = 1500
    space = make_space({p: [{p, p + 1}, {p}] if p < n - 1 else [{p}] for p in range(n)})
    for a, b in [(0, n - 1), (n - 1, 0), (n // 2, 0)]:
        verdict = is_connected(space, a, b, engine="pruned", max_covers=n)
        assert not verdict.connected
        assert verify_witness(space, verdict.witness, a, b)


@pytest.mark.parametrize("block", range(10))
def test_pruned_engine_matches_brute_force_on_seeded_spaces(block):
    verdicts = set()
    for seed in range(100 * block, 100 * block + 100):
        rng = random.Random(70_000 + seed)
        space = random_space(rng, max_points=9, max_vics=3)
        a = rng.randrange(space.num_points)
        b = rng.randrange(space.num_points)
        verdict = is_connected(space, a, b, engine="pruned")
        assert verdict.connected == brute_force_connected(space, a, b), seed
        if not verdict.connected:
            assert verify_witness(space, verdict.witness, a, b), seed
        verdicts.add(verdict.connected)
    assert verdicts == {True, False}


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_verdict_is_symmetric(seed):
    rng = random.Random(seed)
    space = random_space(rng, max_points=5, max_vics=2)
    a = rng.randrange(space.num_points)
    b = rng.randrange(space.num_points)
    assert is_connected(space, a, b).connected == is_connected(space, b, a).connected


def test_cover_count_matches_engine_budget_precheck():
    space = s1()
    assert cover_count(space) == 2
    # A budget of exactly the cover count succeeds.
    assert not is_connected(space, 0, 2, max_covers=2).connected


def test_returned_chains_link_overlapping_vicinities():
    rng = random.Random(4242)
    found = 0
    for _ in range(120):
        space = random_space(rng, max_points=6, max_vics=3)
        cover = {
            p: rng.randrange(len(set(space.systems[p].vicinities)))
            for p in space.points
        }
        a = rng.randrange(space.num_points)
        b = rng.randrange(space.num_points)
        chain = chain_exists(space, cover, a, b)
        if chain is None:
            continue
        found += 1
        assert chain[0] == a and chain[-1] == b
        chosen = {p: resolve_choice(space.systems[p], cover[p]) for p in space.points}
        for x, y in zip(chain, chain[1:]):
            assert x != y
            assert chosen[x] & chosen[y]
    assert found > 30


# Points, endpoints and cover indices are ints; a float, a bool or a
# string is refused by the same rule in every engine and cover function.
NON_INT_POINTS = [2.0, True, "2"]


@pytest.mark.parametrize("b", NON_INT_POINTS, ids=repr)
@pytest.mark.parametrize("engine", ["brute", "pruned"])
def test_is_connected_rejects_non_int_endpoints(engine, b):
    with pytest.raises(ValidationError, match=r"endpoints \[.*\] are not points 0..2"):
        is_connected(s1(), 0, b, engine=engine)


@pytest.mark.parametrize("b", NON_INT_POINTS, ids=repr)
def test_chain_exists_rejects_non_int_endpoints(b):
    with pytest.raises(ValidationError, match=r"endpoints \[.*\] are not points 0..2"):
        chain_exists(s1(), C2, 0, b)


@pytest.mark.parametrize("index", [1.0, True], ids=repr)
def test_cover_functions_reject_non_int_indices(index):
    cover = {0: 0, 1: index, 2: 0}
    message = f"vicinity index {index!r} for point 1 is not a non-negative int"
    with pytest.raises(ValidationError, match=message):
        chain_exists(s1(), cover, 0, 2)


@pytest.mark.parametrize("check", [chain_exists, verify_witness])
@pytest.mark.parametrize(
    "index, message",
    [
        (-1, "vicinity index -1 for point 1 is not a non-negative int"),
        (True, "vicinity index True for point 1 is not a non-negative int"),
        ("1", "vicinity index '1' for point 1 is not a non-negative int"),
        (2, r"index 2 out of range for point 1 \(strong system of length 2\)"),
    ],
    ids=repr,
)
def test_chain_checks_word_bad_indices(check, index, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        check(s1(), {0: 0, 1: index, 2: 0}, 0, 2)


def weak_three():
    return make_space({0: [{0}], 1: [{1}, {1, 2}], 2: [{2, 0}, {2}]}, WEAK)


def test_chain_checks_read_a_weak_index_past_the_end_as_vicinity_zero():
    weak = weak_three()
    assert chain_exists(weak, {0: 0, 1: 1, 2: 5}, 0, 1) == [0, 2, 1]
    assert chain_exists(weak, {0: 0, 1: 5, 2: 1}, 0, 1) is None
    assert verify_witness(weak, {0: 0, 1: 5, 2: 1}, 0, 1)
    assert not verify_witness(weak, {0: 0, 1: 1, 2: 5}, 0, 1)


# Covers with several faults: a missing point is reported first, then a
# stray key, then the bad index of the least point that has one.
SEVERAL_FAULTS = {
    "out-of-range-then-missing": (s1, {0: 0, 1: 2}, r"cover missing points \[2\]"),
    "out-of-range-and-stray": (s1, {0: 0, 1: 2, 2: 0, 3: 0}, r"cover mentions unknown points \[3\]"),
    "padded-and-stray": (weak_three, {0: 0, 1: 5, 2: 1, 7: 0}, r"cover mentions unknown points \[7\]"),
    "two-bad-indices": (s1, {0: 0, 1: 2, 2: -1}, r"index 2 out of range for point 1 \(strong system of length 2\)"),
    "padded-then-bad": (weak_three, {0: 3, 1: 5, 2: -1}, r"vicinity index -1 for point 2 is not a non-negative int"),
}


@pytest.mark.parametrize("check", [chain_exists, verify_witness])
@pytest.mark.parametrize("case", sorted(SEVERAL_FAULTS))
def test_a_cover_with_several_faults_reports_the_first_in_order(check, case):
    space, cover, message = SEVERAL_FAULTS[case]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        check(space(), cover, 0, 2)


class DictSubclass(dict):
    pass


class PlainMapping(Mapping):
    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


@pytest.mark.parametrize("kind", [MappingProxyType, DictSubclass, PlainMapping], ids=lambda kind: kind.__name__)
def test_a_cover_of_any_mapping_type_gives_the_dict_chain(kind):
    coded = build_coded_space(EnumerationOracle({3: 1, 5: 2}, 8), CodedSpaceConfig(0, 2, 300, 8))
    tolerant = tolerant_cover(coded.space, coded.pi)
    cases = [
        (s1(), C1, 0, 2),
        (s1(), C2, 0, 2),
        (weak_three(), {0: 0, 1: 1, 2: 5}, 0, 1),
        (weak_three(), {0: 0, 1: 5, 2: 1}, 0, 1),
        (coded.space, tolerant, 0, 2),
        (coded.space, {p: 0 for p in coded.space.points}, 0, 2),
    ]
    for space, cover, a, b in cases:
        assert chain_exists(space, kind(cover), a, b) == chain_exists(space, cover, a, b)
        assert verify_witness(space, kind(cover), a, b) == verify_witness(space, cover, a, b)
    witnessed = [chain_exists(space, cover, a, b) is None for space, cover, a, b in cases]
    assert witnessed == [True, False, False, True, True, False]


def test_resolve_choice_rejects_a_negative_index():
    with pytest.raises(ValidationError, match="vicinity index -1 for point 0"):
        resolve_choice(s1().systems[0], -1)


def test_is_connected_rejects_an_unknown_engine():
    with pytest.raises(ValidationError, match="unknown engine 'fast'"):
        is_connected(s1(), 0, 2, engine="fast")


def three_vicinity_ring(n):
    """Point p has vicinities {p}, {p, p+1 mod n} and {p, p+2 mod n}: 3**n covers."""
    return make_space({p: [{p}, {p, (p + 1) % n}, {p, (p + 2) % n}] for p in range(n)})


def test_brute_budget_check_stops_at_the_budget():
    # 3**10000 has 4,772 digits; multiplying it out and printing it fails.
    with pytest.raises(BudgetExceededError, match="budget") as info:
        is_connected(three_vicinity_ring(10_000), 0, 1)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("budget", [2.5, True, "5", None], ids=repr)
@pytest.mark.parametrize("engine", ["brute", "pruned"])
def test_budget_must_be_an_int(engine, budget):
    with pytest.raises(ValidationError, match="max_covers must be non-negative"):
        is_connected(s1(), 0, 2, engine=engine, max_covers=budget)


def pruned_options(space):
    """Each point's option masks, one per listed vicinity in order."""
    return [[sum(1 << m for m in vic) for vic in space.systems[p].vicinities] for p in space.points]


def test_compiled_search_answers_several_queries_unchanged():
    # One object, queried (a, b), (b, a), (a, b), a zero budget, then
    # (a, b) again, answers as a fresh object does and keeps its state.
    repeated = 0
    for seed in range(200):
        rng = random.Random(90_000 + seed)
        space = random_space(rng, max_points=9, max_vics=3)
        a, b = rng.sample(range(space.num_points), 2)
        search = _PrunedSearch(space)
        state = copy.deepcopy(vars(search))
        assert set(state) == {"choices", "watchers"}
        for x, y in [(a, b), (b, a), (a, b)]:
            expected = _PrunedSearch(space).run(x, y, DEFAULT_MAX_COVERS)
            assert search.run(x, y, DEFAULT_MAX_COVERS) == expected, seed
            assert expected == is_connected(space, x, y, engine="pruned"), seed
        with pytest.raises(BudgetExceededError, match="node budget of 0"):
            search.run(a, b, 0)
        assert search.run(a, b, DEFAULT_MAX_COVERS) == expected, seed
        assert vars(search) == state, seed
        assert search.choices == pruned_options(space), seed
        repeated += any(len(set(masks)) < len(masks) for masks in search.choices)
    assert repeated > 10


def test_a_pruned_witness_names_the_least_index_of_a_repeated_set():
    # Point 1's options are {0, 1} and {1}, each listed more than once; the
    # witness takes {1} at index 2, its first listing, not at index 4.
    space = make_space({0: [{0}], 1: [{0, 1}, {0, 1}, {1}, {0, 1}, {1}], 2: [{2}]}, mode=WEAK)
    assert pruned_options(space) == [[1], [3, 3, 2, 3, 2], [4]]
    for a, b in [(0, 1), (1, 0)]:
        for engine in ("brute", "pruned"):
            verdict = is_connected(space, a, b, engine=engine)
            assert verdict.witness == {0: 0, 1: 2, 2: 0}, (a, b, engine)
            assert verify_witness(space, verdict.witness, a, b)


def test_a_weak_set_repeated_100000_times_is_100000_equal_pruned_options():
    space = make_space({0: [{0}], 1: [{0, 1}] * 100_000, 2: [{2}, {1, 2}]}, mode=WEAK)
    search = _PrunedSearch(space)
    assert search.choices == [[1], [3] * 100_000, [4, 6]]
    assert is_connected(space, 0, 1, engine="pruned", max_covers=1).connected
    verdict = is_connected(space, 0, 2, engine="pruned", max_covers=1)
    assert verdict.witness == {0: 0, 1: 0, 2: 0}


def test_pruned_verdicts_and_witnesses_on_3000_random_spaces_are_pinned():
    # Every ordered pair of each space, a == b included; the digest pins
    # the verdicts and every witness index, weak repeats included.
    rng = random.Random(28_000)
    digest = hashlib.sha256()
    pairs = connected = repeated = 0
    for _ in range(3_000):
        space = random_space(rng, max_vics=4)
        repeated += any(len(set(s.vicinities)) < len(s.vicinities) for s in space.systems.values())
        for a, b in itertools.product(space.points, repeat=2):
            verdict = is_connected(space, a, b, engine="pruned")
            pairs += 1
            connected += verdict.connected
            digest.update(repr(verdict.witness).encode() + b"\n")
    assert (pairs, connected, repeated) == (55_089, 40_779, 523)
    assert digest.hexdigest() == "b09103996ab05ba445de8b7900f3ef1affc4e87df3ef0436ca54859fc093a6ef"


def coded_spaces(count):
    """Spaces of seeded valid coding configs: nested chains of vicinities."""
    rng = random.Random(27_100)
    while count:
        t = rng.randint(1, 5)
        a = rng.randint(0, 6)
        config = CodedSpaceConfig(a, a + rng.randint(1, 8), rng.randint(10, 120), t)
        oracle = EnumerationOracle({x: rng.randint(0, t) for x in rng.sample(range(10), rng.randint(0, 3))}, t)
        if not validate_config(oracle, config):
            count -= 1
            yield build_coded_space(oracle, config).space


def test_watch_lists_hold_the_points_with_an_option_containing_each_member():
    # Bit x of watchers[m] is set iff m lies in some option of x; repeated
    # vicinities, collapsed by the compile, must not change that.
    spaces = [random_space(random.Random(27_000 + seed), max_points=9, max_vics=4) for seed in range(300)]
    spaces += coded_spaces(30)
    repeated = nested = 0
    for space in spaces:
        reference = [0] * space.num_points
        for x in space.points:
            vicinities = space.systems[x].vicinities
            repeated += len(set(vicinities)) < len(vicinities)
            nested += len(vicinities) > 2 and all(v > w for v, w in zip(vicinities, vicinities[1:]))
            for vic in vicinities:
                for m in vic:
                    reference[m] |= 1 << x
        assert _PrunedSearch(space).watchers == reference
    assert repeated > 20 and nested > 100


def test_brute_names_the_first_index_of_each_distinct_vicinity():
    # Point 0 lists {0} again at index 2 and point 1 lists {1} twice: brute
    # counts 2 covers and names each set at its first listing.  The seeded
    # spaces check brute against the independent first-witness oracle, on
    # every ordered pair of each space whose covers the oracle can walk.
    space = make_space({0: [{0}, {0, 1}, {0}], 1: [{1}, {1}]}, mode=WEAK)
    for a, b in [(0, 1), (1, 0)]:
        assert brute_at_its_budget(space, a, b).witness == first_witness(space, a, b) == {0: 0, 1: 0}
    repeated = walked = 0
    for seed in range(300):
        space = random_space(random.Random(95_000 + seed), max_points=9, max_vics=4)
        count = cover_count(space)
        if count > 256:  # the budget boundary only
            with pytest.raises(BudgetExceededError, match=f"budget of {count - 1}$"):
                is_connected(space, 0, 1, max_covers=count - 1)
            continue
        repeated += sum(len(s.vicinities) - len(set(s.vicinities)) for s in space.systems.values())
        for a, b in itertools.permutations(space.points, 2):
            walked += 1
            assert brute_at_its_budget(space, a, b).witness == first_witness(space, a, b), (seed, a, b)
    assert repeated > 0 and walked > 4_000


def random_chosen_sets(rng):
    """Chosen sets of a random cover, as the objects a space would hold.

    A group of points may share one set object, and a point inside
    another point's set may hold an equal but distinct copy of it.
    """
    n = rng.randint(1, 12)
    chosen = [None] * n
    for _ in range(rng.randint(0, 2)):
        group = [p for p in range(n) if rng.random() < 0.3 and chosen[p] is None]
        shared = frozenset(group + [q for q in range(n) if rng.random() < 0.15])
        for p in group:
            chosen[p] = shared
    for p in range(n):
        if chosen[p] is not None:
            continue
        earlier = [v for v in chosen[:p] if v is not None and p in v]
        if earlier and rng.random() < 0.3:
            chosen[p] = frozenset(list(rng.choice(earlier)))
        else:
            members = [p] + [q for q in range(n) if rng.random() < 0.2]
            chosen[p] = frozenset(members)
    return chosen


def test_set_chains_match_the_mask_scan():
    # _chain must return _path's chain, whether points share set objects
    # or hold equal copies.
    shared = copies = 0
    for seed in range(3_000):
        rng = random.Random(770_000 + seed)
        chosen = random_chosen_sets(rng)
        n = len(chosen)
        shared += len({id(v) for v in chosen}) < n
        copies += len({id(v) for v in chosen}) > len({frozenset(v) for v in chosen})
        masks = [sum(1 << m for m in v) for v in chosen]
        space = FiniteVSpace(n, {p: VicinitySystem(p, (v,), WEAK) for p, v in enumerate(chosen)}, WEAK)
        cover = {p: 0 for p in range(n)}
        for a in range(n):
            b = rng.randrange(n)
            expected = _path(masks, a, b)
            assert _chain(chosen, a, b) == expected, seed
            assert chain_exists(space, cover, a, b) == expected, seed
    assert shared > 500 and copies > 500


def singleton_heavy_chosen_sets(rng):
    """Chosen sets of a random cover in which most points choose {p}, as
    in a coded witness: a few points choose a wide set, a set nested in
    one chosen before, or a pair, and a group of points may share one set.
    """
    n = rng.randint(3, 40)
    chosen = [frozenset({p}) for p in range(n)]
    # Each step gives at most `most` points a wider set, fewer than n/2 in all.
    most = max(1, min(3, (n - 1) // 2))
    for _ in range(rng.randint(1, max(1, (n - 1) // 6))):
        p, kind = rng.randrange(n), rng.random()
        wider = [v for v in chosen if len(v) > 2]
        if kind < 0.3:
            chosen[p] = frozenset([p] + [q for q in range(n) if rng.random() < 0.5])
        elif kind < 0.5 and wider:
            outer = sorted(rng.choice(wider))
            chosen[p] = frozenset([p, *rng.sample(outer, rng.randint(1, len(outer) - 1))])
        elif kind < 0.7 and most > 1:
            group = rng.sample(range(n), rng.randint(2, most))
            shared = frozenset(group + [rng.randrange(n)])
            for q in group:
                chosen[q] = shared
        else:
            chosen[p] = frozenset({p, rng.randrange(n)})
    return chosen


def test_chains_over_mostly_lone_sets_match_the_mask_scan():
    # _chain adds a point whose set is {p} without indexing it; the chains
    # must still be _path's.  chain_exists reads each set from a weak
    # system, at index 0 or at a padding index past the end.
    lone = points = shared = wide = padded = missed = linked = 0
    for seed in range(2_000):
        rng = random.Random(990_000 + seed)
        chosen = singleton_heavy_chosen_sets(rng)
        n = len(chosen)
        singles = sum(len(v) == 1 for v in chosen)
        assert 2 * singles > n, seed
        lone, points = lone + singles, points + n
        shared += len({id(v) for v in chosen}) < n
        wide += max(map(len, chosen)) > n // 3 + 1
        systems, cover = {}, {}
        for p, vic in enumerate(chosen):
            decoys = (frozenset({p, rng.randrange(n)}),) * rng.randint(0, 2)
            systems[p] = VicinitySystem(p, (vic, *decoys), WEAK)
            cover[p] = 0 if rng.random() < 0.7 else len(decoys) + 1 + rng.randrange(3)
            padded += cover[p] > len(decoys)
        space = FiniteVSpace(n, systems, WEAK)
        masks = [sum(1 << m for m in v) for v in chosen]
        for a in range(n):
            b = rng.randrange(n)
            expected = _path(masks, a, b)
            missed += expected is None
            linked += expected is not None and len(expected) > 2
            assert _chain(chosen, a, b) == expected, seed
            assert chain_exists(space, cover, a, b) == expected, seed
    assert lone > 0.8 * points and shared > 200 and wide > 200 and padded > 5_000
    assert missed > 5_000 and linked > 3_000


def test_mask_closure_matches_the_reference_search():
    # brute's per-cover check against a DFS over the overlap graph, on
    # masks that need not hold their owner and may be empty.
    reached = 0
    for seed in range(20_000):
        rng = random.Random(880_000 + seed)
        width, n = rng.randint(1, 10), rng.randint(2, 10)
        density = rng.uniform(0.05, 0.5)
        masks = [sum(1 << m for m in range(width) if rng.random() < density) for _ in range(n)]
        a, b = rng.sample(range(n), 2)
        expected = _reaches(masks, a, b)
        assert _sets_reachable(masks, a, b) == expected, seed
        reached += expected
    assert 5_000 < reached < 15_000


def chain_space(n):
    """Point p has options {p, p+1} and {p}; the last point only {p}."""
    return make_space({p: [{p, p + 1}, {p}] if p + 1 < n else [{p}] for p in range(n)})


def test_a_brute_budget_error_reads_no_point_past_the_budget():
    # 2**25 covers pass the default budget at point 24; compiling all
    # 40,000 points first peaked at about 214 MB, reading 25 at 8 KB.
    space = chain_space(40_000)
    assert space.violations == ()  # validated, and the result kept, before the measure
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"the covers exceed the budget of {DEFAULT_MAX_COVERS}$"):
            is_connected(space, 0, 39_999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_10000_point_witness_checks_in_linear_time():
    # A scan of all point pairs makes 10**8 mask tests here; the cap is generous.
    n = 10_000
    space = chain_space(n)
    verdict = is_connected(space, 0, n - 1, engine="pruned")
    assert not verdict.connected
    start = time.perf_counter()
    assert verify_witness(space, verdict.witness, 0, n - 1)
    assert chain_exists(space, {p: 0 for p in range(n)}, 0, n - 1) == list(range(n))
    # Every point but the last holds 0: that member is expanded once.
    star = make_space({p: [{0, p}] if p < n - 1 else [{p}] for p in range(n)})
    assert verify_witness(star, {p: 0 for p in range(n)}, 1, n - 1)
    assert time.perf_counter() - start < 5
