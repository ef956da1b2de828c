import random
import time
from pathlib import Path

import pytest

import vspace.connectivity as connectivity
import vspace.tolerance as tolerance
from vspace import (
    HOLDS,
    NOT_APPLICABLE,
    REFUTED,
    STRONG,
    WEAK,
    TheoremOutcome,
    ValidationError,
    chain_exists,
    check_nonconn,
    check_nontol,
    induced_space,
    is_connected,
    make_space,
    tolerance_report,
    tolerant_cover,
    verify_witness,
)
from vspace.files import parse_space

from _helpers import double_loop_tolerant, least_constant_indices, random_labeling, random_space

PI = {0: "A", 1: "A", 2: "B"}
FIXTURES = Path(__file__).parent / "fixtures"


def s1():
    return make_space({0: [{0, 1}], 1: [{1}, {1, 2}], 2: [{2}]})


def s2():
    return make_space({0: [{0, 1}], 1: [{0, 1, 2}], 2: [{2}]})


def test_tolerance_report_s2():
    report = tolerance_report(s2(), PI)
    assert report.violations == frozenset({1})
    assert report.tolerant_indices == {0: 0, 2: 0}


def test_tolerance_report_s1():
    report = tolerance_report(s1(), PI)
    assert report.violations == frozenset()
    assert report.tolerant_indices == {0: 0, 1: 0, 2: 0}


def test_tolerance_report_constant_labeling():
    report = tolerance_report(s2(), {0: "A", 1: "A", 2: "A"})
    assert report.violations == frozenset()
    assert all(i == 0 for i in report.tolerant_indices.values())


def test_report_partitions_the_point_set():
    report = tolerance_report(s2(), PI)
    keys = set(report.tolerant_indices) | set(report.violations)
    assert keys == set(range(3))
    assert not set(report.tolerant_indices) & set(report.violations)


def test_check_nontol_holds_on_s2():
    outcome = check_nontol(s2(), PI, 0, 2)
    assert outcome.status == HOLDS
    assert outcome.violations == frozenset({1})


def test_check_nontol_checks_the_labeling_once(monkeypatch):
    checks = []
    original = tolerance.require_total_labeling
    monkeypatch.setattr(tolerance, "require_total_labeling", lambda *args: checks.append(args) or original(*args))
    assert check_nontol(s2(), PI, 0, 2).status == HOLDS
    assert len(checks) == 1


@pytest.mark.parametrize("engine", ["brute", "pruned"])
@pytest.mark.parametrize("space, status", [(s2, HOLDS), (s1, NOT_APPLICABLE)], ids=["connected", "not-connected"])
def test_check_nontol_checks_search_space_and_endpoints_once(monkeypatch, space, status, engine):
    # A searched answer makes each check once, in check_nontol or in the
    # connectivity module it searches with.
    checks = []
    for module in (tolerance, connectivity):
        for name in ("require_search", "require_valid_space", "require_points"):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, original=original: checks.append(name) or original(*args))
    assert check_nontol(space(), PI, 0, 2, engine=engine).status == status
    assert sorted(checks) == ["require_points", "require_search", "require_valid_space"]


@pytest.mark.parametrize("engine", ["brute", "pruned"])
def test_answers_without_data_are_the_shared_ones(engine):
    assert check_nontol(s1(), PI, 0, 1, engine=engine) is tolerance._EQUAL_LABELS
    assert check_nontol(s1(), PI, 0, 2, engine=engine) is tolerance._NOT_CONNECTED
    assert is_connected(s2(), 0, 2, engine=engine) is connectivity._CONNECTED
    assert is_connected(s1(), 1, 1, engine=engine) is connectivity._CONNECTED


def test_check_nontol_not_applicable_when_disconnected():
    outcome = check_nontol(s1(), PI, 0, 2)
    assert outcome.status == NOT_APPLICABLE
    assert outcome.reason == "not connected"


# s1.vs is tolerant, labels its endpoints apart and does not connect them,
# so each theorem is refuted only when its decision is patched to lie.
def test_check_nontol_is_refuted_by_a_connected_answer_on_a_tolerant_space(monkeypatch):
    doc = parse_space((FIXTURES / "s1.vs").read_text())
    monkeypatch.setattr(tolerance, "_decide", lambda *args: connectivity._CONNECTED)
    assert check_nontol(doc.space, doc.labels, doc.a, doc.b) == TheoremOutcome(REFUTED)


def test_check_nonconn_is_refuted_by_a_chain_across_the_labels(monkeypatch):
    doc = parse_space((FIXTURES / "s1.vs").read_text())
    monkeypatch.setattr(tolerance, "chain_exists", lambda *args: [0, 2])
    assert check_nonconn(doc.space.points, doc.labels, doc.a, doc.b) == TheoremOutcome(REFUTED)


def test_check_nontol_not_applicable_on_equal_labels():
    outcome = check_nontol(s1(), PI, 0, 1)
    assert outcome.status == NOT_APPLICABLE
    assert outcome.reason == "equal labels"


def test_tolerant_cover_s1():
    assert tolerant_cover(s1(), PI) == {0: 0, 1: 0, 2: 0}


def test_tolerant_cover_constant_labeling_is_all_zero():
    cover = tolerant_cover(s2(), {0: "A", 1: "A", 2: "A"})
    assert cover == {0: 0, 1: 0, 2: 0}


def test_tolerant_cover_rejects_violating_labeling():
    with pytest.raises(ValidationError):
        tolerant_cover(s2(), PI)


def test_tolerant_cover_picks_least_constant_index():
    space = make_space({0: [{0, 2}, {0}], 1: [{1}], 2: [{2}]})
    cover = tolerant_cover(space, PI)
    assert cover[0] == 1


def test_check_nonconn_example():
    outcome = check_nonconn(range(3), PI, 0, 2)
    assert outcome.status == HOLDS
    assert outcome.witness == {0: 0, 1: 0, 2: 0}


def test_check_nonconn_injective_labeling():
    pi = {p: f"L{p}" for p in range(6)}
    assert check_nonconn(range(6), pi, 0, 5).status == HOLDS


def test_check_nonconn_on_20000_alternating_labels_is_fast():
    # Each point's vicinity is its whole label class, so a scan of all
    # point pairs does 2 * 10**8 mask tests; the cap is generous.
    n = 20_000
    pi = {p: "AB"[p % 2] for p in range(n)}
    start = time.perf_counter()
    outcome = check_nonconn(range(n), pi, 0, 1)
    assert time.perf_counter() - start < 5
    assert outcome.status == HOLDS and outcome.witness == {p: 0 for p in range(n)}


def test_check_nonconn_rejects_a_labeling_that_is_not_a_mapping():
    with pytest.raises(ValidationError, match="^labeling must be a mapping from points to labels, got a tuple$"):
        check_nonconn(range(3), ("A", "A", "B"), 0, 2)


def test_check_nonconn_rejects_equal_labels():
    with pytest.raises(ValidationError):
        check_nonconn(range(3), PI, 0, 1)


# Chains under the one cover of PI's induced space: 0 and 1 share the
# class {0, 1}, and 2 is alone in {2}.
INDUCED_CHAINS = [(0, 1, [0, 1]), (1, 0, [1, 0]), (0, 2, None), (2, 0, None), (1, 2, None), (2, 2, [2])]


@pytest.mark.parametrize("a, b, chain", INDUCED_CHAINS, ids=[f"{a}-{b}" for a, b, _ in INDUCED_CHAINS])
def test_the_induced_cover_chains_exactly_within_a_label_class(a, b, chain):
    assert chain_exists(induced_space(range(3), PI), {p: 0 for p in range(3)}, a, b) == chain


def test_one_label_class_chains_any_two_points_in_one_step():
    pi = {p: "A" for p in range(3)}
    assert chain_exists(induced_space(range(3), pi), {p: 0 for p in range(3)}, 0, 2) == [0, 2]


def test_check_nonconn_holds_exactly_across_label_classes():
    # Under the induced space's one cover, a chain stays inside its
    # endpoints' label class, and none joins two classes.
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 10)
        pi = random_labeling(rng, n)
        cover = {p: 0 for p in range(n)}
        space = induced_space(range(n), pi)
        for a in range(n):
            for b in range(n):
                chain = chain_exists(space, cover, a, b)
                if pi[a] == pi[b]:
                    assert chain[0] == a and chain[-1] == b
                    assert {pi[p] for p in chain} == {pi[a]}
                else:
                    assert chain is None
                    assert check_nonconn(range(n), pi, a, b) == TheoremOutcome(HOLDS, witness=cover)


def test_tolerance_report_matches_double_loop():
    rng = random.Random(11)
    for _ in range(150):
        space = random_space(rng)
        pi = random_labeling(rng, space.num_points)
        report = tolerance_report(space, pi)
        assert set(report.violations) == double_loop_tolerant(space, pi)


def test_tolerant_indices_are_the_least_constant_indices():
    rng = random.Random(17)
    modes = {WEAK: 0, STRONG: 0}
    for _ in range(1_200):
        space = random_space(rng)
        pi = random_labeling(rng, space.num_points)
        report = tolerance_report(space, pi)
        expected = least_constant_indices(space, pi)
        assert report.tolerant_indices == expected
        assert report.violations == frozenset(space.points) - expected.keys()
        modes[space.mode] += 1
    assert min(modes.values()) > 200


@pytest.mark.parametrize(
    "pi, message",
    [
        ({1: "A"}, r"labeling undefined on points \[0, 2\]"),
        ({0: "A", 1: 1, 2: "B"}, "label of point 1 must be a non-empty string"),
        ({0: "A", 1: "", 2: "B"}, "label of point 1 must be a non-empty string"),
        ([0, 1, 2], "labeling must be a mapping from points to labels, got a list"),
        (["A", "A", "B"], "labeling must be a mapping from points to labels, got a list"),
    ],
    ids=["missing", "non-str", "empty", "list-of-points", "list-of-tokens"],
)
def test_tolerance_report_rejects_a_partial_or_non_str_labeling(pi, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        tolerance_report(s2(), pi)


def test_tolerant_cover_witnesses_nonconnectedness():
    # Whenever tolerance holds and two points carry different labels, the
    # cover of least constant vicinities admits no chain between them.
    rng = random.Random(13)
    checked = 0
    for _ in range(400):
        space = random_space(rng)
        pi = random_labeling(rng, space.num_points)
        if tolerance_report(space, pi).violations:
            continue
        cover = tolerant_cover(space, pi)
        for a in space.points:
            for b in space.points:
                if pi[a] != pi[b]:
                    assert verify_witness(space, cover, a, b)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("b", [2.0, True], ids=repr)
@pytest.mark.parametrize("engine", ["brute", "pruned"])
def test_check_nontol_rejects_non_int_endpoints(engine, b):
    with pytest.raises(ValidationError, match="are not points 0..2"):
        check_nontol(s2(), PI, 0, b, engine=engine)


@pytest.mark.parametrize("b", [2.0, True], ids=repr)
def test_check_nonconn_rejects_non_int_endpoints(b):
    with pytest.raises(ValidationError, match="are not points 0..2"):
        check_nonconn(range(3), PI, 0, b)


@pytest.mark.parametrize("a, b", [(0, 1), (0, 2)], ids=["equal-labels", "different-labels"])
@pytest.mark.parametrize(
    "engine, budget, message",
    [
        ("brute", -1, "max_covers must be non-negative"),
        ("nope", -1, "max_covers must be non-negative"),
        ("brute", 2.5, "max_covers must be non-negative"),
        ("pruned", True, "max_covers must be non-negative"),
        ("brute", "5", "max_covers must be non-negative"),
        ("nope", 5, "unknown engine 'nope'"),
    ],
)
def test_check_nontol_checks_engine_and_budget_before_the_labels(a, b, engine, budget, message):
    with pytest.raises(ValidationError, match=message):
        check_nontol(s2(), PI, a, b, engine=engine, max_covers=budget)
