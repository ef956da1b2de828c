import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vspace.coding as coding
import vspace.files as files
from vspace import (
    STRONG,
    WEAK,
    EnumerationOracle,
    FiniteVSpace,
    ParseError,
    ValidationError,
    VicinitySystem,
    make_space,
)
from vspace.files import (
    SpaceDocument,
    parse_cover,
    parse_oracle,
    parse_space,
    serialize_cover,
    serialize_oracle,
    serialize_space,
)

FIXTURES = Path(__file__).parent / "fixtures"

CANONICAL = [
    ("s1.vs", parse_space, serialize_space),
    ("s2.vs", parse_space, serialize_space),
    ("weak1.vs", parse_space, serialize_space),
    ("unlabeled.vs", parse_space, serialize_space),
    ("invalid_owner.vs", parse_space, serialize_space),
    ("invalid_dup.vs", parse_space, serialize_space),
    ("coded_small.vs", parse_space, serialize_space),
    ("coded_small_pi.vs", parse_space, serialize_space),
    ("c1.cov", parse_cover, serialize_cover),
    ("c2.cov", parse_cover, serialize_cover),
    ("bigindex.cov", parse_cover, serialize_cover),
    ("coded_witness.cov", parse_cover, serialize_cover),
    ("coded_nonwitness.cov", parse_cover, serialize_cover),
    ("k1.orc", parse_oracle, serialize_oracle),
    ("empty.orc", parse_oracle, serialize_oracle),
    ("endpoint_enum.orc", parse_oracle, serialize_oracle),
]


@pytest.mark.parametrize("name,parse,serialize", CANONICAL, ids=[c[0] for c in CANONICAL])
def test_canonical_files_reserialize_byte_identically(name, parse, serialize):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert serialize(parse(text)) == text


def test_parse_space_fields():
    doc = parse_space((FIXTURES / "s1.vs").read_text())
    assert doc.space.num_points == 3
    assert doc.space.mode == STRONG
    assert doc.space.systems[1].vicinities == (frozenset({1}), frozenset({1, 2}))
    assert doc.labels == {0: "A", 1: "A", 2: "B"}
    assert (doc.a, doc.b) == (0, 2)


def test_parse_weak_space():
    doc = parse_space((FIXTURES / "weak1.vs").read_text())
    assert doc.space.mode == WEAK
    assert doc.space.systems[1].vicinities == (frozenset({1}), frozenset({1}))


def test_comments_and_blank_lines_are_ignored():
    text = "vspace v1\n# a comment\nmode strong\n\npoints 1\nvic 0: 0  # trailing\n"
    doc = parse_space(text)
    assert doc.space.systems[0].vicinities == (frozenset({0}),)


def test_tabs_space_runs_and_crlf_parse_like_canonical_text():
    canonical = (FIXTURES / "s1.vs").read_text()
    loose = canonical.replace(" ", " \t ").replace("\n", "\r\n")
    assert serialize_space(parse_space(loose)) == canonical


def test_space_roundtrip_through_document():
    doc = parse_space((FIXTURES / "s1.vs").read_text())
    assert parse_space(serialize_space(doc)) == doc


def test_empty_vicinity_line_is_representable():
    doc = parse_space("vspace v1\nmode strong\npoints 1\nvic 0:\n")
    assert doc.space.systems[0].vicinities == (frozenset(),)
    assert serialize_space(doc) == "vspace v1\nmode strong\npoints 1\nvic 0:\n"


def test_out_of_range_members_parse_but_points_do_not():
    # Stray members are a validation concern, not a parse error.
    doc = parse_space("vspace v1\nmode strong\npoints 2\nvic 0: 0 9\nvic 1: 1\n")
    assert 9 in doc.space.systems[0].vicinities[0]
    with pytest.raises(ParseError):
        parse_space("vspace v1\nmode strong\npoints 2\nvic 5: 5\n")


def test_point_count_is_bounded(monkeypatch):
    monkeypatch.setattr(files, "MAX_POINTS", 4)
    assert parse_space("vspace v1\nmode strong\npoints 4\n").space.num_points == 4
    with pytest.raises(ParseError, match="point count 5 exceeds the limit 4"):
        parse_space("vspace v1\nmode strong\npoints 5\n")


def test_every_buildable_coded_space_parses():
    # code-build writes point_bound + 1 points.
    assert coding.MAX_POINT_BOUND + 1 <= files.MAX_POINTS


def test_bad_header_rejected():
    with pytest.raises(ParseError):
        parse_space((FIXTURES / "bad_header.vs").read_text())


def test_bad_mode_rejected():
    with pytest.raises(ParseError):
        parse_space("vspace v1\nmode fuzzy\npoints 0\n")


@pytest.mark.parametrize("parse,text,line", [
    (parse_space, "vspace v1\nmodes strong\npoints 1\n", 2),
    (parse_space, "vspace v1\nmode strong\n\npoints 1 2\n", 4),
    (parse_oracle, "oracle v1\nenum 1 0\n", 2),
])
def test_misplaced_header_field_names_its_line(parse, text, line):
    with pytest.raises(ParseError, match=f"^line {line}: expected '"):
        parse(text)


def test_bad_label_token_rejected():
    with pytest.raises(ParseError):
        parse_space("vspace v1\nmode strong\npoints 1\nvic 0: 0\nlabel 0 a-b\n")


def test_duplicate_label_rejected():
    with pytest.raises(ParseError):
        parse_space("vspace v1\nmode strong\npoints 1\nvic 0: 0\nlabel 0 A\nlabel 0 B\n")


def test_cover_duplicate_point_rejected():
    with pytest.raises(ParseError):
        parse_cover((FIXTURES / "dup_choose.cov").read_text())


def test_cover_points_must_ascend():
    with pytest.raises(ParseError):
        parse_cover("cover v1\nchoose 1 0\nchoose 0 0\n")


# One numeral in each place the three formats read a number.
NUMERAL_SLOTS = {
    "point count": (parse_space, "vspace v1\nmode strong\npoints {}\n"),
    "vic member": (parse_space, "vspace v1\nmode strong\npoints 2\nvic 0: 0 {}\n"),
    "cover point": (parse_cover, "cover v1\nchoose {} 0\n"),
    "cover index": (parse_cover, "cover v1\nchoose 0 {}\n"),
    "oracle bound": (parse_oracle, "oracle v1\nstages {}\n"),
    "oracle value": (parse_oracle, "oracle v1\nstages 20\nenum {} 1\n"),
    "oracle stage": (parse_oracle, "oracle v1\nstages 20\nenum 1 {}\n"),
}


@pytest.mark.parametrize("numeral", ["1_1", "+3", "\u0661", "-1"])
@pytest.mark.parametrize("slot", sorted(NUMERAL_SLOTS))
def test_numbers_are_ascii_decimal_digits_only(slot, numeral):
    parse, template = NUMERAL_SLOTS[slot]
    parse(template.format("1"))
    with pytest.raises(ParseError, match=r"^line \d+: "):
        parse(template.format(numeral))


def test_numeral_past_the_interpreters_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    with pytest.raises(ParseError, match="line 2: index has too many digits"):
        parse_cover("cover v1\nchoose 0 " + "1" * (limit + 1) + "\n")


def test_oracle_values_must_ascend():
    with pytest.raises(ParseError):
        parse_oracle((FIXTURES / "unsorted.orc").read_text())


def test_oracle_stage_beyond_bound_rejected():
    with pytest.raises(ParseError):
        parse_oracle("oracle v1\nstages 2\nenum 1 3\n")


def test_oracle_parse_fields():
    oracle = parse_oracle((FIXTURES / "k1.orc").read_text())
    assert oracle.entries == {3: 1}
    assert oracle.stage_bound == 3


def test_serialize_labels_ascending():
    doc = parse_space((FIXTURES / "s1.vs").read_text())
    shuffled = SpaceDocument(doc.space, {2: "B", 0: "A", 1: "A"}, doc.a, doc.b)
    assert serialize_space(shuffled) == (FIXTURES / "s1.vs").read_text()


# ------------------------------------------------------------------ fuzzing

HEADERS = ("vspace v1", "cover v1", "oracle v1")
TOKENS = (
    "vspace", "cover", "oracle", "v1", "mode", "strong", "weak", "points", "vic",
    "label", "a", "b", "choose", "stages", "enum", "0", "1", "2", "3", "0:", "1:",
    "9:", ":", "-1", "12345678901234567890", "1_0", "٣", "A", "x y", "#", "\t",
    " ", "\r", "\n", "\x00", "é",
)
PARSERS = (parse_space, parse_cover, parse_oracle)

token_text = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)


@settings(max_examples=300)
@given(st.one_of(st.text(), token_text), st.sampled_from(("",) + HEADERS))
def test_parsers_raise_only_parse_error(body, header):
    text = f"{header}\n{body}" if header else body
    for parse in PARSERS:
        try:
            parse(text)
        except ParseError:
            pass


@st.composite
def space_documents(draw):
    n = draw(st.integers(0, 6))
    mode = draw(st.sampled_from((STRONG, WEAK)))
    members = st.frozensets(st.integers(0, 8), max_size=4)
    systems = {p: VicinitySystem(p, tuple(draw(st.lists(members, max_size=3))), mode) for p in range(n)}
    point = st.integers(0, n - 1) if n else st.none()
    labels = draw(st.dictionaries(point, st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True))) if n else {}
    return SpaceDocument(
        FiniteVSpace(n, systems, mode), labels, draw(st.none() | point), draw(st.none() | point)
    )


@given(space_documents())
def test_parse_inverts_serialize_on_space_documents(doc):
    text = serialize_space(doc)
    assert parse_space(text) == doc
    assert serialize_space(parse_space(text)) == text


def test_serialize_refuses_labels_and_endpoints_outside_the_space():
    space = make_space({0: [{0}]})
    for doc in (
        SpaceDocument(space, {5: "A"}),
        SpaceDocument(space, {}, 7),
        SpaceDocument(space, {}, 0, 1),
    ):
        with pytest.raises(ValidationError, match="not points 0..0"):
            serialize_space(doc)


point_keys = st.one_of(st.integers(-2, 4), st.booleans(), st.floats(0, 2), st.text(max_size=1))


@example({0: "x#y"}, None, None)
@example({0: "a b"}, None, None)
@example({0: "\u00e9"}, None, None)
@example({0: ""}, None, None)
@example({5: "A"}, 7, None)
@example({-1: "A"}, None, None)
@example({}, None, 2)
@example({True: "A"}, None, None)
@example({}, 1.0, None)
@example({0: 1}, None, None)
@example({0: None}, None, None)
@example({0: b"A"}, None, None)
@given(
    st.dictionaries(
        point_keys,
        st.one_of(st.text(), st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True), st.integers(), st.none()),
        max_size=3,
    ),
    st.none() | point_keys,
    st.none() | point_keys,
)
def test_serialized_labels_read_back_or_are_refused(labels, a, b):
    doc = SpaceDocument(make_space({0: [{0}], 1: [{1}]}), labels, a, b)
    try:
        text = serialize_space(doc)
    except ValidationError:
        return
    assert parse_space(text) == doc


@example({0: "x"})
@example({0: 0, "x": 1})
@example({-1: 0})
@example({0: -1})
@example({True: 0})
@example({0: False})
@example({0: 1.0})
@given(st.dictionaries(point_keys, point_keys, max_size=3))
def test_serialized_covers_read_back_or_are_refused(cover):
    try:
        text = serialize_cover(cover)
    except ValidationError as error:
        assert "is not a point and an index, each an int >= 0" in str(error)
        return
    assert parse_cover(text) == cover


@given(st.dictionaries(st.integers(0, 50), st.integers(0, 50)))
def test_parse_inverts_serialize_on_covers(cover):
    text = serialize_cover(cover)
    assert parse_cover(text) == cover
    assert serialize_cover(parse_cover(text)) == text


@given(st.integers(0, 9).flatmap(
    lambda t: st.tuples(st.dictionaries(st.integers(0, 50), st.integers(0, t)), st.just(t))
))
def test_parse_inverts_serialize_on_oracles(entries_and_bound):
    oracle = EnumerationOracle(*entries_and_bound)
    text = serialize_oracle(oracle)
    assert parse_oracle(text) == oracle
    assert serialize_oracle(parse_oracle(text)) == text


@pytest.mark.parametrize(
    "body, message",
    [
        ("vic 0 0", "line 4: expected 'vic P: members...'"),
        ("label 0", "line 4: expected 'label P TOKEN'"),
        ("a 0 0", "line 4: expected 'a P'"),
        ("b", "line 4: expected 'b P'"),
        ("a 0\na 0", "line 5: duplicate 'a' line"),
        ("frob 0", "line 4: unknown directive 'frob'"),
    ],
    ids=["vic-colon", "label-arity", "a-arity", "b-arity", "second-a", "directive"],
)
def test_malformed_space_lines_are_parse_errors(body, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_space(f"vspace v1\nmode strong\npoints 1\n{body}\n")


def _system(owner, *vicinities, mode=STRONG):
    return VicinitySystem(owner, tuple(frozenset(v) for v in vicinities), mode)


UNWRITABLE_SPACES = {
    # Each would be written as a different space, or as text parse_space refuses.
    "float-member": (make_space({0: [{0, 1.5}]}, num_points=1), "members 1.5 of point 0: not ints >= 0"),
    "bool-member": (make_space({0: [{0, True}]}, num_points=1), "members True of point 0: not ints >= 0"),
    "negative-member": (make_space({0: [{0, -1}]}, num_points=1), "members -1 of point 0: not ints >= 0"),
    "mixed-members": (make_space({0: [{0, "x", 2.5}]}, num_points=1), "members 'x', 2.5 of point 0: not ints >= 0"),
    "missing-system": (FiniteVSpace(2, {0: _system(0, {0})}), r"missing-system \(point 1\)"),
    "bad-system": (FiniteVSpace(1, {0: [frozenset({0})]}), r"bad-system \(point 0\)"),
    "unknown-point": (make_space({0: [{0}], 5: [{5}]}, num_points=1), r"unknown-point \(point 5\)"),
    "owner-mismatch": (FiniteVSpace(2, {0: _system(1, {0, 1}), 1: _system(1, {1})}), r"owner-mismatch \(point 0\)"),
    "mode-mismatch": (FiniteVSpace(1, {0: _system(0, {0}, mode=WEAK)}), r"mode-mismatch \(point 0\)"),
    "space-mode": (FiniteVSpace(1, {0: _system(0, {0}, mode="odd")}, "odd"), r"bad-mode \(space\)"),
    "bad-size": (FiniteVSpace(-1, {}), r"bad-size \(space\)"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_SPACES))
def test_serialize_refuses_a_space_the_format_cannot_hold(case):
    space, message = UNWRITABLE_SPACES[case]
    with pytest.raises(ValidationError, match=f"^a space file cannot hold .*{message}"):
        serialize_space(SpaceDocument(space))


def test_serialize_writes_the_violations_the_format_holds():
    space = FiniteVSpace(3, {0: _system(0, {1}, {0, 7}, {0, 7}), 1: _system(1), 2: _system(2, {2})})
    assert [v.kind for v in space.violations] == [
        "owner-not-in-vicinity", "member-out-of-range", "member-out-of-range", "duplicate-vicinity", "empty-system"
    ]
    text = serialize_space(SpaceDocument(space))
    assert text == "vspace v1\nmode strong\npoints 3\nvic 0: 1\nvic 0: 0 7\nvic 0: 0 7\nvic 2: 2\n"
    assert parse_space(text).space == space


def test_every_space_serialize_accepts_reads_back_equal():
    rng = random.Random(2024)
    written = 0
    for _ in range(3000):
        n = rng.randint(0, 5)
        mode = rng.choice([STRONG, WEAK])
        keys = [p for p in range(n) if rng.random() < 0.95] + [rng.choice([n, -1, True, "x"])] * (rng.random() < 0.2)
        members = [*range(n + 2)] + [rng.choice([-1, True, 1.5, "y"])] * (rng.random() < 0.2)
        systems = {
            key: VicinitySystem(
                rng.choice([key] * 9 + [0]),
                tuple(frozenset(rng.sample(members, rng.randint(0, 2)) + [key] * (rng.random() < 0.8))
                      for _ in range(rng.randint(0, 3))),
                rng.choice([mode] * 9 + [STRONG if mode == WEAK else WEAK]),
            )
            for key in keys
        }
        space = FiniteVSpace(n, systems, mode)
        try:
            text = serialize_space(SpaceDocument(space))
        except ValidationError:
            continue
        written += 1
        back = parse_space(text).space
        assert back == space and back.violations == space.violations
    assert written > 1000
