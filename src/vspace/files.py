"""Line-oriented file formats.

All three formats share the same lexical rules: UTF-8 text split into
lines at LF, ``#`` starting a comment that runs to the end of the line,
and tokens separated by any run of whitespace, so spaces and tabs both
separate tokens and a CR before the LF is stripped.  Every number is a
non-negative integer written in ASCII decimal digits (no sign, ``_`` or
other scripts' digits).  Serialization is canonical (single spaces, LF
line ends, points ascending, vicinity members ascending, no comments)
and refuses labels that are not strings over ``[A-Za-z0-9_]``, labels or
endpoints on points outside the space, cover points or indices that are
not ints >= 0, and a space that would not read back as itself: one with
a violation other than those in ``_WRITABLE``, or with a member that is
not an int >= 0.  So a canonical file parses and re-serializes byte for
byte, and a written space parses back equal.  Covers are read without
the space they belong to; the library checks that a cover names every point of its space and no other.

SpaceFile::

    vspace v1
    mode strong            # or weak
    points 3               # points are 0..2
    vic 0: 0 1             # repeats per point append vicinities in order
    label 0 A              # optional labeling lines
    a 0                    # optional designated endpoints
    b 2

CoverFile::

    cover v1
    choose 0 0             # one line per point, ascending

OracleFile::

    oracle v1
    stages 4
    enum 3 1               # value 3 first appears at stage 1, ascending values
"""
from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ._record import Record
from .errors import ParseError, ValidationError
from .spaces import STRONG, WEAK, FiniteVSpace, make_space, require_points

if TYPE_CHECKING:
    from .oracles import EnumerationOracle

LABEL_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")

# Largest ``points N`` accepted; checked before anything is allocated per point.
MAX_POINTS = 100_000


class SpaceDocument(Record):
    """A parsed space file: the space plus optional labeling and endpoints.

    ``labels`` defaults to a new empty dict for each document.
    """

    _fields = ("space", "labels", "a", "b")

    def __init__(
        self, space: FiniteVSpace, labels: dict[int, str] | None = None, a: int | None = None, b: int | None = None
    ) -> None:
        self._store(space, {} if labels is None else labels, a, b)


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


def _int(token: str, lineno: int, what: str) -> int:
    """The one numeral rule of all three formats: ASCII decimal digits."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"line {lineno}: {what} must be a non-negative integer, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"line {lineno}: {what} has too many digits ({len(token)})") from None


def _expect_header(lines, expected: str):
    if not lines:
        raise ParseError(f"empty file, expected header '{expected}'")
    lineno, tokens = lines[0]
    if tokens != expected.split():
        raise ParseError(f"line {lineno}: expected header '{expected}'")
    return lines[1:]


def _field(lines, form: str, after: str):
    """The ``KEY VALUE`` line that must come next, as ``(lineno, value, rest)``."""
    if not lines or lines[0][1][0] != form.split()[0] or len(lines[0][1]) != 2:
        where = f"line {lines[0][0]}: " if lines else ""
        raise ParseError(f"{where}expected '{form}' after {after}")
    lineno, (_, value) = lines[0]
    return lineno, value, lines[1:]


def _records(lines, form: str, first: str, second: str):
    """Yield ``(lineno, x, y)`` for each ``KEY X Y`` line, X strictly ascending."""
    last = -1
    for lineno, tokens in lines:
        if tokens[0] != form.split()[0] or len(tokens) != 3:
            raise ParseError(f"line {lineno}: expected '{form}'")
        x = _int(tokens[1], lineno, first)
        y = _int(tokens[2], lineno, second)
        if x == last:
            raise ParseError(f"line {lineno}: duplicate {first} {x}")
        if x < last:
            raise ParseError(f"line {lineno}: {first}s must be ascending")
        last = x
        yield lineno, x, y


def parse_space(text: str) -> SpaceDocument:
    lines = _expect_header(_lines(text), "vspace v1")
    lineno, mode, lines = _field(lines, "mode strong|weak", "the header")
    if mode not in (STRONG, WEAK):
        raise ParseError(f"line {lineno}: mode must be strong or weak, got {mode!r}")
    lineno, value, lines = _field(lines, "points N", "the mode line")
    num_points = _int(value, lineno, "point count")
    if num_points > MAX_POINTS:
        raise ParseError(f"line {lineno}: point count {num_points} exceeds the limit {MAX_POINTS}")

    vicinities: dict[int, list[frozenset[int]]] = {p: [] for p in range(num_points)}
    labels: dict[int, str] = {}
    endpoints: dict[str, int] = {}

    def point_of(token: str, lineno: int) -> int:
        p = _int(token, lineno, "point")
        if p >= num_points:
            raise ParseError(f"line {lineno}: point {p} outside 0..{num_points - 1}")
        return p

    for lineno, tokens in lines:
        kind = tokens[0]
        if kind == "vic":
            if len(tokens) < 2 or not tokens[1].endswith(":"):
                raise ParseError(f"line {lineno}: expected 'vic P: members...'")
            p = point_of(tokens[1][:-1], lineno)
            members = frozenset(_int(tok, lineno, "member") for tok in tokens[2:])
            vicinities[p].append(members)
        elif kind == "label":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'label P TOKEN'")
            p = point_of(tokens[1], lineno)
            if p in labels:
                raise ParseError(f"line {lineno}: duplicate label for point {p}")
            if not LABEL_TOKEN.match(tokens[2]):
                raise ParseError(f"line {lineno}: label {tokens[2]!r} not over [A-Za-z0-9_]")
            labels[p] = tokens[2]
        elif kind in ("a", "b"):
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected '{kind} P'")
            if kind in endpoints:
                raise ParseError(f"line {lineno}: duplicate '{kind}' line")
            endpoints[kind] = point_of(tokens[1], lineno)
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")

    space = make_space(vicinities, mode, num_points)
    return SpaceDocument(space, labels, endpoints.get("a"), endpoints.get("b"))


# The violations a space file can hold: it gives each point a system of
# the space's mode, read back in order, of vicinities of ints >= 0.
_WRITABLE = ("empty-system", "owner-not-in-vicinity", "duplicate-vicinity", "member-out-of-range")


def _require_writable(space: FiniteVSpace) -> None:
    """Refuse a space that would not parse back equal to itself."""
    if not space.violations:
        return
    if unwritable := [str(v) for v in space.violations if v.kind not in _WRITABLE]:
        raise ValidationError("a space file cannot hold " + "; ".join(unwritable))
    for p in space.points:
        for vic in space.systems[p].vicinities:
            if odd := sorted(repr(m) for m in vic if not (type(m) is int and m >= 0)):
                raise ValidationError(f"a space file cannot hold members {', '.join(odd)} of point {p}: not ints >= 0")


def serialize_space(doc: SpaceDocument) -> str:
    space = doc.space
    _require_writable(space)
    named = [p for p in (*doc.labels, doc.a, doc.b) if p is not None]
    require_points(space, named, "labelled points or endpoints")
    out = ["vspace v1", f"mode {space.mode}", f"points {space.num_points}"]
    for p in space.points:
        for vic in space.systems[p].vicinities:
            members = " ".join(str(m) for m in sorted(vic))
            out.append(f"vic {p}:" + (f" {members}" if members else ""))
    for p in sorted(doc.labels):
        if not (isinstance(doc.labels[p], str) and LABEL_TOKEN.match(doc.labels[p])):
            raise ValidationError(f"label {doc.labels[p]!r} of point {p} not over [A-Za-z0-9_]")
        out.append(f"label {p} {doc.labels[p]}")
    if doc.a is not None:
        out.append(f"a {doc.a}")
    if doc.b is not None:
        out.append(f"b {doc.b}")
    return "\n".join(out) + "\n"


def parse_cover(text: str) -> dict[int, int]:
    lines = _expect_header(_lines(text), "cover v1")
    return {p: index for _, p, index in _records(lines, "choose P INDEX", "point", "index")}


def serialize_cover(cover: dict[int, int]) -> str:
    for p, index in cover.items():
        if not (type(p) is int and type(index) is int and p >= 0 and index >= 0):
            raise ValidationError(f"cover entry {p!r}: {index!r} is not a point and an index, each an int >= 0")
    return "\n".join(["cover v1"] + [f"choose {p} {cover[p]}" for p in sorted(cover)]) + "\n"


def parse_oracle(text: str) -> EnumerationOracle:
    from .oracles import EnumerationOracle

    lines = _expect_header(_lines(text), "oracle v1")
    lineno, value, lines = _field(lines, "stages T", "the header")
    stage_bound = _int(value, lineno, "stage bound")
    entries: dict[int, int] = {}
    for lineno, x, s in _records(lines, "enum X S", "value", "stage"):
        if s > stage_bound:
            raise ParseError(f"line {lineno}: stage {s} exceeds bound {stage_bound}")
        entries[x] = s
    return EnumerationOracle(entries, stage_bound)


def serialize_oracle(oracle: EnumerationOracle) -> str:
    out = ["oracle v1", f"stages {oracle.stage_bound}"]
    for x in sorted(oracle.entries):
        out.append(f"enum {x} {oracle.entries[x]}")
    return "\n".join(out) + "\n"
