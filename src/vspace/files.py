"""Line-oriented file formats.

All three formats share the same lexical rules: UTF-8 text split into
lines at LF, ``#`` starting a comment that runs to the end of the line,
and tokens separated by any run of whitespace, so spaces and tabs both
separate tokens and a CR before the LF is stripped.  Serialization is
canonical (single spaces, LF line ends, points ascending, vicinity
members ascending, no comments), and parsing a canonical file followed
by serializing reproduces it byte for byte.

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
from dataclasses import dataclass, field

from .errors import ParseError
from .oracles import EnumerationOracle
from .spaces import STRONG, WEAK, FiniteVSpace, VicinitySystem

LABEL_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")

# Largest ``points N`` accepted; checked before anything is allocated per point.
MAX_POINTS = 100_000


@dataclass(frozen=True)
class SpaceDocument:
    """A parsed space file: the space plus optional labeling and endpoints."""

    space: FiniteVSpace
    labels: dict[int, str] = field(default_factory=dict)
    a: int | None = None
    b: int | None = None


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


def _int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} must be an integer, got {token!r}") from None
    if value < 0:
        raise ParseError(f"line {lineno}: {what} must be non-negative, got {value}")
    return value


def _expect_header(lines, expected: str):
    if not lines:
        raise ParseError(f"empty file, expected header '{expected}'")
    lineno, tokens = lines[0]
    if tokens != expected.split():
        raise ParseError(f"line {lineno}: expected header '{expected}'")
    return lines[1:]


def parse_space(text: str) -> SpaceDocument:
    lines = _expect_header(_lines(text), "vspace v1")
    if not lines or lines[0][1][0] != "mode" or len(lines[0][1]) != 2:
        raise ParseError("expected 'mode strong|weak' after the header")
    lineno, tokens = lines[0]
    mode = tokens[1]
    if mode not in (STRONG, WEAK):
        raise ParseError(f"line {lineno}: mode must be strong or weak, got {mode!r}")
    lines = lines[1:]
    if not lines or lines[0][1][0] != "points" or len(lines[0][1]) != 2:
        raise ParseError("expected 'points N' after the mode line")
    lineno, tokens = lines[0]
    num_points = _int(tokens[1], lineno, "point count")
    if num_points > MAX_POINTS:
        raise ParseError(f"line {lineno}: point count {num_points} exceeds the limit {MAX_POINTS}")
    lines = lines[1:]

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

    systems = {
        p: VicinitySystem(p, tuple(vicinities[p]), mode) for p in range(num_points)
    }
    space = FiniteVSpace(num_points, systems, mode)
    return SpaceDocument(space, labels, endpoints.get("a"), endpoints.get("b"))


def serialize_space(doc: SpaceDocument) -> str:
    space = doc.space
    out = ["vspace v1", f"mode {space.mode}", f"points {space.num_points}"]
    for p in space.points:
        system = space.systems.get(p)
        if system is None:
            continue
        for vic in system.vicinities:
            members = " ".join(str(m) for m in sorted(vic))
            out.append(f"vic {p}:" + (f" {members}" if members else ""))
    for p in sorted(doc.labels):
        out.append(f"label {p} {doc.labels[p]}")
    if doc.a is not None:
        out.append(f"a {doc.a}")
    if doc.b is not None:
        out.append(f"b {doc.b}")
    return "\n".join(out) + "\n"


def parse_cover(text: str, num_points: int | None = None) -> dict[int, int]:
    lines = _expect_header(_lines(text), "cover v1")
    cover: dict[int, int] = {}
    last = -1
    for lineno, tokens in lines:
        if tokens[0] != "choose" or len(tokens) != 3:
            raise ParseError(f"line {lineno}: expected 'choose P INDEX'")
        p = _int(tokens[1], lineno, "point")
        index = _int(tokens[2], lineno, "index")
        if p in cover:
            raise ParseError(f"line {lineno}: duplicate point {p}")
        if p <= last:
            raise ParseError(f"line {lineno}: points must be ascending")
        last = p
        cover[p] = index
    if num_points is not None:
        missing = sorted(set(range(num_points)) - set(cover))
        if missing:
            raise ParseError(f"cover missing points {missing}")
        stray = sorted(p for p in cover if p >= num_points)
        if stray:
            raise ParseError(f"cover mentions points {stray} outside 0..{num_points - 1}")
    return cover


def serialize_cover(cover: dict[int, int]) -> str:
    out = ["cover v1"]
    for p in sorted(cover):
        out.append(f"choose {p} {cover[p]}")
    return "\n".join(out) + "\n"


def parse_oracle(text: str) -> EnumerationOracle:
    lines = _expect_header(_lines(text), "oracle v1")
    if not lines or lines[0][1][0] != "stages" or len(lines[0][1]) != 2:
        raise ParseError("expected 'stages T' after the header")
    lineno, tokens = lines[0]
    stage_bound = _int(tokens[1], lineno, "stage bound")
    entries: dict[int, int] = {}
    last = -1
    for lineno, tokens in lines[1:]:
        if tokens[0] != "enum" or len(tokens) != 3:
            raise ParseError(f"line {lineno}: expected 'enum X S'")
        x = _int(tokens[1], lineno, "value")
        s = _int(tokens[2], lineno, "stage")
        if x in entries:
            raise ParseError(f"line {lineno}: duplicate value {x}")
        if x <= last:
            raise ParseError(f"line {lineno}: values must be ascending")
        if s > stage_bound:
            raise ParseError(f"line {lineno}: stage {s} exceeds bound {stage_bound}")
        last = x
        entries[x] = s
    return EnumerationOracle(entries, stage_bound)


def serialize_oracle(oracle: EnumerationOracle) -> str:
    out = ["oracle v1", f"stages {oracle.stage_bound}"]
    for x in sorted(oracle.entries):
        out.append(f"enum {x} {oracle.entries[x]}")
    return "\n".join(out) + "\n"
