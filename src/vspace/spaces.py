"""Finite vicinity spaces (V-spaces).

A V-space assigns to every point a non-empty ordered sequence of
vicinities, each a subset of the point set containing the point itself.
Systems come in two flavours: *strong* systems list pairwise distinct
vicinity sets, *weak* systems may repeat.  A weak system conceptually
extends to an infinite sequence by padding with its first vicinity, so an
index past the end of the stored sequence denotes index 0.

Everything here is immutable and purely functional; values can be shared
freely across threads.  A space validates itself at most once and keeps
the result; ``systems`` is read-only and a valid system holds a tuple of
frozensets, so the result cannot go stale.
"""
from __future__ import annotations

from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._record import Record
from .errors import ValidationError

WEAK = "weak"
STRONG = "strong"

# A labeling is a total map from points to label tokens.
Labeling = Mapping[int, str]


class Violation(Record):
    """One structural defect found by validation."""

    _fields = ("kind", "point", "detail")

    def __str__(self) -> str:
        where = "space" if self.point is None else f"point {self.point}"
        return f"{self.kind} ({where}): {self.detail}"


class VicinitySystem(Record):
    """The ordered vicinities of one point: a tuple of frozensets, the one
    representation validation accepts (``make_space`` builds it from lists or sets)."""

    _fields = ("owner", "vicinities", "mode")
    _defaults = {"mode": STRONG}


class FiniteVSpace(Record):
    """A V-space on the dense point set 0..num_points-1."""

    _fields = ("num_points", "systems", "mode")

    def __init__(self, num_points: int, systems: Mapping[int, VicinitySystem], mode: str = STRONG) -> None:
        object.__setattr__(self, "num_points", num_points)
        object.__setattr__(self, "systems", MappingProxyType(dict(systems)))
        object.__setattr__(self, "mode", mode)

    @property
    def points(self) -> range:
        return range(self.num_points)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """``validate_space`` of this space, computed on first use only."""
        return tuple(validate_space(self))


def make_space(
    vicinities: Mapping[int, Sequence[Iterable[int]]],
    mode: str = STRONG,
    num_points: int | None = None,
) -> FiniteVSpace:
    """Build a space from per-point iterables of members, frozen into tuples of frozensets.

    Without ``num_points`` the space has one point more than the largest
    point, an int (not a bool) >= 0, among the keys and members.  Points
    not mentioned as keys get an empty system and keys that are not
    points are kept, both flagged later by validate_space, so
    deliberately broken spaces can be constructed.
    """
    if num_points is None:
        members = (p for vics in vicinities.values() for v in vics for p in v)
        num_points = 1 + max((p for p in (*vicinities, *members) if type(p) is int and p >= 0), default=-1)
    systems = {p: VicinitySystem(p, tuple(map(frozenset, vics)), mode) for p, vics in vicinities.items()}
    systems.update({p: VicinitySystem(p, (), mode) for p in range(num_points) if p not in systems})
    return FiniteVSpace(num_points, systems, mode)


def _misshapen(system) -> str:
    """Why validation cannot read ``system`` ('' if it can): the one shape rule."""
    if not isinstance(system, VicinitySystem):
        return f"system is a {type(system).__name__}, not a VicinitySystem"
    if not isinstance(system.vicinities, tuple):
        return f"vicinities are a {type(system.vicinities).__name__}, not a tuple"
    try:
        hash(system.owner)
    except TypeError:
        return f"owner is an unhashable {type(system.owner).__name__}"
    for i, vic in enumerate(system.vicinities):
        if not isinstance(vic, frozenset):
            return f"vicinity {i} is a {type(vic).__name__}, not a frozenset"
    return ""


def _key_violations(space: FiniteVSpace, key, unknown: set, strays: dict[int, list]) -> list[Violation]:
    """The violations of the system at ``key``, rule by rule.  A key in
    ``unknown`` (the keys that are not points), or a system that validation
    cannot read, is one violation.  ``strays`` keeps each vicinity object's
    members that are not points, by ``id``, so a vicinity shared by many
    keys is range-checked once."""
    n = space.num_points
    if key in unknown:
        return [Violation("unknown-point", key, f"system keyed by point outside 0..{n - 1}")]
    system = space.systems[key]
    if fault := _misshapen(system):
        return [Violation("bad-system", key, fault)]
    p = system.owner
    out: list[Violation] = []
    if p != key:
        out.append(Violation("owner-mismatch", key, f"system owner is {p}"))
    if system.mode not in (WEAK, STRONG):
        out.append(Violation("bad-mode", p, f"unknown mode {system.mode!r}"))
    if system.mode != space.mode:
        out.append(Violation("mode-mismatch", p, f"system mode {system.mode} != space mode {space.mode}"))
    if not system.vicinities:
        out.append(Violation("empty-system", p, "system has no vicinities"))
    for i, vic in enumerate(system.vicinities):
        if p not in vic:
            out.append(Violation("owner-not-in-vicinity", p, f"vicinity {i} does not contain its owner"))
        if (stray := strays.get(id(vic))) is None:
            stray = strays[id(vic)] = _not_points(vic, n)
        if stray:
            out.append(Violation("member-out-of-range", p, f"vicinity {i} members {stray} outside 0..{n - 1}"))
    if system.mode == STRONG:
        seen: dict[frozenset[int], int] = {}
        for i, vic in enumerate(system.vicinities):
            if (first := seen.setdefault(vic, i)) != i:
                out.append(Violation("duplicate-vicinity", p, f"vicinities {first} and {i} are equal sets"))
    return out


def _valid(space: FiniteVSpace) -> bool:
    """Whether a space of valid size breaks no rule, read in one scan: the
    keys and systems once, then each distinct vicinity object's members.
    False on a valid space whose vicinity is a frozenset subclass."""
    n, mode = space.num_points, space.mode
    if mode not in (WEAK, STRONG) or len(space.systems) != n:
        return False
    vicinities: dict[int, frozenset] = {}
    for key, system in space.systems.items():
        if not (type(key) is int and 0 <= key < n and type(system) is VicinitySystem):
            return False
        p, vics = system.owner, system.vicinities
        if p != key or system.mode != mode or type(vics) is not tuple or not vics:
            return False
        for vic in vics:
            if type(vic) is not frozenset or p not in vic:
                return False
            vicinities[id(vic)] = vic
        if mode == STRONG and len(vics) > 1 and len(set(vics)) < len(vics):
            return False
    # Types are read member by member, so a bool that equals a point is refused.
    if not set(map(type, chain.from_iterable(vicinities.values()))) <= {int}:
        return False
    members = set().union(*vicinities.values())
    return not members or (min(members) >= 0 and max(members) < n)


def validate_space(space: FiniteVSpace) -> list[Violation]:
    """All invariant violations of a candidate space (empty list = valid)."""
    if not (type(space.num_points) is int and space.num_points >= 0):
        return [Violation("bad-size", None, f"point count {space.num_points!r} is not an int >= 0")]
    if _valid(space):
        return []
    out: list[Violation] = []
    if space.mode not in (WEAK, STRONG):
        out.append(Violation("bad-mode", None, f"unknown mode {space.mode!r}"))
    for p in space.points:
        if p not in space.systems:
            out.append(Violation("missing-system", p, "point has no vicinity system"))
    # The keys of a dict are pairwise unequal, so a set of some of them
    # tells exactly which keys it holds.
    unknown = set(_not_points(space.systems, space.num_points))
    strays: dict[int, list] = {}
    for key in sorted(space.systems, key=_point_order):
        out += _key_violations(space, key, unknown, strays)
    return out


def require_valid_space(space: FiniteVSpace) -> None:
    if space.violations:
        raise ValidationError("invalid space: " + "; ".join(str(v) for v in space.violations))


def _point_order(p) -> tuple:
    """Ints ascending, then everything else by repr."""
    return (0, p) if type(p) is int else (1, repr(p))


def _not_points(items: Iterable, num_points: int) -> list:
    """The one point rule: the items that are not ints (a bool is not) in
    0..num_points-1, in ``_point_order``.  Like the other argument checks,
    it is a plain loop: before Python 3.12 a comprehension costs a frame
    on every call."""
    bad = []
    for p in items:
        if not (type(p) is int and 0 <= p < num_points):
            bad.append(p)
    return sorted(bad, key=_point_order) if bad else bad


def require_points(space: FiniteVSpace, points: Iterable[int], what: str) -> None:
    if outside := _not_points(points, space.num_points):
        raise ValidationError(f"{what} {outside} are not points 0..{space.num_points - 1}")


def require_total_labeling(pi: Labeling, points: Sequence[int]) -> None:
    for p in points:
        if p not in pi:
            raise ValidationError(f"labeling undefined on points {sorted([p for p in points if p not in pi])}")
    for p, token in pi.items():
        if not isinstance(token, str) or not token:
            raise ValidationError(f"label of point {p} must be a non-empty string")


def induced_space(points: Iterable[int], pi: Labeling) -> FiniteVSpace:
    """The strong space where each point's single vicinity is its label class."""
    pts = set(points)
    n = len(pts)
    if _not_points(pts, n):
        raise ValidationError("points must form a dense range 0..n-1")
    require_total_labeling(pi, range(n))
    members: dict[str, list[int]] = {}
    for p in range(n):
        members.setdefault(pi[p], []).append(p)
    classes = {token: frozenset(ps) for token, ps in members.items()}
    return make_space({p: [classes[pi[p]]] for p in range(n)}, STRONG, n)
