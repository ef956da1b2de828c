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
from typing import Collection, Iterable, Mapping, Sequence

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


def _system_violations(system: VicinitySystem, num_points: int | None, mode: str | None) -> list[Violation]:
    """All violations of a system the shape rule accepts, in ``mode``
    (the space's), range-checked against ``num_points`` unless it is None.
    A system of one vicinity that holds its owner, checked with no range
    and in a valid ``mode`` equal to its own, is accepted at once: its
    mode is then valid and matches, it is not empty, its one vicinity
    holds the owner and cannot equal another, so no rule below fires."""
    p = system.owner
    if (
        num_points is None and mode in (WEAK, STRONG) and system.mode == mode
        and len(system.vicinities) == 1 and p in system.vicinities[0]
    ):
        return []
    out: list[Violation] = []
    if system.mode not in (WEAK, STRONG):
        out.append(Violation("bad-mode", p, f"unknown mode {system.mode!r}"))
    if mode is not None and system.mode != mode:
        out.append(Violation("mode-mismatch", p, f"system mode {system.mode} != space mode {mode}"))
    if not system.vicinities:
        out.append(Violation("empty-system", p, "system has no vicinities"))
    for i, vic in enumerate(system.vicinities):
        if p not in vic:
            out.append(Violation("owner-not-in-vicinity", p, f"vicinity {i} does not contain its owner"))
        if num_points is not None:
            if stray := _not_points(vic, num_points):
                out.append(Violation("member-out-of-range", p, f"vicinity {i} members {stray} outside 0..{num_points - 1}"))
    if system.mode == STRONG:
        seen: dict[frozenset[int], int] = {}
        for i, vic in enumerate(system.vicinities):
            if (first := seen.setdefault(vic, i)) != i:
                out.append(Violation("duplicate-vicinity", p, f"vicinities {first} and {i} are equal sets"))
    return out


def _misshapen(system) -> str:
    """Why validation cannot read ``system`` ('' if it can): with ``_odd_vicinity``, the one shape rule."""
    if not isinstance(system, VicinitySystem):
        return f"system is a {type(system).__name__}, not a VicinitySystem"
    if not isinstance(system.vicinities, tuple):
        return f"vicinities are a {type(system.vicinities).__name__}, not a tuple"
    try:
        hash(system.owner)
    except TypeError:
        return f"owner is an unhashable {type(system.owner).__name__}"
    return ""


def _odd_vicinity(vicinities: Sequence) -> str:
    """Why validation cannot read one of the vicinities ('' if it can read each)."""
    for i, vic in enumerate(vicinities):
        if not isinstance(vic, frozenset):
            return f"vicinity {i} is a {type(vic).__name__}, not a frozenset"
    return ""


def validate_space(space: FiniteVSpace) -> list[Violation]:
    """All invariant violations of a candidate space (empty list = valid)."""
    if not (type(space.num_points) is int and space.num_points >= 0):
        return [Violation("bad-size", None, f"point count {space.num_points!r} is not an int >= 0")]
    out: list[Violation] = []
    if space.mode not in (WEAK, STRONG):
        out.append(Violation("bad-mode", None, f"unknown mode {space.mode!r}"))
    for p in space.points:
        if p not in space.systems:
            out.append(Violation("missing-system", p, "point has no vicinity system"))
    stray = _not_points(space.systems, space.num_points)
    # A key that is not a point, or whose system validation cannot read,
    # gets its one violation and is read no further.
    unread = {key: Violation("unknown-point", key, f"system keyed by point outside 0..{space.num_points - 1}") for key in stray}
    unread.update(
        (key, Violation("bad-system", key, fault))
        for key, system in space.systems.items() if key not in unread and (fault := _misshapen(system))
    )
    # Read each distinct vicinity object once (an induced space shares one
    # per label class), its type in one scan, and range-check members per
    # vicinity only if one strays, so the violations and their order stay the same.
    vicinities = {id(v): v for key, system in space.systems.items() if key not in unread for v in system.vicinities}
    if not set(map(type, vicinities.values())) <= {frozenset}:
        unread.update(
            (key, Violation("bad-system", key, fault))
            for key, system in space.systems.items() if key not in unread and (fault := _odd_vicinity(system.vicinities))
        )
        # A readable vicinity of a refused system can only turn range checks on.
        vicinities = {i: v for i, v in vicinities.items() if isinstance(v, frozenset)}
    num_points = space.num_points if _members_stray(vicinities.values(), space.num_points) else None
    for key in sorted(space.systems, key=_point_order) if stray else sorted(space.systems):
        if key in unread:
            out.append(unread[key])
            continue
        system = space.systems[key]
        if system.owner != key:
            out.append(Violation("owner-mismatch", key, f"system owner is {system.owner}"))
        out.extend(_system_violations(system, num_points, space.mode))
    return out


def _members_stray(vicinities: Collection[frozenset], num_points: int) -> bool:
    """Whether a member of the vicinities, frozensets all, is not a point.
    Types are read first, so a bool that equals a point is still a stray."""
    if not set(map(type, chain.from_iterable(vicinities))) <= {int}:
        return True
    members = set().union(*vicinities)
    return bool(members) and (min(members) < 0 or max(members) >= num_points)


def require_valid_space(space: FiniteVSpace) -> None:
    if space.violations:
        raise ValidationError("invalid space: " + "; ".join(str(v) for v in space.violations))


def _point_order(p) -> tuple:
    """Ints ascending, then everything else by repr."""
    return (0, p) if type(p) is int else (1, repr(p))


def _not_points(items: Iterable, num_points: int) -> list:
    """The one point rule: the items that are not ints (a bool is not) in
    0..num_points-1, in ``_point_order``."""
    bad = [p for p in items if not (type(p) is int and 0 <= p < num_points)]
    return sorted(bad, key=_point_order) if bad else bad


def require_points(space: FiniteVSpace, points: Iterable[int], what: str) -> None:
    if outside := _not_points(points, space.num_points):
        raise ValidationError(f"{what} {outside} are not points 0..{space.num_points - 1}")


def require_total_labeling(pi: Labeling, points: Iterable[int]) -> None:
    missing = [p for p in points if p not in pi]
    if missing:
        raise ValidationError(f"labeling undefined on points {sorted(missing)}")
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
