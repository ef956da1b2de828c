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

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import chain
from types import MappingProxyType

from ._record import Record
from .errors import ValidationError

WEAK = "weak"
STRONG = "strong"
_MODES = (STRONG, WEAK)

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

    __slots__ = ("__dict__",)  # the memos below
    _fields = ("num_points", "systems", "mode")

    def __init__(self, num_points: int, systems: Mapping[int, VicinitySystem], mode: str = STRONG) -> None:
        self._store(num_points, MappingProxyType(dict(systems)), mode)

    @cached_property
    def points(self) -> range:
        """``range(num_points)``, built on first use only; raises, and keeps
        nothing, while ``num_points`` is not an int."""
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
    deliberately broken spaces can be constructed; a ``num_points`` that
    is not an int fills in no systems and is flagged as a bad size.
    """
    if num_points is None:
        members = (p for vics in vicinities.values() for v in vics for p in v)
        num_points = 1 + max((p for p in (*vicinities, *members) if type(p) is int and p >= 0), default=-1)
    systems = {p: VicinitySystem(p, tuple(map(frozenset, vics)), mode) for p, vics in vicinities.items()}
    if type(num_points) is int:
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


def validate_space(space: FiniteVSpace) -> list[Violation]:
    """All invariant violations of a candidate space (empty list = valid),
    found in one pass over its systems.

    Each rule is checked once per key, and each finding is kept with its key
    and its rank among that key's rules; only the findings are put in key
    order at the end.  The members of the distinct vicinity objects, kept by
    ``id``, are type- and range-checked together after the pass, and only
    when that check fails are each object's strays named.
    """
    n, mode = space.num_points, space.mode
    if not (type(n) is int and n >= 0):
        return [Violation("bad-size", None, f"point count {n!r} is not an int >= 0")]
    # A key's ranks: 0 for its one unknown-point or bad-system finding, or
    # else owner, mode and count rules 0-3, vicinity i's owner and member
    # rules 4+2i and 5+2i, and then the duplicates after every vicinity.
    found: list[tuple] = []
    unread = set()  # the keys whose systems no rule below reads
    distinct: dict[int, frozenset] = {}
    for key, system in space.systems.items():
        if not (type(key) is int and 0 <= key < n):
            unread.add(key)
            detail = f"system keyed by point outside 0..{n - 1}"
            found.append((key, 0, Violation("unknown-point", key, detail)))
            continue
        # A system of exactly the accepted types passes the shape rule
        # unread.  A vicinity of another type sends it to the rule after
        # all, and a fault found then drops what the system's rules found.
        exact = type(system) is VicinitySystem and type(system.owner) is int and type(system.vicinities) is tuple
        if exact or not (fault := _misshapen(system)):
            p, vics, m = system.owner, system.vicinities, system.mode
            if not (type(p) is int and p == key):
                found.append((key, 0, Violation("owner-mismatch", key, f"system owner is {p}")))
            if m not in _MODES:
                found.append((key, 1, Violation("bad-mode", p, f"unknown mode {m!r}")))
            if m != mode:
                found.append((key, 2, Violation("mode-mismatch", p, f"system mode {m} != space mode {mode}")))
            if not vics:
                found.append((key, 3, Violation("empty-system", p, "system has no vicinities")))
            i = -1
            for vic in vics:
                if type(vic) is not frozenset and (fault := _misshapen(system)):
                    while found and found[-1][0] is key:
                        found.pop()
                    break
                if p not in vic:
                    # Searching on from the last miss finds this very vicinity:
                    # an equal one between them would have missed p too.
                    i = vics.index(vic, i + 1)
                    detail = f"vicinity {i} does not contain its owner"
                    found.append((key, 4 + 2 * i, Violation("owner-not-in-vicinity", p, detail)))
                distinct[id(vic)] = vic
            else:
                if m == STRONG and len(vics) > 1 and len(set(vics)) < len(vics):
                    seen: dict[frozenset, int] = {}
                    for i, vic in enumerate(vics):
                        if (j := seen.setdefault(vic, i)) != i:
                            detail = f"vicinities {j} and {i} are equal sets"
                            found.append((key, 4 + 2 * len(vics) + i, Violation("duplicate-vicinity", p, detail)))
                continue
        unread.add(key)
        found.append((key, 0, Violation("bad-system", key, fault)))
    # Types are read member by member, so a bool that equals a point is caught.
    vicinities = distinct.values()
    members = set().union(*vicinities)
    if members and not (
        set(map(type, chain.from_iterable(vicinities))) <= {int} and min(members) >= 0 and max(members) < n
    ):
        strays = {ident: _not_points(vic, n) for ident, vic in distinct.items()}
        for key, system in space.systems.items():
            if key not in unread:
                for i, vic in enumerate(system.vicinities):
                    if stray := strays[id(vic)]:
                        detail = f"vicinity {i} members {stray} outside 0..{n - 1}"
                        found.append((key, 5 + 2 * i, Violation("member-out-of-range", system.owner, detail)))
    out = [] if mode in _MODES else [Violation("bad-mode", None, f"unknown mode {mode!r}")]
    if unread or len(space.systems) != n:
        missing = [p for p in range(n) if p not in space.systems]
        out += [Violation("missing-system", p, "point has no vicinity system") for p in missing]
    found.sort(key=lambda finding: (_point_order(finding[0]), finding[1]))
    return out + [violation for _, _, violation in found]


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
    if type(pi) is not dict and not isinstance(pi, Mapping):  # a dict skips the slow ABC check
        raise ValidationError(f"labeling must be a mapping from points to labels, got a {type(pi).__name__}")
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
