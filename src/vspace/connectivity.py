"""Covers, overlap graphs, and the connectedness decision.

A cover picks one vicinity per point.  Two points are connected when
*every* cover admits a finite chain between them whose consecutive chosen
vicinities intersect.  A cover admitting no such chain is a witness that
the points are not connected.

Under one given cover, ``_chain`` indexes each member to the groups of
points whose chosen set, of two or more members, holds it; points that
choose equal sets form one group.  A point whose chosen set is only
itself meets exactly the sets that hold it, so it is added as their
member and never indexed.  So ``chain_exists`` and ``verify_witness``
take time linear in the size of the cover, and a coded witness, most of
whose sets are {x}, indexes few points.  Both engines read each vicinity
as an int bitmask (bit m set iff m is a member); masks meet iff
they share a bit; witnesses use the original indices.  ``brute`` reads,
counts and searches in one routine.  Per point it reads a dict from each
distinct mask to its first original index (identical sets induce
identical overlap graphs) and multiplies its count of distinct covers by
the dict's size, so it compiles no point past the one that takes the
count over the budget.  It checks each cover by closing a's mask under
the masks that meet it, as its covers are too small to repay building
an index.  ``pruned`` builds, in one pass over the members, per point the
mask of every listed vicinity in order (a position is an original
index) and its watch lists.  A repeated set, which only a weak space
can list, changes nothing there: the forcing rule intersects fitting
options, the completions ask whether some option fits or take the first
that does, and a witness takes the least index; a later copy changes
none of them.

* ``brute`` enumerates covers in lexicographic order of (point id,
  vicinity index) and returns the first witness found, so its witness is
  deterministic and stable for golden tests.  Its budget counts covers,
  counted before any search and only until the count passes the budget.
* ``pruned`` searches for a cut instead of a cover.  a and b are not
  connected iff the points split into sides A containing a and B
  containing b so that every point has a vicinity inside its own side:
  the cover of those vicinities has no edge across the split, and
  conversely a's component in a witness's overlap graph is such a side
  (if m lies in V_x, then V_m, which contains m, meets V_x).  This is
  the tolerant cover of a two-valued labeling, read backwards.

  The search holds A and B as int masks, explores them depth first from
  an explicit stack, and closes each pair under one rule.  A point's
  options that avoid B fit it to A, those that avoid A fit it to B.  If
  a point fits only one side, the intersection of its fitting options
  (which contains the point) joins that side; if it fits neither, it is
  a conflict.  Every option contains its point, so a decided point fits
  only its own side.  Only the points just decided and their watchers,
  the points with an option containing one of them, are re-examined.
  After the closure it tries three completions: grow A' from A, each
  point of A' adding its least option that avoids B, and accept A'
  against the rest if every point outside A' has an option that avoids
  A'; then A against the rest; then the rest against B.  Failing all
  three it branches on the lowest undecided point, B first.  A split is
  a cut exactly when its tolerant cover exists: each point takes its
  least original index whose vicinity lies inside its side, and that
  cover is the witness.  One routine, ``_witness``, builds it for all
  three completions.

  The closure leaves every point of A with an option that avoids B,
  every point of B with one that avoids A, and every undecided point
  with both (it was examined and fits both sides, or none of its
  options meets a decided point).  So (A, rest) can fail only at a
  point of A with no option inside A, and (rest, B) only at a point of
  B: ``_witness`` is handed those points to test on masks first, and
  builds the cover only when they all pass.  The search, its masks and
  watch lists are compiled in one pass over the space, once per call,
  and a query (endpoints, node budget) leaves it unchanged.  Its
  verdict is ``brute``'s; its witness is valid but may differ.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from ._record import Record
from .errors import DEFAULT_MAX_COVERS, BudgetExceededError, ValidationError
from .spaces import WEAK, FiniteVSpace, VicinitySystem, _not_points, require_points, require_valid_space

Cover = Mapping[int, int]


class ConnectivityVerdict(Record):
    """Outcome of the connectedness decision.

    ``connected`` means every cover admits a chain; no single example
    chain is attached because one cover's chain proves nothing about the
    rest.  ``witness`` is set exactly when not connected.
    """

    _fields = ("connected", "witness")
    _defaults = {"witness": None}


# Every connected verdict: it carries no data, and records are immutable.
_CONNECTED = ConnectivityVerdict(True)


def require_search(engine: str, max_covers: int) -> None:
    """Reject a budget that is not an int >= 0 (checked first), then an unknown engine."""
    if type(max_covers) is not int or max_covers < 0:
        raise ValidationError(f"max_covers must be non-negative and an int, got {max_covers!r}")
    if engine not in ("brute", "pruned"):
        raise ValidationError(f"unknown engine {engine!r}")


def resolve_choice(system: VicinitySystem, index: int) -> frozenset[int]:
    """The vicinity set a cover index denotes, honouring weak padding."""
    if type(index) is int and 0 <= index < len(system.vicinities):
        return system.vicinities[index]
    if type(index) is not int or index < 0:
        raise ValidationError(f"vicinity index {index!r} for point {system.owner} is not a non-negative int")
    if system.mode == WEAK:  # past the end: the padding by vicinity 0
        return system.vicinities[0]
    raise ValidationError(
        f"index {index} out of range for point {system.owner} "
        f"(strong system of length {len(system.vicinities)})"
    )


def chain_exists(space: FiniteVSpace, cover: Cover, a: int, b: int) -> list[int] | None:
    """Shortest chain from a to b under the cover, or None.

    a == b yields the length-zero chain [a].  Ties are broken by visiting
    neighbours in ascending order, so the result is deterministic.
    """
    require_valid_space(space)
    if type(cover) is not dict and not isinstance(cover, Mapping):  # a dict skips the slow ABC check
        raise ValidationError(f"cover must be a mapping from points to indices, got a {type(cover).__name__}")
    systems, chosen = space.systems, []
    for p in space.points:  # lists the missing points only when there are some
        if p not in cover:
            raise ValidationError(f"cover missing points {[p for p in space.points if p not in cover]}")
        i, vics = cover[p], systems[p].vicinities
        if type(i) is int and 0 <= i < len(vics):
            chosen.append(vics[i])
    # Every point is a key, so n keys that are all exact ints are the points.
    if len(cover) != space.num_points or {*map(type, cover)} != {int}:
        if stray := _not_points(cover, space.num_points):
            raise ValidationError(f"cover mentions unknown points {stray}")
    if len(chosen) < space.num_points:  # weak padding, or the index error of the least such point
        chosen = [resolve_choice(systems[p], cover[p]) for p in space.points]
    require_points(space, (a, b), "endpoints")
    return _chain(chosen, a, b)


def verify_witness(space: FiniteVSpace, cover: Cover, a: int, b: int) -> bool:
    """True iff the cover admits no chain from a to b."""
    return chain_exists(space, cover, a, b) is None


def _chain(chosen: Sequence[frozenset[int]], a: int, b: int) -> list[int] | None:
    """Shortest chain from a to b over the chosen sets, or None.  Two
    points are joined when their sets meet, and neighbours are visited
    in ascending order, so ties are broken the same way every time.

    Each set holds its owner, so a point y whose set is {y} (a lone
    point) is a neighbour of x exactly when y is in x's set: expanding x
    adds its lone members directly.  Only the sets of two or more
    members are indexed: ``holders[m]`` lists the groups (the points
    choosing equal sets, keyed by the set, which saves an ``id`` call
    per point) whose set holds m; an induced space shares one set per
    label class, so this index is linear in n.  Each member and group is
    read once (the index empties as it is read), and a point whose set
    was already expanded is skipped: its neighbours have all been
    visited.
    """
    if a == b:
        return [a]
    lone = [False] * len(chosen)
    groups: dict[frozenset[int], list[int]] = {}
    for p, vic in enumerate(chosen):
        if len(vic) > 1:
            groups.setdefault(vic, []).append(p)
        else:
            lone[p] = True
    holders: list[list[list[int]]] = [[] for _ in chosen]
    for vic, group in groups.items():
        for m in vic:
            holders[m].append(group)
    parent = [-1] * len(chosen)
    parent[a] = a
    expanded: set[frozenset[int]] = set()
    queue = [a]
    for x in queue:  # grows while it is read: breadth-first order
        vic = chosen[x]
        if vic in expanded:
            continue
        expanded.add(vic)
        new = []
        for m in vic:
            if lone[m]:
                new.append(m)
            for group in holders[m]:
                new += group
                group.clear()
            holders[m].clear()
        new.sort()
        for y in new:
            if parent[y] < 0:  # only a, or a lone point met before, can be visited already
                parent[y] = x
                queue.append(y)
        if parent[b] >= 0:
            path = [b]
            while b != a:
                b = parent[b]
                path.append(b)
            return path[::-1]
    return None


def _sets_reachable(masks: Sequence[int], a: int, b: int) -> bool:
    """Whether b's mask meets the closure of a's (a != b): each pass ORs
    in every mask that meets it, until b's mask does or a pass adds nothing.
    The closure is the union of the masks of a's component."""
    reach, target = masks[a], masks[b]
    while not target & reach:
        before = reach
        for m in masks:
            if m & reach:
                reach |= m
        if reach == before:
            return False
    return True


def _brute(space: FiniteVSpace, a: int, b: int, max_covers: int) -> ConnectivityVerdict:
    """Compile point by point, stopping at the point that takes the count
    of distinct covers past the budget; then walk the covers in order."""
    choices: list[dict[int, int]] = []
    systems, total = space.systems, 1
    for p in space.points:
        first: dict[int, int] = {}
        for i, vic in enumerate(systems[p].vicinities):
            mask = 0
            for m in vic:
                mask |= 1 << m
            first.setdefault(mask, i)
        total *= len(first)  # never shrinks, so stop once past the budget
        if total > max_covers:
            raise BudgetExceededError(f"the covers exceed the budget of {max_covers}")
        choices.append(first)
    for combo in itertools.product(*choices):
        if not _sets_reachable(combo, a, b):
            return ConnectivityVerdict(False, {p: choices[p][mask] for p, mask in enumerate(combo)})
    return _CONNECTED


class _PrunedSearch:
    """Depth-first search for sides A containing a and B containing b
    that leave every point an option inside its own side.  ``run`` holds
    a query; each ``search`` call expands one entry (A, B, points decided
    since the last closure) of its stack, so it is one search node.
    """

    def __init__(self, space: FiniteVSpace):
        # choices[x]: the mask of each of x's vicinities, in vicinity order,
        # so a position is an original index.  watchers[m]: the points with
        # an option that contains m, the only points whose forcing rule can
        # change when m is decided.
        self.choices: list[list[int]] = []
        self.watchers = watchers = [0] * space.num_points
        choices, systems = self.choices, space.systems
        for x in space.points:
            bit, masks = 1 << x, []
            for vic in systems[x].vicinities:
                mask = 0
                for m in vic:
                    mask |= 1 << m
                    watchers[m] |= bit
                masks.append(mask)
            choices.append(masks)

    def run(self, a: int, b: int, max_nodes: int) -> ConnectivityVerdict:
        stack = [(1 << a, 1 << b, 1 << a | 1 << b)]
        for _ in range(max_nodes):
            if (witness := self.search(stack)) is not None:
                return ConnectivityVerdict(False, witness)
            if not stack:
                return _CONNECTED
        raise BudgetExceededError(f"pruned search exceeded the node budget of {max_nodes}")

    def search(self, stack: list[tuple[int, int, int]]) -> dict[int, int] | None:
        sides = self._close(*stack.pop())
        if sides is None:
            return None
        side_a, side_b = sides
        choices = self.choices
        grown = frontier = side_a
        while frontier:
            added = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                for m in choices[low.bit_length() - 1]:
                    if not m & side_b:
                        added |= m
                        break
            frontier = added & ~grown
            grown |= frontier
        for side, first in ((grown, 0), (side_a, side_a), (side_b, side_b)):
            if (witness := self._witness(side, first)) is not None:
                return witness
        decided = side_a | side_b
        p = ~decided & (decided + 1)  # the lowest undecided point: one exists, or (A, B) was a cut
        stack.append((side_a | p, side_b, p))
        stack.append((side_a, side_b | p, p))
        return None

    def _witness(self, split: int, first: int = 0) -> dict[int, int] | None:
        """Each point's least original index whose vicinity lies inside
        its side of (split, the rest); None if some point has none.  The
        points of ``first``, a part of ``split``, are tested on masks
        before any index is recorded."""
        choices, outside = self.choices, ~split
        while first:
            low = first & -first
            first ^= low
            for m in choices[low.bit_length() - 1]:
                if not m & outside:
                    break
            else:
                return None
        witness = {}
        for x, options in enumerate(choices):
            avoid = outside if split >> x & 1 else split
            for i, m in enumerate(options):
                if not m & avoid:
                    witness[x] = i
                    break
            else:
                return None
        return witness

    def _close(self, side_a: int, side_b: int, new: int) -> tuple[int, int] | None:
        """Close the sides under the forcing rule; None on a conflict."""
        choices, watchers = self.choices, self.watchers
        while new:
            todo = new  # and their watchers; new ends at 0, ready for the points forced below
            while new:
                low = new & -new
                new ^= low
                todo |= watchers[low.bit_length() - 1]
            while todo:
                low = todo & -todo
                todo ^= low
                # fit_a, fit_b: the common part of the options avoiding B, A; -1 if none.
                fit_a = fit_b = -1
                for m in choices[low.bit_length() - 1]:
                    if not m & side_b:
                        fit_a &= m
                    if not m & side_a:
                        fit_b &= m
                if fit_b < 0:
                    if fit_a < 0:
                        return None
                    new |= fit_a & ~(side_a | side_b)
                    side_a |= fit_a
                elif fit_a < 0:
                    new |= fit_b & ~(side_a | side_b)
                    side_b |= fit_b
        return side_a, side_b


def is_connected(
    space: FiniteVSpace,
    a: int,
    b: int,
    engine: str = "brute",
    max_covers: int = DEFAULT_MAX_COVERS,
) -> ConnectivityVerdict:
    """Decide whether a and b are connected (a chain under every cover).

    Returns a ``ConnectivityVerdict``: connected, or not connected with
    a witness cover that admits no chain.  Raises BudgetExceededError
    rather than guessing when the search space exceeds ``max_covers``:
    covers for ``brute``, search nodes for ``pruned``.
    """
    require_search(engine, max_covers)
    require_valid_space(space)
    require_points(space, (a, b), "endpoints")
    return _decide(space, a, b, engine, max_covers)


def _decide(space: FiniteVSpace, a: int, b: int, engine: str, max_covers: int) -> ConnectivityVerdict:
    """``is_connected`` once its arguments have passed its checks."""
    if a == b:
        return _CONNECTED
    if engine == "brute":
        return _brute(space, a, b, max_covers)
    return _PrunedSearch(space).run(a, b, max_covers)
