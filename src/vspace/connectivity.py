"""Covers, overlap graphs, and the connectedness decision.

A cover picks one vicinity per point.  Two points are connected when
*every* cover admits a finite chain between them whose consecutive chosen
vicinities intersect.  A cover admitting no such chain is a witness that
the points are not connected.

Both engines search a compiled space: per point, its distinct vicinity
sets as int bitmasks (bit m set iff m is a member), each with its first
original index, so identical sets are collapsed (they induce identical
overlap graphs) while witness indices refer to the original sequence.
Vicinities meet iff their masks share a bit; one shortest-path routine
over masks, ``_path``, serves chains, cover checks and the pruned search.

* ``brute`` enumerates covers in lexicographic order of (point id,
  vicinity index) and returns the first witness found, so its witness is
  deterministic and stable for golden tests.  Its budget counts covers,
  checked up front before any search.
* ``pruned`` runs a branch-and-prune search.  An edge is *possible* when
  the unions of the two points' remaining options meet (some completion
  has it) and *sure* when every pair of remaining options meets (every
  completion has it).  Its budget counts search nodes.  It must return
  the same verdict as ``brute`` and a valid witness, not necessarily the
  same one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import or_
from typing import Callable, Mapping, Sequence

from .errors import BudgetExceededError, ValidationError
from .spaces import WEAK, FiniteVSpace, VicinitySystem, require_points, require_valid_space

# Hard cap on enumerated covers (brute) or visited search nodes (pruned).
DEFAULT_MAX_COVERS = 2**24

Cover = Mapping[int, int]


@dataclass(frozen=True)
class ConnectivityVerdict:
    """Outcome of the connectedness decision.

    ``connected`` means every cover admits a chain; no single example
    chain is attached because one cover's chain proves nothing about the
    rest.  ``witness`` is set exactly when not connected.
    """

    connected: bool
    witness: dict[int, int] | None = None


def resolve_choice(system: VicinitySystem, index: int) -> frozenset[int]:
    """The vicinity set a cover index denotes, honouring weak padding."""
    if not system.vicinities:
        raise ValidationError(f"point {system.owner} has an empty system")
    if index < 0:
        raise ValidationError(f"negative vicinity index {index} for point {system.owner}")
    if index >= len(system.vicinities):
        if system.mode == WEAK:
            return system.vicinities[0]
        raise ValidationError(
            f"index {index} out of range for point {system.owner} "
            f"(strong system of length {len(system.vicinities)})"
        )
    return system.vicinities[index]


def chosen_vicinities(space: FiniteVSpace, cover: Cover) -> dict[int, frozenset[int]]:
    """Each point's chosen vicinity set; validates the space, then the cover."""
    require_valid_space(space)
    missing = sorted(p for p in space.points if p not in cover)
    if missing:
        raise ValidationError(f"cover missing points {missing}")
    stray = sorted(p for p in cover if p not in space.points)
    if stray:
        raise ValidationError(f"cover mentions unknown points {stray}")
    return {p: resolve_choice(space.systems[p], cover[p]) for p in space.points}


def overlap_graph(space: FiniteVSpace, cover: Cover) -> dict[int, set[int]]:
    """Undirected graph with an edge wherever two chosen vicinities meet."""
    chosen = chosen_vicinities(space, cover)
    adj: dict[int, set[int]] = {p: set() for p in space.points}
    pts = list(space.points)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if not chosen[x].isdisjoint(chosen[y]):
                adj[x].add(y)
                adj[y].add(x)
    return adj


def chain_exists(space: FiniteVSpace, cover: Cover, a: int, b: int) -> list[int] | None:
    """Shortest chain from a to b under the cover, or None.

    a == b yields the length-zero chain [a].  Ties are broken by visiting
    neighbours in ascending order, so the result is deterministic.
    """
    chosen = chosen_vicinities(space, cover)
    require_points(space, (a, b), "endpoint")
    return _path([_mask(chosen[p]) for p in space.points], a, b)


def verify_witness(space: FiniteVSpace, cover: Cover, a: int, b: int) -> bool:
    """True iff the cover admits no chain from a to b."""
    return chain_exists(space, cover, a, b) is None


def _mask(vicinity: frozenset[int]) -> int:
    return sum(1 << m for m in vicinity)


def _compile(space: FiniteVSpace) -> list[list[tuple[int, int]]]:
    """Per point, its distinct vicinity sets as (first original index, mask)."""
    out = []
    for p in space.points:
        first: dict[int, int] = {}
        for i, vic in enumerate(space.systems[p].vicinities):
            first.setdefault(_mask(vic), i)
        out.append([(i, mask) for mask, i in first.items()])
    return out


def _path(masks: Sequence[int], a: int, b: int, linked: Callable | None = None) -> list[int] | None:
    """Shortest path from a to b, or None.

    x and y are joined when their masks meet and, if given, ``linked(x, y)``
    holds.  Neighbours are visited in ascending order, so ties are broken
    the same way every time.
    """
    if a == b:
        return [a]
    parent = [-1] * len(masks)
    parent[a] = a
    queue = [a]
    for x in queue:  # grows while it is read: breadth-first order
        mx = masks[x]
        for y, my in enumerate(masks):
            if mx & my and parent[y] < 0 and (linked is None or linked(x, y)):
                parent[y] = x
                if y == b:
                    path = [b]
                    while y != a:
                        y = parent[y]
                        path.append(y)
                    return path[::-1]
                queue.append(y)
    return None


def _sets_reachable(masks: list[int], a: int, b: int) -> bool:
    return _path(masks, a, b) is not None


def _brute(choices: list[list[tuple[int, int]]], a: int, b: int, max_covers: int) -> ConnectivityVerdict:
    total = prod(len(c) for c in choices)
    if total > max_covers:
        raise BudgetExceededError(f"{total} covers exceed the budget of {max_covers}")
    for combo in itertools.product(*choices):
        if not _sets_reachable([mask for _, mask in combo], a, b):
            return ConnectivityVerdict(False, {p: i for p, (i, _) in enumerate(combo)})
    return ConnectivityVerdict(True)


class _PrunedSearch:
    """Branch-and-prune over per-point vicinity choices.

    At each node the remaining options of every point bound the overlap
    graphs of all completions of the partial assignment.  If even the
    possible edges cannot join the endpoints, any completion is a witness
    (take option 0 wherever undecided).  If the sure edges join them, no
    completion is a witness (prune).  Otherwise branch on an undecided
    endpoint of the first edge that is not sure along a shortest possible
    path.
    """

    def __init__(self, choices, a, b, max_nodes):
        self.choices = choices
        self.masks = [[mask for _, mask in c] for c in choices]
        self.a = a
        self.b = b
        self.max_nodes = max_nodes
        self.nodes = 0
        self.assignment: list[int | None] = [0 if len(c) == 1 else None for c in choices]

    def search(self) -> dict[int, int] | None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"pruned search exceeded the node budget of {self.max_nodes}"
            )
        assignment = self.assignment
        options = [m if i is None else [m[i]] for m, i in zip(self.masks, assignment)]
        unions = [reduce(or_, o) for o in options]
        path = _path(unions, self.a, self.b)
        if path is None:
            return {p: c[i or 0][0] for p, (c, i) in enumerate(zip(self.choices, assignment))}

        def sure(x: int, y: int) -> bool:
            return all(u & v for u in options[x] for v in options[y])

        if _path(unions, self.a, self.b, sure) is not None:
            return None
        # The possible path has an edge that is not sure, else the sure
        # search above would have joined the endpoints.
        u, v = next((u, v) for u, v in zip(path, path[1:]) if not sure(u, v))
        branch_point = u if assignment[u] is None else v
        for option in range(len(self.masks[branch_point])):
            assignment[branch_point] = option
            found = self.search()
            if found is not None:
                break
        assignment[branch_point] = None
        return found


def is_connected(
    space: FiniteVSpace,
    a: int,
    b: int,
    engine: str = "brute",
    max_covers: int = DEFAULT_MAX_COVERS,
) -> ConnectivityVerdict:
    """Decide whether a and b are connected (a chain under every cover).

    Returns ``Connected`` or ``NotConnected`` with a witness cover that
    admits no chain.  Raises BudgetExceededError rather than guessing
    when the search space exceeds ``max_covers``: covers for ``brute``,
    search nodes for ``pruned``.
    """
    if max_covers < 0:
        raise ValidationError(f"max_covers must be non-negative, got {max_covers}")
    require_valid_space(space)
    require_points(space, (a, b), "endpoint")
    if engine not in ("brute", "pruned"):
        raise ValidationError(f"unknown engine {engine!r}")
    if a == b:
        return ConnectivityVerdict(True)
    choices = _compile(space)
    if engine == "brute":
        return _brute(choices, a, b, max_covers)
    witness = _PrunedSearch(choices, a, b, max_covers).search()
    if witness is None:
        return ConnectivityVerdict(True)
    return ConnectivityVerdict(False, witness)
