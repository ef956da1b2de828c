"""Shared test utilities: random generators and independent checkers.

The checkers here recompute expected results by direct enumeration,
deliberately avoiding the library's search/dedup/pruning code paths, so
they can serve as oracles for the implementations under test.
"""
from __future__ import annotations

import copy
import itertools
import pickle
import random

from vspace import STRONG, WEAK, FiniteVSpace, VicinitySystem, Violation, make_space

# Ways to clone a value: copy, deepcopy and a pickle round-trip.
CLONES = [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


def _reaches(sets, a: int, b: int) -> bool:
    """Local DFS over the overlap graph of the chosen sets."""
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in range(len(sets)):
            if y not in seen and sets[x] & sets[y]:
                seen.add(y)
                stack.append(y)
    return b in seen


def _path(masks, a: int, b: int) -> list[int] | None:
    """Reference breadth-first search: the shortest path from a to b, or
    None.  x and y are joined when their masks meet, and neighbours are
    visited in ascending order, so ties are broken the same way every time."""
    if a == b:
        return [a]
    parent = [-1] * len(masks)
    parent[a] = a
    queue = [a]
    for x in queue:  # grows while it is read: breadth-first order
        mx = masks[x]
        for y, my in enumerate(masks):
            if mx & my and parent[y] < 0:
                parent[y] = x
                if y == b:
                    path = [b]
                    while y != a:
                        y = parent[y]
                        path.append(y)
                    return path[::-1]
                queue.append(y)
    return None


def brute_force_connected(space: FiniteVSpace, a: int, b: int) -> bool:
    """Enumerate every cover over the raw (non-deduplicated) systems and
    check reachability with a local DFS."""
    pts = list(space.points)
    raw = [space.systems[p].vicinities for p in pts]
    for combo in itertools.product(*(range(len(r)) for r in raw)):
        if not _reaches([raw[p][combo[p]] for p in pts], a, b):
            return False
    return True


def first_witness(space: FiniteVSpace, a: int, b: int) -> dict[int, int] | None:
    """The first cover, in itertools.product order over the systems with
    repeated sets dropped (first occurrences kept), that admits no a-b
    chain; None when every cover admits one."""
    pts = list(space.points)
    raw = [space.systems[p].vicinities for p in pts]
    firsts = [[i for i, vic in enumerate(r) if vic not in r[:i]] for r in raw]
    for combo in itertools.product(*firsts):
        if not _reaches([raw[p][combo[p]] for p in pts], a, b):
            return dict(zip(pts, combo))
    return None


def _is_point(p, n: int) -> bool:
    return type(p) is int and 0 <= p < n


def _shape_fault(system) -> str:
    """Why a system cannot be read, as README words the shape rule ('' if it can)."""
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


def _key_rules(space: FiniteVSpace, key) -> list:
    """The violations of the system at one key, each rule checked in turn."""
    n = space.num_points
    if not _is_point(key, n):
        return [Violation("unknown-point", key, f"system keyed by point outside 0..{n - 1}")]
    system = space.systems[key]
    fault = _shape_fault(system)
    if fault:
        return [Violation("bad-system", key, fault)]
    p, vics, mode = system.owner, system.vicinities, system.mode
    out = []
    if type(p) is not int or p != key:
        out.append(Violation("owner-mismatch", key, f"system owner is {p}"))
    if mode not in (STRONG, WEAK):
        out.append(Violation("bad-mode", p, f"unknown mode {mode!r}"))
    if mode != space.mode:
        out.append(Violation("mode-mismatch", p, f"system mode {mode} != space mode {space.mode}"))
    if len(vics) == 0:
        out.append(Violation("empty-system", p, "system has no vicinities"))
    for i, vic in enumerate(vics):
        if p not in vic:
            out.append(Violation("owner-not-in-vicinity", p, f"vicinity {i} does not contain its owner"))
        stray = [q for q in vic if not _is_point(q, n)]
        if stray:  # named ints ascending, then the others by repr
            ints = sorted(q for q in stray if type(q) is int)
            others = sorted((q for q in stray if type(q) is not int), key=repr)
            out.append(Violation("member-out-of-range", p, f"vicinity {i} members {ints + others} outside 0..{n - 1}"))
    if mode == STRONG:
        for i, vic in enumerate(vics):
            for j in range(i):
                if vics[j] == vic:
                    out.append(Violation("duplicate-vicinity", p, f"vicinities {j} and {i} are equal sets"))
                    break
    return out


def reference_violations(space: FiniteVSpace) -> list:
    """``validate_space``'s list, rule by rule: a bad point count alone, else
    the space's mode, the points without a system, then each key's rules, int
    keys ascending and the others by repr."""
    n = space.num_points
    if not (type(n) is int and n >= 0):
        return [Violation("bad-size", None, f"point count {n!r} is not an int >= 0")]
    out = []
    if space.mode not in (STRONG, WEAK):
        out.append(Violation("bad-mode", None, f"unknown mode {space.mode!r}"))
    for p in range(n):
        if p not in space.systems:
            out.append(Violation("missing-system", p, "point has no vicinity system"))
    ints = sorted(key for key in space.systems if type(key) is int)
    others = sorted((key for key in space.systems if type(key) is not int), key=repr)
    for key in ints + others:
        out += _key_rules(space, key)
    return out


def double_loop_tolerant(space: FiniteVSpace, pi) -> set[int]:
    """Points with no constant vicinity, by direct double loop."""
    bad = set()
    for p in space.points:
        ok = False
        for vic in space.systems[p].vicinities:
            if len({pi[y] for y in vic}) <= 1:
                ok = True
                break
        if not ok:
            bad.add(p)
    return bad


def least_constant_indices(space: FiniteVSpace, pi) -> dict[int, int]:
    """Each point's least index whose vicinity carries at most one label,
    for the points that have one."""
    out = {}
    for p in space.points:
        for i, vic in enumerate(space.systems[p].vicinities):
            if len({pi[y] for y in vic}) <= 1:
                out[p] = i
                break
    return out


def antichains(p: int, n: int) -> list[tuple[frozenset[int], ...]]:
    """Every non-empty antichain of vicinities of point p among 0..n-1:
    families of sets holding p, none inside another, each family's sets and
    the families in a fixed order.  A verdict reads only a point's minimal
    options, so these are every system up to dominance (19 for n = 4)."""
    others = [q for q in range(n) if q != p]
    sets = [frozenset({p, *extra}) for k in range(n) for extra in itertools.combinations(others, k)]
    return [
        family
        for size in range(1, len(sets) + 1)
        for family in itertools.combinations(sets, size)
        if not any(s < t or t < s for s, t in itertools.combinations(family, 2))
    ]


def random_space(rng: random.Random, max_points: int = 6, max_vics: int = 3) -> FiniteVSpace:
    n = rng.randint(2, max_points)
    mode = WEAK if rng.random() < 0.25 else STRONG
    vicinities = {}
    for p in range(n):
        k = rng.randint(1, max_vics)
        vics: list[frozenset[int]] = []
        attempts = 0
        while len(vics) < k and attempts < 25:
            attempts += 1
            members = frozenset({p} | {q for q in range(n) if q != p and rng.random() < 0.4})
            if mode == STRONG and members in vics:
                continue
            vics.append(members)
        vicinities[p] = vics
    return make_space(vicinities, mode=mode, num_points=n)


def random_labeling(rng: random.Random, n: int, max_labels: int = 3) -> dict[int, str]:
    tokens = ["A", "B", "C"][: rng.randint(1, max_labels)]
    return {p: rng.choice(tokens) for p in range(n)}


def cover_count(space: FiniteVSpace) -> int:
    """Number of covers after collapsing identical vicinity sets."""
    total = 1
    for p in space.points:
        total *= len(set(space.systems[p].vicinities))
    return total


def _code(x: int, s: int) -> int:
    return (x + s) * (x + s + 1) // 2 + x


def reference_vicinities(x: int, point_bound: int, stage_bound: int) -> tuple[frozenset[int], ...]:
    """V_{x,n} = {x} + {code(x, t) : n <= t <= T, code(x, t) <= M} for
    n = 0..T, each set kept once, in order of first appearance."""
    vics: list[frozenset[int]] = []
    for n in range(stage_bound + 1):
        codes = {_code(x, t) for t in range(n, stage_bound + 1) if _code(x, t) <= point_bound}
        vic = frozenset({x} | codes)
        if vic not in vics:
            vics.append(vic)
    return tuple(vics)


def reference_coded_systems(entries, a: int, b: int, point_bound: int, stage_bound: int):
    """Per point, the vicinities of the coded space from the definition:
    the endpoint formulas for a and b, ``reference_vicinities`` otherwise."""
    seen = {x: s for x, s in entries.items() if s <= stage_bound}
    v_a = {a} | {_code(x, s) for x, s in seen.items() if _code(x, s) <= point_bound}
    v_b = {b} | {_code(x, s + 1) for x, s in seen.items() if _code(x, s + 1) <= point_bound}
    systems = {a: (frozenset(v_a),), b: (frozenset(v_b),)}
    for x in range(point_bound + 1):
        if x not in (a, b):
            systems[x] = reference_vicinities(x, point_bound, stage_bound)
    return systems


def reference_pi(entries, a: int, b: int, point_bound: int, stage_bound: int) -> dict[int, str]:
    """The labeling from its definition: bases pi(a) = "0", pi(b) = "1" and
    pi(0) = "0"; a code of V_a gets "0", a code of V_b gets "1", and any
    other y = code(x, s) copies pi(x).  Codes are found by pairing
    forward, not by unpairing."""
    seen = {x: s for x, s in entries.items() if s <= stage_bound}
    in_a = {_code(x, s) for x, s in seen.items()}
    in_b = {_code(x, s + 1) for x, s in seen.items()}
    owner = {}
    for x in range(point_bound + 1):
        s = 0
        while _code(x, s) <= point_bound:
            owner[_code(x, s)] = x
            s += 1
    pi = {a: "0", b: "1"}
    pi.setdefault(0, "0")
    for y in range(point_bound + 1):
        if y not in pi:
            pi[y] = "0" if y in in_a else "1" if y in in_b else pi[owner[y]]
    return pi
