"""Independent reference checks used to make and verify the goldens.

Nothing here calls into ``vspace``: spaces are read only through their
data (``num_points``, ``mode``, ``systems[p].vicinities``), so a bug in the
library's search, validation or tolerance code cannot hide in the oracle.

Connectedness is decided by a characterisation that shares no logic with
the library's cover search: a and b are *not* connected iff the points
split into S (holding a) and T (holding b) such that every point of S has
a vicinity inside S and every point of T has one inside T.  (Take S to
be a's component under a witness cover: a member z of a chosen V_x meets
z's own chosen vicinity, so V_x stays inside the component.  Conversely
such a split admits no overlap across it.)  Enumerating the 2^(n-2)
splits is feasible up to n = 20.
"""
from __future__ import annotations

import hashlib

WEAK = "weak"


def option_masks(space) -> list[list[int]]:
    """Per point, its distinct vicinities as int bitmasks."""
    out = []
    for p in range(space.num_points):
        seen: list[int] = []
        for vic in space.systems[p].vicinities:
            mask = 0
            for m in vic:
                mask |= 1 << m
            if mask not in seen:
                seen.append(mask)
        out.append(seen)
    return out


def connected(space, a: int, b: int) -> bool:
    """True iff a and b are connected under every cover (split enumeration)."""
    if a == b:
        return True
    n = space.num_points
    options = option_masks(space)
    full = (1 << n) - 1
    free = full & ~(1 << a) & ~(1 << b)
    order = [a, b] + [p for p in range(n) if p not in (a, b)]
    sub = 0
    while True:
        s = sub | 1 << a
        t = full ^ s
        for x in order:
            outside = t if s >> x & 1 else s
            if not any(o & outside == 0 for o in options[x]):
                break
        else:
            return False
        if sub == free:
            return True
        sub = (sub - free) & free


def chosen_set(space, p: int, index: int) -> frozenset:
    vics = space.systems[p].vicinities
    if index >= len(vics):
        if space.mode != WEAK:
            raise ValueError(f"index {index} out of range at point {p}")
        index = 0
    return vics[index]


def blocks_chain(space, cover, a: int, b: int) -> bool:
    """True iff the cover's overlap graph has no a-b path (DFS)."""
    n = space.num_points
    if sorted(cover) != list(range(n)):
        return False
    chosen = [chosen_set(space, p, cover[p]) for p in range(n)]
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in range(n):
            if y not in seen and not chosen[x].isdisjoint(chosen[y]):
                seen.add(y)
                stack.append(y)
    return b not in seen


def least_constant_indices(space, pi) -> tuple[list[int], dict[int, int]]:
    """(points without a constant vicinity, least constant index per point)."""
    bad = []
    indices = {}
    for p in range(space.num_points):
        for i, vic in enumerate(space.systems[p].vicinities):
            if len({pi[y] for y in vic}) == 1:
                indices[p] = i
                break
        else:
            bad.append(p)
    return bad, indices


def machine_halts_at(program, max_steps: int) -> int | None:
    """Steps a two-register program takes to halt (HALT counts), or None."""
    pc, regs, steps = 0, [0, 0], 0
    while 0 <= pc < len(program):
        if steps == max_steps:
            return None
        op = program[pc]
        steps += 1
        if op[0] == "HALT":
            return steps
        if op[0] == "INC":
            regs[op[1]] += 1
            pc += 1
        elif regs[op[1]] == 0:
            pc = op[2]
        else:
            regs[op[1]] -= 1
            pc += 1
    return steps


def canon_space(space) -> str:
    parts = [space.mode, str(space.num_points)]
    for p in range(space.num_points):
        parts.append("/".join(",".join(map(str, sorted(v))) for v in space.systems[p].vicinities))
    return "|".join(parts)


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
