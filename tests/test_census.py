"""Every 4-point space up to dominance and relabeling, decided by both engines.

A verdict reads only each point's minimal options: a witness cover stays
a witness when a chosen vicinity is replaced by a subset, since that only
removes overlaps.  So the 4-point spaces up to dominance are the products
of per-point antichains, 19**4 = 130,321 spaces with 781,926 unordered
pairs, and up to relabeling by S4 there are 5,890.  Each is decided here
by ``brute`` and ``pruned`` and by a split oracle written below, which
uses nothing from ``connectivity``.  Dominated options and repeated
weak entries are not in the census; the random differentials cover them.
"""
import itertools

import vspace.connectivity as connectivity
from _helpers import _reaches, antichains, first_witness
from vspace import (
    HOLDS,
    STRONG,
    FiniteVSpace,
    VicinitySystem,
    check_nontol,
    is_connected,
    tolerance_report,
    verify_witness,
)

N = 4
PERMUTATIONS = list(itertools.permutations(range(N)))
FAMILIES = [antichains(p, N) for p in range(N)]


def _mask(vic) -> int:
    return sum(1 << q for q in vic)


def _image(sigma, family) -> tuple[int, ...]:
    """The family relabeled by sigma (point q becomes sigma[q]), as sorted masks."""
    return tuple(sorted(_mask(sigma[q] for q in vic) for vic in family))


def _orbit_type(p: int, family) -> tuple[int, ...]:
    """An invariant of (p, family) under relabeling: its least image with p sent to 0."""
    return min(_image(sigma, family) for sigma in PERMUTATIONS if sigma[p] == 0)


def orbit_representatives():
    """One space of each S4 orbit of the 130,321, with its orbit size.

    Relabeling the points so that their orbit types ascend reaches every
    orbit, and two such spaces of one orbit differ by a relabeling that
    keeps each point's type.  So the candidates are the spaces with
    ascending types, and a candidate represents its orbit when no
    type-keeping relabeling gives a smaller image.
    """
    types = [[_orbit_type(p, family) for family in FAMILIES[p]] for p in range(N)]
    order = sorted({t for per_point in types for t in per_point})
    rank = [[order.index(t) for t in per_point] for per_point in types]
    choices = [()]
    for p in range(N):  # extend each choice by the families of no lesser type
        choices = [c + (i,) for c in choices for i, r in enumerate(rank[p]) if not c or r >= rank[p - 1][c[-1]]]
    for choice in choices:
        kinds = [rank[p][i] for p, i in enumerate(choice)]
        families = [FAMILIES[p][i] for p, i in enumerate(choice)]
        keeping = [sigma for sigma in PERMUTATIONS if all(kinds[sigma[p]] == kinds[p] for p in range(N))]
        images = []
        for sigma in keeping:
            image = [()] * N
            for p in range(N):
                image[sigma[p]] = _image(sigma, families[p])
            images.append(tuple(image))
        if images[0] == min(images):  # keeping[0] is the identity
            yield families, len(PERMUTATIONS) // images.count(images[0])


def split(families, a: int, b: int) -> frozenset | None:
    """A side holding a and not b that leaves every point an option inside
    its own side (the cut lemma: a and b are not connected iff one exists),
    or None.  The 2**(N-2) sides are tried in a fixed order."""
    rest = [q for q in range(N) if q not in (a, b)]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            side = frozenset({a, *extra})
            if all(any(vic <= side if p in side else not vic & side for vic in families[p]) for p in range(N)):
                return side
    return None


REPRESENTATIVES = list(orbit_representatives())

# Search nodes of the pruned engine summed over every ordered pair of every
# representative.  An engine change that moves it rewrites it to the new
# exact value; a dropped completion shows here even when no verdict moves.
PRUNED_NODES = 71_192


def test_the_representatives_cover_every_space_once():
    assert len(REPRESENTATIVES) == 5_890
    assert sum(size for _, size in REPRESENTATIVES) == 19**N == 130_321


def test_every_pair_of_every_four_point_space_is_decided_as_the_split_oracle_decides(monkeypatch):
    nodes = 0
    search = connectivity._PrunedSearch.search

    def counted(self, stack):
        nonlocal nodes
        nodes += 1
        return search(self, stack)

    monkeypatch.setattr(connectivity._PrunedSearch, "search", counted)
    apart = 0
    for families, _ in REPRESENTATIVES:
        space = FiniteVSpace(N, {p: VicinitySystem(p, families[p], STRONG) for p in range(N)})
        for a, b in itertools.permutations(range(N), 2):  # both ways round: the search is not symmetric
            side = split(families, a, b)
            label = (families, a, b)
            brute, pruned = (is_connected(space, a, b, engine=engine) for engine in ("brute", "pruned"))
            assert brute.connected == pruned.connected == (side is None), label
            if side is None:
                if a < b:  # formalization (1): labels that differ at connected points break tolerance
                    outcome = check_nontol(space, {p: "A" if p == a else "B" for p in range(N)}, a, b)
                    assert outcome.status == HOLDS and outcome.violations, label
                continue
            apart += 1
            for verdict in (brute, pruned):
                assert verify_witness(space, verdict.witness, a, b), label
                assert not _reaches([families[p][verdict.witness[p]] for p in range(N)], a, b), label
            assert brute.witness == first_witness(space, a, b), label
            # The side's two-valued labeling is tolerant and tells a from b.
            pi = {p: "A" if p in side else "B" for p in range(N)}
            assert not tolerance_report(space, pi).violations, label
    assert 0 < apart < 12 * len(REPRESENTATIVES)
    assert nodes == PRUNED_NODES

