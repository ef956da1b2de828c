"""Constancy of labelings over vicinities.

A labeling is *tolerant* at a point when some vicinity of that point
carries a single label.  This module reports tolerance per point, builds
the cover that picks each point's least constant vicinity, and verifies
two facts that hold for every finite space:

* if two points are connected and carry different labels, some point has
  no constant vicinity (``check_nontol``);
* two differently labelled points are never connected in the space
  induced by the labeling (``check_nonconn``).

Both verifiers return a three-way outcome rather than a boolean so that
an unmet hypothesis is never confused with a counterexample.
"""
from __future__ import annotations

from ._record import Record
from .connectivity import _decide, chain_exists, require_search
from .errors import DEFAULT_MAX_COVERS, ValidationError
from .spaces import (
    FiniteVSpace,
    Labeling,
    induced_space,
    require_points,
    require_total_labeling,
    require_valid_space,
)

HOLDS = "holds"
NOT_APPLICABLE = "notapplicable"
REFUTED = "refuted"


class ToleranceReport(Record):
    """Per-point tolerance: violators and least constant indices.

    ``violations`` and ``tolerant_indices`` partition the point set;
    ``tolerant_indices`` lists its points in ascending order.
    """

    _fields = ("violations", "tolerant_indices")


class TheoremOutcome(Record):
    _fields = ("status", "reason", "violations", "witness")
    _defaults = {"reason": None, "violations": None, "witness": None}


# The outcomes that carry no data, shared: records are immutable.
_EQUAL_LABELS = TheoremOutcome(NOT_APPLICABLE, reason="equal labels")
_NOT_CONNECTED = TheoremOutcome(NOT_APPLICABLE, reason="not connected")


def tolerance_report(space: FiniteVSpace, pi: Labeling) -> ToleranceReport:
    """Classify every point as tolerant (with its least constant index) or not.

    Weak padding never produces a new constant index: indices past the
    end denote vicinity 0, which is examined first anyway.
    """
    require_valid_space(space)
    require_total_labeling(pi, space.points)
    return _tolerance(space, pi)


def _tolerance(space: FiniteVSpace, pi: Labeling) -> ToleranceReport:
    """``tolerance_report`` of a valid space and a total labeling.

    A valid vicinity holds its owner, so it is constant iff every member
    carries the owner's label.
    """
    violations = set()
    indices: dict[int, int] = {}
    systems = space.systems
    for p in space.points:
        label = pi[p]
        i = 0
        for vic in systems[p].vicinities:
            for y in vic:
                if pi[y] != label:
                    break
            else:
                indices[p] = i
                break
            i += 1
        else:
            violations.add(p)
    return ToleranceReport(frozenset(violations), indices)


def tolerant_cover(space: FiniteVSpace, pi: Labeling) -> dict[int, int]:
    """The cover choosing each point's least constant vicinity.

    Requires the labeling to be tolerant everywhere; the resulting cover
    has a constant labeling on every chosen vicinity.
    """
    report = tolerance_report(space, pi)
    if report.violations:
        bad = sorted(report.violations)
        raise ValidationError(f"no constant vicinity at points {bad}")
    return report.tolerant_indices


def check_nontol(
    space: FiniteVSpace,
    pi: Labeling,
    a: int,
    b: int,
    engine: str = "brute",
    max_covers: int = DEFAULT_MAX_COVERS,
) -> TheoremOutcome:
    """Connected endpoints with different labels force a tolerance failure.

    Returns Holds with the violating points, NotApplicable when the
    hypothesis fails, and Refuted if the implication ever failed (it
    cannot on a valid space; the acceptance suite sweeps this).
    """
    require_search(engine, max_covers)
    require_valid_space(space)
    require_total_labeling(pi, space.points)
    require_points(space, (a, b), "endpoints")
    if pi[a] == pi[b]:
        return _EQUAL_LABELS
    if not _decide(space, a, b, engine, max_covers).connected:  # is_connected, its checks made above
        return _NOT_CONNECTED
    report = _tolerance(space, pi)
    if report.violations:
        return TheoremOutcome(HOLDS, violations=report.violations)
    return TheoremOutcome(REFUTED)


def check_nonconn(points, pi: Labeling, a: int, b: int) -> TheoremOutcome:
    """Differently labelled points are not connected in the induced space.

    The induced space has a unique cover, which is returned as the
    witness on Holds.  Equal labels are a precondition error, not a
    NotApplicable outcome.
    """
    space = induced_space(points, pi)
    require_points(space, (a, b), "endpoints")
    if pi[a] == pi[b]:
        raise ValidationError("endpoints carry equal labels")
    unique_cover = {p: 0 for p in space.points}
    if chain_exists(space, unique_cover, a, b) is None:
        return TheoremOutcome(HOLDS, witness=unique_cover)
    return TheoremOutcome(REFUTED)

