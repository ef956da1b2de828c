"""Coding an enumeration oracle into a vicinity space.

Given an oracle and two designated points a < b, the coded space gives a
and b one vicinity each,

    V_a = {a} + {code(x, s) : x first enumerated at s}
    V_b = {b} + {code(x, s) : s >= 1 and x first enumerated at s - 1}

while every other point x gets the descending family

    V_{x,n} = {x} + {code(x, t) : n <= t <= T},

everything truncated to the points 0..M and deduplicated.  The two-value
labeling pi gives the codes in V_a label 0, those in V_b label 1, and
any other y = code(x, s) the label of x < y, from the bases pi(a) = 0,
pi(b) = 1 and pi(0) = 0.  It is tolerant everywhere, yet a and b are
labelled apart and so are never connected.  The payoff is the reverse
direction: from any cover witnessing that (and the designated
endpoints), the oracle's membership can be read back without consulting
the oracle, because x was enumerated at stage s exactly when code(x, s)
lies in the witnessed vicinity of a, and any witness must pick a late
enough vicinity for enumerated points.

Codes use the pairing code(x, s) = (x+s)(x+s+1)/2 + x, a bijection with
x <= code(x, s) and equality only at (0, 0).
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import isqrt

from ._record import Record
from .connectivity import Cover, resolve_choice, verify_witness
from .errors import CodingConfigError, ValidationError
from .oracles import EnumerationOracle
from .spaces import STRONG, FiniteVSpace, VicinitySystem
from .tolerance import tolerance_report

LABEL_A = "0"
LABEL_B = "1"

# Largest point and stage bounds accepted.  A build costs O(M) for the
# points and their labels plus one step per code within 0..M: each point
# stops at its first code past M, which for most points is its first.
MAX_POINT_BOUND = 10_000
MAX_STAGE_BOUND = 100


def pair(x: int, s: int) -> int:
    """Diagonal pairing code of (x, s)."""
    if type(x) is not int or type(s) is not int:
        raise ValidationError(f"pair expects ints, got ({x!r}, {s!r})")
    if x < 0 or s < 0:
        raise ValidationError("pair expects non-negative arguments")
    d = x + s
    return d * (d + 1) // 2 + x


def unpair(code: int) -> tuple[int, int]:
    """Inverse of pair."""
    if type(code) is not int:
        raise ValidationError(f"unpair expects an int, got {code!r}")
    if code < 0:
        raise ValidationError("unpair expects a non-negative code")
    d = (isqrt(8 * code + 1) - 1) // 2
    x = code - d * (d + 1) // 2
    return x, d - x


class CodedSpaceConfig(Record):
    """Designated endpoints and the finite cut-offs of a coded space.

    Points run 0..point_bound, stages 0..stage_bound.
    """

    _fields = ("a", "b", "point_bound", "stage_bound")


class CodedSpace(Record):
    _fields = ("space", "pi", "config")


class RoundtripReport(Record):
    """Results of the end-to-end coding check.

    ``decoded_in`` lists the points the tolerant witness decodes as
    enumerated; ``mismatches`` pairs each disagreeing point with
    (decoded, expected).
    """

    _fields = (
        "labels_differ", "tolerance_ok", "witness_ok", "agreement_ok", "decoded_in", "mismatches", "witness"
    )

    @property
    def passed(self) -> bool:
        return self.labels_differ and self.tolerance_ok and self.witness_ok and self.agreement_ok


def _bounded_entries(oracle: EnumerationOracle, config: CodedSpaceConfig) -> dict[int, int]:
    """Oracle entries a coded space can see: x within the point bound, s within the stage bound."""
    m, t = config.point_bound, config.stage_bound
    return {x: s for x, s in oracle.entries.items() if x <= m and s <= t}


def _roles(entries: dict[int, int], m: int) -> dict[int, str]:
    """The appearance codes within 0..m and their roles: code(x, s) is in V_a
    (LABEL_A) and code(x, s + 1) in V_b (LABEL_B) when x is newly enumerated
    at s.  ``pair`` is a bijection, so no code gets both roles."""
    roles: dict[int, str] = {}
    for x, s in entries.items():
        if (y := pair(x, s)) <= m:
            roles[y] = LABEL_A
            if (y := y + x + s + 1) <= m:  # code(x, s + 1)
                roles[y] = LABEL_B
    return roles


def _labeling(
    entries: dict[int, int], config: CodedSpaceConfig
) -> tuple[dict[int, str], dict[int, str], list[list[int]]]:
    """pi, the role table of ``_roles``, and each coded owner's codes of stage <= T.

    One pass reads each y = code(x, s) in 0..M once, diagonal by
    diagonal: on diagonal d = x + s, y runs up from d(d+1)/2 as x runs
    up from 0, so y ascends without unpairing.  A role of y (V_a or V_b)
    is y's label; otherwise y copies pi(x), x < y, except at the bases
    pi(a) = 0, pi(b) = 1, pi(0) = 0.  Only an x with code(x, 0) <= M owns
    codes: its list opens at that code, the last y of diagonal x, and
    takes its codes in ascending s.
    """
    a, b, m, t = config.a, config.b, config.point_bound, config.stage_bound
    roles = _roles(entries, m)
    pi = {0: LABEL_A, a: LABEL_A, b: LABEL_B}
    codes: list[list[int]] = []
    y = d = 0
    while y <= m:  # y = d(d+1)/2, the code of (0, d)
        for x in range(min(d, m - y) + 1):
            pi.setdefault(y, roles.get(y, pi[x]))
            if x == d:  # y = code(x, 0)
                codes.append([y])
            elif d - x <= t:
                codes[x].append(y)
            y += 1
        d += 1
    return pi, roles, codes


def validate_config(oracle: EnumerationOracle, config: CodedSpaceConfig) -> list[str]:
    """All reasons the configuration cannot carry the coding (empty = valid).

    An endpoint must not be enumerated nor be an appearance code, and an
    endpoint code(x, T) of a non-endpoint x lies in every vicinity of x,
    so it must share x's label.  Every value x <= M enumerated at stage s
    needs headroom: s + 2 <= T and code(x, T) <= M, which keeps every
    code of x up to stage T within 0..M (code(x, .) increases).  Otherwise
    truncation leaves x with a code-free vicinity that a witness cover
    may select, and the decode step would under-report x.
    """
    a, b, m, t = config.a, config.b, config.point_bound, config.stage_bound
    fields = (("a", a), ("b", b), ("point bound", m), ("stage bound", t))
    problems = [f"{name} must be an int, got {value!r}" for name, value in fields if type(value) is not int]
    if problems:
        return problems
    if not 0 <= a < b:
        problems.append(f"endpoints must satisfy 0 <= a < b, got a={a} b={b}")
    if b > m:
        problems.append(f"endpoint b={b} exceeds point bound {m}")
    if t < 0:
        problems.append(f"stage bound {t} must be non-negative")
    if m > MAX_POINT_BOUND:
        problems.append(f"point bound {m} exceeds the limit {MAX_POINT_BOUND}")
    if t > MAX_STAGE_BOUND:
        problems.append(f"stage bound {t} exceeds the limit {MAX_STAGE_BOUND}")
    if problems:
        return problems
    entries = _bounded_entries(oracle, config)
    pi: dict[int, str] = {}
    for e, name in ((a, "a"), (b, "b")):
        if e in entries:
            problems.append(f"endpoint {name}={e} is enumerated (stage {entries[e]})")
        x, s = unpair(e)
        if entries.get(x) in (s, s - 1):  # e = code(x, s) <= M has a role of ``_roles``
            problems.append(
                f"endpoint {name}={e} is the code of ({x},{s}) with {x} newly enumerated at {entries[x]}"
            )
        elif s == t and x not in (a, b):
            pi = pi or _labeling(entries, config)[0]
            if pi[x] != pi[e]:
                problems.append(
                    f"endpoint {name}={e} is the code of ({x},{t}) and so lies in every vicinity "
                    f"of {x}, but pi({x})={pi[x]} differs from pi({name})={pi[e]}"
                )
    if 0 not in (a, b) and entries.get(0, 0) >= 1:
        problems.append(
            "0 enumerated at a positive stage but not an endpoint: "
            "its own code (0,0) would defeat the least-code decode rule"
        )
    for x in sorted(entries):
        s = entries[x]
        if s + 2 > t:
            problems.append(
                f"value {x} enumerated at stage {s} leaves no constant vicinity below stage bound {t}"
            )
        if pair(x, t) > m:
            problems.append(
                f"code ({x},{t}) = {pair(x, t)} exceeds point bound {m}: "
                f"truncation would leave {x} a code-free vicinity"
            )
    return problems


def build_coded_space(oracle: EnumerationOracle, config: CodedSpaceConfig) -> CodedSpace:
    """Construct the coded space and its labeling (see ``_labeling``) for a valid config."""
    if problems := validate_config(oracle, config):
        raise CodingConfigError("; ".join(problems))
    a, b, m, t = config.a, config.b, config.point_bound, config.stage_bound
    pi, roles, codes = _labeling(_bounded_entries(oracle, config), config)
    systems: dict[int, VicinitySystem] = {}
    for e, label in ((a, LABEL_A), (b, LABEL_B)):  # V_a and V_b: the endpoint and the codes of its role
        systems[e] = VicinitySystem(e, (frozenset([e, *(y for y, r in roles.items() if r == label)]),), STRONG)
    for x, owned in enumerate(codes):
        if x == a or x == b:
            continue
        # owned is code(x, 0..k-1), the codes of x within 0..M, and
        # V_{x,n} = V_{x,n+1} + {code(x, n)}: grow the chain from n = T
        # down, keeping each set once, then restore ascending n.
        members = {x}
        chain = [frozenset(members)] if len(owned) <= t else []
        for code in reversed(owned):
            members.add(code)
            vic = frozenset(members)
            if not chain or vic != chain[-1]:
                chain.append(vic)
        systems[x] = VicinitySystem(x, tuple(chain[::-1]), STRONG)
    for x in range(len(codes), m + 1):  # code(x, 0) > M: the one vicinity {x}
        if x != a and x != b:
            systems[x] = VicinitySystem(x, (frozenset((x,)),), STRONG)
    space = FiniteVSpace(m + 1, systems, STRONG)
    return CodedSpace(space, pi, config)


def _least_stages(codes: Iterable[int]) -> dict[int, int]:
    """Each owner x's least stage s with code(x, s) among the codes."""
    stages: dict[int, int] = {}
    for code in codes:
        x, s = unpair(code)
        if s < stages.get(x, s + 1):
            stages[x] = s
    return stages


def decode_from_cover(space: FiniteVSpace, cover: Cover, a: int, b: int) -> dict[int, bool]:
    """Recover enumerated-set membership from a witness cover.

    For each point x other than the endpoints, find the least t with
    code(x, t) in x's chosen vicinity; x is reported enumerated iff such
    a t exists and x's first-appearance stage (read from a's chosen
    vicinity) is at most t.  Vicinities holding no code of their owner
    decode as not enumerated.  The cover must witness that a and b are
    not connected.
    """
    decoded = _read_back(space, cover, a, b)
    if decoded is None:
        raise ValidationError("cover is not a witness: it admits a chain between the endpoints")
    return decoded


def _read_back(space: FiniteVSpace, cover: Cover, a: int, b: int) -> dict[int, bool] | None:
    """``decode_from_cover``'s decode in ascending point order, or None if the cover admits an a-b chain."""
    if not verify_witness(space, cover, a, b):
        return None
    # a sits in V_a as a base point, not as a code.
    stages = _least_stages(resolve_choice(space.systems[a], cover[a]) - {a})
    decoded = {x: False for x in space.points if x != a and x != b}
    # Only a point with a code in V_a can decode as enumerated.
    for x, s in stages.items():
        if x in decoded:
            own = _least_stages(resolve_choice(space.systems[x], cover[x])).get(x)
            decoded[x] = own is not None and s <= own
    return decoded


def oracle_mismatches(decoded: dict[int, bool], entries: Mapping[int, int]) -> list[tuple[int, bool, bool]]:
    """(x, decoded, expected) for each x whose decoded membership differs from the oracle's, ascending."""
    return [(x, flag, x in entries) for x, flag in sorted(decoded.items()) if flag != (x in entries)]


def verify_roundtrip(oracle: EnumerationOracle, config: CodedSpaceConfig) -> RoundtripReport:
    """Build, witness, decode, and compare against the oracle.

    Checks, in order: the endpoint labels differ; the labeling is
    tolerant at every point; the cover of least constant vicinities
    witnesses non-connectedness; decoding that cover agrees with oracle
    membership on every non-endpoint point up to the stage bound.
    """
    coded = build_coded_space(oracle, config)
    space, pi, cfg = coded.space, coded.pi, coded.config
    report = tolerance_report(space, pi)
    witness = None if report.violations else report.tolerant_indices
    decoded = None if witness is None else _read_back(space, witness, cfg.a, cfg.b)
    mismatches = () if decoded is None else tuple(oracle_mismatches(decoded, _bounded_entries(oracle, cfg)))
    return RoundtripReport(
        labels_differ=pi[cfg.a] != pi[cfg.b],
        tolerance_ok=witness is not None,
        witness_ok=decoded is not None,
        agreement_ok=decoded is not None and not mismatches,
        decoded_in=() if decoded is None else tuple(x for x, flag in decoded.items() if flag),
        mismatches=mismatches,
        witness=witness,
    )
