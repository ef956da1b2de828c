import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import vspace.coding as coding
import vspace.connectivity as connectivity
from _helpers import reference_coded_systems, reference_pi, reference_vicinities
from vspace import (
    CodedSpaceConfig,
    CodingConfigError,
    EnumerationOracle,
    FiniteVSpace,
    ValidationError,
    VicinitySystem,
    build_coded_space,
    decode_from_cover,
    is_connected,
    machine_enumeration,
    pair,
    tolerance_report,
    tolerant_cover,
    unpair,
    validate_config,
    validate_space,
    verify_roundtrip,
    verify_witness,
)
from vspace.oracles import DECJZ, HALT, INC

K1 = EnumerationOracle({3: 1}, 3)
K1_CONFIG = CodedSpaceConfig(a=0, b=2, point_bound=25, stage_bound=3)

# Labels of the K1 coded space, derived by applying the three-way rule
# upward from the bases pi(0)="0" (a) and pi(2)="1" (b); 1 = code(0, 1)
# copies pi(0), since 0 is never enumerated.
K1_PI = {
    0: "0", 1: "0", 2: "1", 3: "0", 4: "0", 5: "1", 6: "0", 7: "0", 8: "1",
    9: "0", 10: "0", 11: "0", 12: "1", 13: "0", 14: "0", 15: "0", 16: "0",
    17: "1", 18: "1", 19: "0", 20: "1", 21: "0", 22: "0", 23: "1", 24: "0",
    25: "0",
}


def test_pair_examples():
    assert pair(3, 1) == 13
    assert pair(0, 0) == 0
    assert unpair(18) == (3, 2)


@given(st.integers(0, 10**9))
def test_unpair_then_pair_roundtrip(code):
    x, s = unpair(code)
    assert pair(x, s) == code


@given(st.integers(0, 10**4), st.integers(0, 10**4))
def test_pair_then_unpair_roundtrip(x, s):
    assert unpair(pair(x, s)) == (x, s)


@given(st.integers(0, 10**4), st.integers(0, 10**4))
def test_pair_dominates_first_argument(x, s):
    code = pair(x, s)
    assert x <= code
    assert (x == code) == ((x, s) == (0, 0))


# Roles of codes under K1, where 3 is newly enumerated at stage 1 and no
# other value is enumerated.
ROLES = [
    (3, 0, None),  # before 3 appears
    (3, 1, coding.LABEL_A),  # 3 is new at this stage: the code is in V_a
    (3, 2, coding.LABEL_B),  # one stage after: the code is in V_b
    (3, 3, None),  # later still
    (9, 1, None),  # never enumerated
    (0, 0, None),
]


@pytest.mark.parametrize("x, s, role", ROLES, ids=[f"{x}-{s}" for x, s, _ in ROLES])
def test_the_role_of_a_code_reads_the_first_appearance_stage(x, s, role):
    assert coding._roles(dict(K1.entries), pair(x, s)).get(pair(x, s)) == role
    if role is not None:
        assert K1_PI[pair(x, s)] == role


def old_role_rule(entries, m):
    """The role rule read code by code: unpair each y <= m into (x, s)."""
    roles = {}
    for y in range(m + 1):
        x, s = unpair(y)
        if entries.get(x) == s:
            roles[y] = coding.LABEL_A
        elif s >= 1 and entries.get(x) == s - 1:
            roles[y] = coding.LABEL_B
    return roles


@given(st.dictionaries(st.integers(0, 20), st.integers(0, 6), max_size=6), st.integers(0, 400))
def test_a_value_has_one_code_of_each_role_exactly_when_enumerated(entries, m):
    entries = dict(EnumerationOracle(entries, 6).entries)
    roles = coding._roles(entries, pair(20, 7))
    for x in range(21):
        new = [entries[x]] if x in entries else []
        assert [s for s in range(8) if roles.get(pair(x, s)) == coding.LABEL_A] == new
        assert [s for s in range(8) if roles.get(pair(x, s)) == coding.LABEL_B] == [s + 1 for s in new]
    assert coding._roles(entries, m) == old_role_rule(entries, m)


# Oracles of at most two values, every value and stage small enough that
# its codes fall among the endpoints below.
SMALL_ORACLES = [EnumerationOracle({}, 4)] + [
    EnumerationOracle(entries, 4)
    for x in range(7)
    for s in range(5)
    for entries in ({x: s}, {1: 0, x: s})
]


def test_an_endpoint_is_named_a_code_exactly_when_the_role_table_gives_it_a_role():
    for oracle, t in itertools.product(SMALL_ORACLES, (2, 4)):
        for a, b in itertools.combinations(range(29), 2):
            config = CodedSpaceConfig(a, b, 28, t)
            bounded = coding._bounded_entries(oracle, config)
            roles = coding._roles(bounded, 28)
            problems = validate_config(oracle, config)
            for e, name in ((a, "a"), (b, "b")):
                x, s = unpair(e)
                message = f"endpoint {name}={e} is the code of ({x},{s}) with {x} newly enumerated at {bounded.get(x)}"
                assert (message in problems) == (e in roles)


def test_entries_past_the_stage_bound_are_not_read():
    # 5 is past the stage bound and 26 past the point bound.
    oracle = EnumerationOracle({3: 1, 5: 3, 6: 2, 26: 0}, 4)
    assert coding._bounded_entries(oracle, CodedSpaceConfig(a=0, b=2, point_bound=25, stage_bound=2)) == {3: 1, 6: 2}


def test_every_code_with_a_role_is_labelled_by_it():
    coded = build_coded_space(K1, K1_CONFIG)
    entries = coding._bounded_entries(K1, K1_CONFIG)
    roles = coding._roles(entries, K1_CONFIG.point_bound)
    assert roles == old_role_rule(entries, K1_CONFIG.point_bound)
    assert set(roles) == {pair(3, 1), pair(3, 2)}
    for y, role in roles.items():
        assert coded.pi[y] == role


def test_config_rejects_enumerated_endpoint():
    oracle = EnumerationOracle({0: 1}, 3)
    problems = validate_config(oracle, CodedSpaceConfig(0, 2, 25, 3))
    assert any("endpoint a=0 is enumerated" in p for p in problems)


def test_config_rejects_endpoint_claimed_by_first_code_clause():
    # 13 = code(3, 1) and 3 first appears at stage 1, so 13 would sit in
    # the vicinity of a as a code.
    problems = validate_config(K1, CodedSpaceConfig(0, 13, 25, 3))
    assert any("newly enumerated at 1" in p for p in problems)


def test_config_rejects_endpoint_claimed_by_second_code_clause():
    # 18 = code(3, 2): one stage past the appearance of 3.
    problems = validate_config(K1, CodedSpaceConfig(0, 18, 25, 3))
    assert any("code of (3,2)" in p for p in problems)


def test_config_rejects_required_code_beyond_point_bound():
    # code(3, 1) = 13 > 12 as well, but pair(3, .) increases, so the
    # headroom rule only needs to check code(3, T).
    problems = validate_config(K1, CodedSpaceConfig(0, 2, 12, 3))
    assert [p.split(":")[0] for p in problems] == ["code (3,3) = 24 exceeds point bound 12"]


def test_config_rejects_missing_stage_headroom():
    oracle = EnumerationOracle({3: 2}, 3)
    problems = validate_config(oracle, CodedSpaceConfig(0, 2, 25, 3))
    assert any("no constant vicinity" in p for p in problems)


def test_config_rejects_code_free_tail_vicinities():
    # code(3, 4) = 31 > 20: truncation would leave point 3 with a bare
    # vicinity that a witness could select, defeating the decode rule.
    oracle = EnumerationOracle({3: 1}, 4)
    problems = validate_config(oracle, CodedSpaceConfig(0, 2, 20, 4))
    assert any("code-free" in p for p in problems)


def test_config_rejects_zero_enumerated_late_without_being_an_endpoint():
    oracle = EnumerationOracle({0: 1}, 3)
    problems = validate_config(oracle, CodedSpaceConfig(2, 4, 25, 3))
    assert any("least-code decode rule" in p for p in problems)


def test_config_sizes_are_bounded(monkeypatch):
    monkeypatch.setattr(coding, "MAX_POINT_BOUND", 24)
    monkeypatch.setattr(coding, "MAX_STAGE_BOUND", 2)
    assert validate_config(K1, K1_CONFIG) == [
        "point bound 25 exceeds the limit 24",
        "stage bound 3 exceeds the limit 2",
    ]
    with pytest.raises(CodingConfigError):
        build_coded_space(K1, K1_CONFIG)
    monkeypatch.setattr(coding, "MAX_POINT_BOUND", 25)
    monkeypatch.setattr(coding, "MAX_STAGE_BOUND", 3)
    assert validate_config(K1, K1_CONFIG) == []


def test_config_rejects_endpoint_in_every_vicinity_of_a_point_labelled_apart(monkeypatch):
    # 6 = code(0, 3) = code(0, T) lies in every vicinity of 0, and
    # pi(0) = "0" while pi(b) = "1": 0 would have no constant vicinity.
    oracle, config = EnumerationOracle({}, 3), CodedSpaceConfig(4, 6, 19, 3)
    assert validate_config(oracle, config) == [
        "endpoint b=6 is the code of (0,3) and so lies in every vicinity of 0, "
        "but pi(0)=0 differs from pi(b)=1"
    ]
    monkeypatch.setattr(coding, "validate_config", lambda oracle, config: [])
    report = verify_roundtrip(oracle, config)
    assert not report.tolerance_ok and not report.passed
    assert report.witness is None and not report.witness_ok
    assert report.decoded_in == () and report.mismatches == ()


def test_config_keeps_an_endpoint_code_of_a_point_labelled_alike():
    # 6 = code(0, 3) again, now as a: pi(0) = pi(a) = "0", so V_{0,3} = {0, 6}
    # is constant and the config carries the coding.
    oracle = EnumerationOracle({}, 3)
    config = CodedSpaceConfig(6, 7, 19, 3)
    assert validate_config(oracle, config) == []
    assert verify_roundtrip(oracle, config).passed


def test_config_ignores_an_endpoint_code_below_the_stage_bound():
    # 6 = code(0, 3) with T = 4: V_{0,4} = {0, 10} avoids the endpoint.
    oracle = EnumerationOracle({}, 4)
    config = CodedSpaceConfig(4, 6, 19, 4)
    assert validate_config(oracle, config) == []
    assert verify_roundtrip(oracle, config).passed


def _sweep_configs(count: int, seed: int):
    """Seeded configs near the edge of validity, most of them invalid."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.randint(0, 6)
        a = rng.randint(0, 10)
        config = CodedSpaceConfig(a, a + rng.randint(1, 12), rng.randint(1, 80), t)
        entries = {x: rng.randint(0, t) for x in rng.sample(range(12), rng.randint(0, 3))}
        yield EnumerationOracle(entries, t), config


def test_every_accepted_config_passes_its_roundtrip():
    accepted = 0
    for oracle, config in _sweep_configs(2_000, seed=6):
        if not validate_config(oracle, config):
            accepted += 1
            report = verify_roundtrip(oracle, config)
            assert report.passed, (oracle, config)
            coded = build_coded_space(oracle, config)
            assert report.witness == tolerant_cover(coded.space, coded.pi)
            decoded = decode_from_cover(coded.space, report.witness, config.a, config.b)
            assert report.decoded_in == tuple(x for x in sorted(decoded) if decoded[x])
            entries = {x: s for x, s in oracle.entries.items() if s <= config.stage_bound}
            assert report.mismatches == tuple(coding.oracle_mismatches(decoded, entries))
    assert accepted >= 300


def test_build_rejects_invalid_config():
    with pytest.raises(CodingConfigError):
        build_coded_space(EnumerationOracle({0: 1}, 3), CodedSpaceConfig(0, 2, 25, 3))


def test_endpoint_vicinities_of_k1():
    coded = build_coded_space(K1, K1_CONFIG)
    assert coded.space.systems[0].vicinities == (frozenset({0, 13}),)
    assert coded.space.systems[2].vicinities == (frozenset({2, 18}),)


def test_enumerated_point_vicinities_of_k1():
    coded = build_coded_space(K1, K1_CONFIG)
    assert coded.space.systems[3].vicinities == (
        frozenset({3, 9, 13, 18, 24}),
        frozenset({3, 13, 18, 24}),
        frozenset({3, 18, 24}),
        frozenset({3, 24}),
    )


def test_truncated_vicinities_deduplicate_in_order():
    coded = build_coded_space(K1, K1_CONFIG)
    assert coded.space.systems[5].vicinities == (frozenset({5, 20}), frozenset({5}))
    for x in range(6, 26):
        assert coded.space.systems[x].vicinities == (frozenset({x}),)


def _differential_configs():
    """Seeded valid configs: stage bound 0, endpoints away from 0 (so the
    point 0 owns its own code (0, 0)), and oracle values beyond M."""
    rng = random.Random(4)
    out = []
    while len(out) < 60:
        t = rng.randint(0, 6)
        a = rng.randint(0, 3)
        b = a + rng.randint(1, 5)
        entries = {}
        if t >= 2:
            entries = {x: rng.randint(0, t - 2) for x in rng.sample(range(8), rng.randint(0, 3))}
        m = max([b] + [pair(x, t) for x in entries]) + rng.randint(0, 30)
        if rng.random() < 0.3:
            entries[m + rng.randint(1, 40)] = rng.randint(0, t)
        oracle, config = EnumerationOracle(entries, t), CodedSpaceConfig(a, b, m, t)
        if not validate_config(oracle, config):
            out.append((oracle, config))
    return out


DIFFERENTIAL_CONFIGS = _differential_configs()


def test_differential_configs_cover_the_edge_cases():
    configs = [c for _, c in DIFFERENTIAL_CONFIGS]
    assert any(c.stage_bound == 0 for c in configs)
    assert any(0 not in (c.a, c.b) for c in configs)
    assert any(any(x > c.point_bound for x in o.entries) for o, c in DIFFERENTIAL_CONFIGS)
    assert any(o.entries and max(o.entries) <= c.point_bound for o, c in DIFFERENTIAL_CONFIGS)
    # Some chain is cut by M between its first and last stage.
    assert any(
        pair(x, 0) <= c.point_bound < pair(x, c.stage_bound)
        for c in configs
        for x in range(c.point_bound + 1)
        if x not in (c.a, c.b)
    )
    # An endpoint among the owners of codes and one past them: the build
    # skips endpoints in both of its loops.
    assert any(pair(e, 0) <= c.point_bound for c in configs for e in (c.a, c.b))
    assert any(pair(e, 0) > c.point_bound for c in configs for e in (c.a, c.b))


@pytest.mark.parametrize("oracle,config", DIFFERENTIAL_CONFIGS)
def test_build_matches_the_reference_definition(oracle, config):
    coded = build_coded_space(oracle, config)
    expected = reference_coded_systems(
        oracle.entries, config.a, config.b, config.point_bound, config.stage_bound
    )
    assert {p: s.vicinities for p, s in coded.space.systems.items()} == expected
    points = range(config.point_bound + 1)
    assert list(coded.space.systems) == [config.a, config.b, *(x for x in points if x not in (config.a, config.b))]
    assert coded.pi == reference_pi(
        oracle.entries, config.a, config.b, config.point_bound, config.stage_bound
    )


def test_build_at_the_size_limits_matches_the_reference():
    m, t = coding.MAX_POINT_BOUND, coding.MAX_STAGE_BOUND
    coded = build_coded_space(EnumerationOracle({}, t), CodedSpaceConfig(0, 2, m, t))
    assert coded.space.num_points == m + 1
    for x in (1, 3, 4, 13, 140, 141, m):
        assert coded.space.systems[x].vicinities == reference_vicinities(x, m, t)


def test_coded_space_is_a_valid_strong_space():
    coded = build_coded_space(K1, K1_CONFIG)
    assert validate_space(coded.space) == []
    assert coded.space.mode == "strong"


def test_empty_oracle_coded_space():
    oracle = EnumerationOracle({}, 2)
    coded = build_coded_space(oracle, CodedSpaceConfig(0, 2, 5, 2))
    assert coded.space.systems[0].vicinities == (frozenset({0}),)
    assert coded.space.systems[2].vicinities == (frozenset({2}),)
    assert coded.space.systems[1].vicinities == (
        frozenset({1, 2, 4}),
        frozenset({1, 4}),
        frozenset({1}),
    )


def test_pi_of_k1_matches_the_threeway_rule():
    assert build_coded_space(K1, K1_CONFIG).pi == K1_PI


def test_pi_of_a_point_in_v_b_is_one_when_zero_is_enumerated_at_stage_zero():
    # 1 = code(0, 1) lies in V_b, so it must be labelled like b.
    oracle = EnumerationOracle({0: 0}, 3)
    coded = build_coded_space(oracle, CodedSpaceConfig(2, 5, 30, 3))
    assert 1 in coded.space.systems[5].vicinities[0]
    assert coded.pi[1] == "1"
    assert coded.pi == reference_pi(oracle.entries, 2, 5, 30, 3)


def test_roundtrip_zero_enumerated_at_stage_zero():
    report = verify_roundtrip(EnumerationOracle({0: 0}, 3), CodedSpaceConfig(2, 5, 30, 3))
    assert report.passed
    assert report.decoded_in == (0,)


def test_pi_labels_the_appearance_codes():
    pi = build_coded_space(K1, K1_CONFIG).pi
    assert pi[13] == "0"  # code of (3, 1): 3 newly at 1
    assert pi[18] == "1"  # code of (3, 2): one stage later
    assert pi[3] == pi[0] == "0"  # 3 = code(0, 2), 0 never enumerated


def test_pi_endpoint_labels_always_differ():
    for oracle, config in [
        (K1, K1_CONFIG),
        (EnumerationOracle({}, 2), CodedSpaceConfig(0, 2, 5, 2)),
        (EnumerationOracle({3: 1, 5: 4}, 6), CodedSpaceConfig(0, 2, 71, 6)),
    ]:
        pi = build_coded_space(oracle, config).pi
        assert pi[config.a] == "0"
        assert pi[config.b] == "1"


def test_appearance_codes_sit_in_both_endpoint_vicinities():
    coded = build_coded_space(K1, K1_CONFIG)
    assert pair(3, 1) in coded.space.systems[0].vicinities[0]
    assert pair(3, 2) in coded.space.systems[2].vicinities[0]


def test_constancy_threshold_around_the_appearance_stage():
    coded = build_coded_space(K1, K1_CONFIG)
    # Non-constant up to one stage past the appearance, constant after.
    assert tolerance_report(coded.space, coded.pi).tolerant_indices[3] == 3


def k1_all_covers(space):
    lengths = [len(space.systems[p].vicinities) for p in space.points]
    for combo in itertools.product(*(range(k) for k in lengths)):
        yield dict(enumerate(combo))


def test_witness_exclusion_below_the_appearance_stage():
    # No cover assigning point 3 a vicinity with index <= its appearance
    # stage can witness: both endpoint vicinities meet it.
    coded = build_coded_space(K1, K1_CONFIG)
    checked = 0
    for cover in k1_all_covers(coded.space):
        if cover[3] <= 1:
            assert not verify_witness(coded.space, cover, 0, 2)
            checked += 1
    assert checked == 64


def test_every_witness_decodes_the_oracle_exactly():
    coded = build_coded_space(K1, K1_CONFIG)
    expected = {x: x == 3 for x in range(26) if x not in (0, 2)}
    witnesses = 0
    for cover in k1_all_covers(coded.space):
        if verify_witness(coded.space, cover, 0, 2):
            witnesses += 1
            assert decode_from_cover(coded.space, cover, 0, 2) == expected
    assert witnesses == 64


def test_decode_of_tolerant_cover():
    coded = build_coded_space(K1, K1_CONFIG)
    cover = tolerant_cover(coded.space, coded.pi)
    assert cover[3] == 3
    decoded = decode_from_cover(coded.space, cover, 0, 2)
    assert decoded[3] is True
    assert decoded[4] is False
    assert decoded[13] is False  # its own codes exceed the point bound
    assert sorted(x for x, flag in decoded.items() if flag) == [3]


def test_decode_reads_a_hand_built_space_and_refuses_a_tuple_vicinity_at_a():
    # The decode reads V_a as a frozenset, so a tuple V_a must be refused
    # by validation, not reach it.
    coded = build_coded_space(K1, K1_CONFIG)
    cover = tolerant_cover(coded.space, coded.pi)
    systems = {p: VicinitySystem(p, tuple(frozenset(sorted(v)) for v in s.vicinities)) for p, s in coded.space.systems.items()}
    expected = {x: x == 3 for x in range(26) if x not in (0, 2)}
    assert decode_from_cover(FiniteVSpace(26, systems), cover, 0, 2) == expected
    systems[0] = VicinitySystem(0, tuple(tuple(sorted(v)) for v in systems[0].vicinities))
    with pytest.raises(ValidationError, match=r"bad-system \(point 0\): vicinity 0 is a tuple, not a frozenset"):
        decode_from_cover(FiniteVSpace(26, systems), cover, 0, 2)


def test_decode_rejects_non_witness_covers():
    coded = build_coded_space(K1, K1_CONFIG)
    all_zero = {p: 0 for p in coded.space.points}
    with pytest.raises(ValidationError):
        decode_from_cover(coded.space, all_zero, 0, 2)


def test_roundtrip_k1():
    report = verify_roundtrip(K1, K1_CONFIG)
    assert report.passed
    assert report.decoded_in == (3,)
    assert report.mismatches == ()


def test_roundtrip_searches_for_a_chain_once(monkeypatch):
    calls = []
    chain_exists = connectivity.chain_exists

    def counted(*args):
        calls.append(args)
        return chain_exists(*args)

    monkeypatch.setattr(connectivity, "chain_exists", counted)
    assert verify_roundtrip(K1, K1_CONFIG).passed
    assert len(calls) == 1


def test_roundtrip_empty_oracle():
    report = verify_roundtrip(EnumerationOracle({}, 2), CodedSpaceConfig(0, 2, 5, 2))
    assert report.passed
    assert report.decoded_in == ()


def test_roundtrip_two_enumerations():
    oracle = EnumerationOracle({3: 1, 5: 4}, 6)
    config = CodedSpaceConfig(0, 2, 71, 6)
    coded = build_coded_space(oracle, config)
    assert coded.space.systems[0].vicinities == (frozenset({0, 13, 50}),)
    assert coded.space.systems[2].vicinities == (frozenset({2, 18, 60}),)
    report = verify_roundtrip(oracle, config)
    assert report.passed
    assert report.decoded_in == (3, 5)


def test_any_witness_decodes_randomized_small_spaces():
    # Decode soundness is not a property of the tolerant cover alone:
    # every witness of every small valid config must decode the oracle.
    rng = random.Random(99)
    spaces_checked = 0
    for _ in range(25):
        t = rng.randint(3, 4)
        xs = rng.sample(range(3, 7), rng.randint(1, 2))
        entries = {x: rng.randint(0, t - 2) for x in xs}
        m = max(pair(x, t) for x in xs)
        oracle = EnumerationOracle(entries, t)
        config = CodedSpaceConfig(0, 2, m, t)
        assert validate_config(oracle, config) == []
        coded = build_coded_space(oracle, config)
        lengths = [len(coded.space.systems[p].vicinities) for p in coded.space.points]
        total = 1
        for k in lengths:
            total *= k
        if total > 2**12:
            continue
        expected = {x: x in entries for x in coded.space.points if x not in (0, 2)}
        for cover in k1_all_covers(coded.space):
            if verify_witness(coded.space, cover, 0, 2):
                assert decode_from_cover(coded.space, cover, 0, 2) == expected
        spaces_checked += 1
    assert spaces_checked >= 10


def test_pruned_engine_handles_a_large_coded_space():
    # Raw cover count here is about two million: far beyond exhaustive
    # testing comfort, easy prey for the pruned cut search.
    oracle = EnumerationOracle({3: 1, 5: 4}, 6)
    coded = build_coded_space(oracle, CodedSpaceConfig(0, 2, 71, 6))
    verdict = is_connected(coded.space, 0, 2, engine="pruned", max_covers=10_000)
    assert not verdict.connected
    assert verify_witness(coded.space, verdict.witness, 0, 2)
    decoded = decode_from_cover(coded.space, verdict.witness, 0, 2)
    assert sorted(x for x, flag in decoded.items() if flag) == [3, 5]


def test_roundtrip_machine_oracle():
    loop = ((DECJZ, 0, 0),)
    programs = [
        loop,                                  # 0 = a: must never halt
        ((HALT,),),                            # halts in 1 step
        loop,                                  # 2 = b
        ((INC, 0), (INC, 0), (HALT,)),         # halts in 3 steps
    ]
    oracle = machine_enumeration(programs, 5)
    assert oracle.entries == {1: 1, 3: 3}
    report = verify_roundtrip(oracle, CodedSpaceConfig(0, 2, 39, 5))
    assert report.passed
    assert report.decoded_in == (1, 3)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (pair, (-1, 0), "pair expects non-negative arguments"),
        (pair, (0, -1), "pair expects non-negative arguments"),
        (unpair, (-1,), "unpair expects a non-negative code"),
    ],
)
def test_pairing_rejects_negative_arguments(function, args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        function(*args)


@pytest.mark.parametrize(
    "config, message",
    [
        (CodedSpaceConfig(2, 2, 25, 3), "endpoints must satisfy 0 <= a < b, got a=2 b=2"),
        (CodedSpaceConfig(0, 2, 25, -1), "stage bound -1 must be non-negative"),
    ],
)
def test_config_rejects_bad_endpoints_and_stage_bound(config, message):
    assert message in validate_config(K1, config)


def test_oracle_mismatches_lists_each_disagreement_ascending():
    decoded = {5: True, 3: True, 4: False, 6: False}
    assert coding.oracle_mismatches(decoded, {4: 1, 5: 0}) == [(3, True, False), (4, False, True)]


@pytest.mark.parametrize(
    "config, message",
    [
        (CodedSpaceConfig(0, 2, 25.0, 3), "point bound must be an int, got 25.0"),
        (CodedSpaceConfig(0, True, 25, 3), "b must be an int, got True"),
        (CodedSpaceConfig("0", 2, 25, 3), "a must be an int, got '0'"),
        (CodedSpaceConfig(0, 2, 25, 3.0), "stage bound must be an int, got 3.0"),
    ],
    ids=["float-point-bound", "bool-b", "str-a", "float-stage-bound"],
)
def test_config_rejects_non_int_fields(config, message):
    assert validate_config(EnumerationOracle({}, 3), config) == [message]
    with pytest.raises(CodingConfigError, match=f"^{message}$"):
        build_coded_space(EnumerationOracle({}, 3), config)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (pair, (1.5, 2), r"pair expects ints, got \(1.5, 2\)"),
        (pair, (True, 1), r"pair expects ints, got \(True, 1\)"),
        (pair, (0, "1"), r"pair expects ints, got \(0, '1'\)"),
        (unpair, (2.5,), "unpair expects an int, got 2.5"),
        (unpair, (True,), "unpair expects an int, got True"),
    ],
)
def test_pairing_rejects_non_int_arguments(function, args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        function(*args)
