import copy
import pickle

import pytest

from vspace import (
    DECJZ,
    HALT,
    INC,
    EnumerationOracle,
    ValidationError,
    machine_enumeration,
)
from vspace import oracles
from vspace.files import parse_oracle, serialize_oracle

LOOP = ((DECJZ, 0, 0),)  # r0 stays zero: jumps to itself forever


def test_oracle_rejects_stage_beyond_bound():
    with pytest.raises(ValidationError):
        EnumerationOracle({2: 9}, 4)


def test_halt_program_enumerates_at_stage_one():
    oracle = machine_enumeration([LOOP, LOOP, ((HALT,),)], 4)
    assert oracle.entries == {2: 1}


def test_looping_program_never_enumerates():
    oracle = machine_enumeration([LOOP], 50)
    assert oracle.entries == {}


def test_seven_step_program_enumerates_at_stage_seven():
    seven = tuple([(INC, 0)] * 6 + [(HALT,)])
    programs = [LOOP] * 9 + [seven]
    oracle = machine_enumeration(programs, 10)
    assert oracle.entries == {9: 7}


def test_the_halt_step_counts_toward_the_stage():
    assert machine_enumeration([((HALT,),)], 10).entries.get(0) == 1
    assert machine_enumeration([()], 10).entries.get(0) == 0
    assert machine_enumeration([LOOP], 10).entries.get(0) is None


def test_decjz_decrements_then_falls_through():
    # r0 := 2, then loop subtracting 1 until zero, then halt.
    program = (
        (INC, 0),
        (INC, 0),
        (DECJZ, 0, 4),
        (DECJZ, 1, 2),
        (HALT,),
    )
    # Steps: 2 increments, then (dec r0, jump-on-r1) twice, then the
    # zero-test jump, then HALT.
    assert machine_enumeration([program], 20).entries.get(0) == 8


def test_machine_enumeration_is_reproducible():
    programs = [LOOP, ((HALT,),), tuple([(INC, 1)] * 3 + [(HALT,)])]
    first = machine_enumeration(programs, 12)
    second = machine_enumeration(programs, 12)
    assert first == second


def test_bad_instruction_rejected():
    with pytest.raises(ValidationError):
        machine_enumeration([(("NOP",),)], 3)
    with pytest.raises(ValidationError):
        machine_enumeration([((INC, 5),)], 3)


@pytest.mark.parametrize(
    "entries, stage_bound, message",
    [
        ({}, -1, "stage bound must be non-negative"),
        ({-1: 0}, 2, "enumerated value -1 must be non-negative"),
    ],
)
def test_oracle_rejects_negative_numbers(entries, stage_bound, message):
    with pytest.raises(ValidationError, match=message):
        EnumerationOracle(entries, stage_bound)


def test_machine_enumeration_rejects_an_empty_instruction():
    with pytest.raises(ValidationError, match="program 1: empty instruction at 0"):
        machine_enumeration([((HALT,),), ((),)], 3)


@pytest.mark.parametrize(
    "entries, stage_bound, message",
    [
        ({"x": 1}, 3, "enumerated value 'x' must be non-negative and an int"),
        ({1.5: 1}, 3, "enumerated value 1.5 must be non-negative and an int"),
        ({True: 1}, 3, "enumerated value True must be non-negative and an int"),
        ({1: 1.0}, 3, "stage 1.0 of value 1 is not an int in 0..3"),
        ({1: True}, 3, "stage True of value 1 is not an int in 0..3"),
        ({}, 2.5, "stage bound must be non-negative and an int, got 2.5"),
        ({}, True, "stage bound must be non-negative and an int, got True"),
    ],
    ids=["str-value", "float-value", "bool-value", "float-stage", "bool-stage", "float-bound", "bool-bound"],
)
def test_oracle_rejects_non_int_numbers(entries, stage_bound, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        EnumerationOracle(entries, stage_bound)


def test_oracle_keeps_a_read_only_copy_of_its_entries():
    entries = {3: 1}
    oracle = EnumerationOracle(entries, 3)
    entries[7] = 99
    assert oracle.entries == {3: 1}
    assert parse_oracle(serialize_oracle(oracle)) == oracle
    with pytest.raises(TypeError):
        oracle.entries[7] = 2


@pytest.mark.parametrize("clone", [lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy])
def test_oracle_copies_are_equal(clone):
    oracle = EnumerationOracle({3: 1, 0: 2}, 3)
    twin = clone(oracle)
    assert twin == oracle and twin.entries == {3: 1, 0: 2}


@pytest.mark.parametrize("entries, kind", [([3], "list"), (None, "NoneType"), (5, "int")])
def test_oracle_rejects_entries_that_are_not_a_mapping(entries, kind):
    with pytest.raises(ValidationError, match=f"^entries must be a mapping, got {kind}$"):
        EnumerationOracle(entries, 3)


@pytest.mark.parametrize(
    "programs, message",
    [
        ([5], "must be a tuple or list, got int"),
        ([None], "must be a tuple or list, got NoneType"),
        ([[5]], "bad instruction 5 at 0"),
        ([[{INC: 0}]], "bad instruction {'INC': 0} at 0"),
        ([((INC, 1.0),)], "bad instruction ('INC', 1.0) at 0"),
        ([((DECJZ, 1.0, 0),)], "bad instruction ('DECJZ', 1.0, 0) at 0"),
        ([((INC, True),)], "bad instruction ('INC', True) at 0"),
        ([((DECJZ, 0, True),)], "bad instruction ('DECJZ', 0, True) at 0"),
        ([((DECJZ, 0, 1.0),)], "bad instruction ('DECJZ', 0, 1.0) at 0"),
    ],
)
def test_machine_enumeration_rejects_malformed_programs(programs, message):
    with pytest.raises(ValidationError) as caught:
        machine_enumeration(programs, 3)
    assert str(caught.value) == f"program 0: {message}"


@pytest.mark.parametrize(
    "programs, kind", [(None, "NoneType"), (5, "int"), ("ab", "str"), (iter([((HALT,),)]), "list_iterator")]
)
def test_machine_enumeration_rejects_programs_that_are_not_a_tuple_or_list(programs, kind):
    with pytest.raises(ValidationError, match=f"^programs must be a tuple or list, got {kind}$"):
        machine_enumeration(programs, 3)


@pytest.mark.parametrize("bound", [None, -1, 2.5, True], ids=repr)
def test_machine_enumeration_checks_the_stage_bound_before_running(bound):
    with pytest.raises(ValidationError, match="stage bound must be non-negative and an int"):
        machine_enumeration([((HALT,),)], bound)


@pytest.mark.parametrize(
    "program, max_steps, message",
    [
        (((HALT,),), None, "stage bound must be non-negative and an int, got None"),
        (((HALT,),), 2.5, "stage bound must be non-negative and an int, got 2.5"),
        (((HALT,),), -1, "stage bound must be non-negative and an int, got -1"),
        ((("NOP",),), 3, r"program 0: bad instruction \('NOP',\) at 0"),
        (5, 3, "program 0: must be a tuple or list, got int"),
    ],
    ids=["none-budget", "float-budget", "negative-budget", "unknown-op", "int-program"],
)
def test_a_single_program_run_rejects_bad_input(program, max_steps, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        machine_enumeration([program], max_steps)


def test_machine_enumeration_checks_each_program_once_before_running_any(monkeypatch):
    checked, ran = [], []
    check, run = oracles._check_program, oracles._run
    monkeypatch.setattr(oracles, "_check_program", lambda *args: checked.append(args[0]) or check(*args))
    monkeypatch.setattr(oracles, "_run", lambda *args: ran.append(args) or run(*args))
    programs = [((HALT,),), LOOP, ((INC, 0), (HALT,))]
    assert machine_enumeration(programs, 4) == EnumerationOracle({0: 1, 2: 2}, 4)
    assert checked == ["program 0", "program 1", "program 2"]
    assert len(ran) == 3
    checked.clear()
    ran.clear()
    with pytest.raises(ValidationError, match="^program 2: bad instruction"):
        machine_enumeration([*programs[:2], (("NOP",),)], 4)
    assert checked == ["program 0", "program 1", "program 2"]
    assert ran == []
