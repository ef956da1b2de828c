"""Bounded enumeration oracles.

An oracle enumerates a finite set in stages: each number appears at most
once, at a definite stage, and membership is cumulative from that stage
on.  Scripted oracles state their entries directly; machine oracles
derive them by running toy register-machine programs under increasing
step budgets (program x enumerates x at stage s when s is the least
budget within which it halts).
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from types import MappingProxyType

from ._record import Record
from .errors import ValidationError

# Register machine instructions over two registers r0, r1:
#   ("INC", r)        increment register r, fall through
#   ("DECJZ", r, l)   if register r is zero jump to l, else decrement and fall through
#   ("HALT",)         stop
# A program counter outside the program also stops the machine.  Programs
# and instructions are tuples or lists, a register r is the int 0 or 1 and
# a jump target l is any int.
Instruction = tuple
Program = Sequence[Instruction]

INC = "INC"
DECJZ = "DECJZ"
HALT = "HALT"


class EnumerationOracle(Record):
    """Stage-indexed enumeration of a finite set of non-negative integers.

    ``entries`` is a read-only copy of the mapping given, so later changes
    to the caller's mapping cannot reach the oracle.
    """

    _fields = ("entries", "stage_bound")

    def __init__(self, entries: Mapping[int, int], stage_bound: int) -> None:
        _check_stage_bound(stage_bound)
        if not isinstance(entries, Mapping):
            raise ValidationError(f"entries must be a mapping, got {type(entries).__name__}")
        entries = MappingProxyType(dict(entries))
        for x, s in entries.items():
            if type(x) is not int or x < 0:
                raise ValidationError(f"enumerated value {x!r} must be non-negative and an int")
            if type(s) is not int or not 0 <= s <= stage_bound:
                raise ValidationError(f"stage {s!r} of value {x} is not an int in 0..{stage_bound}")
        self._store(entries, stage_bound)


def _check_stage_bound(stage_bound: int) -> None:
    if type(stage_bound) is not int or stage_bound < 0:
        raise ValidationError(f"stage bound must be non-negative and an int, got {stage_bound!r}")


def _check_program(name: str, program: Program) -> None:
    if not isinstance(program, (tuple, list)):
        raise ValidationError(f"{name}: must be a tuple or list, got {type(program).__name__}")
    for pc, ins in enumerate(program):
        if not isinstance(ins, (tuple, list)):
            raise ValidationError(f"{name}: bad instruction {ins!r} at {pc}")
        if not ins:
            raise ValidationError(f"{name}: empty instruction at {pc}")
        op = ins[0]
        register_ok = len(ins) > 1 and type(ins[1]) is int and ins[1] in (0, 1)
        if op == HALT:
            ok = len(ins) == 1
        elif op == INC:
            ok = len(ins) == 2 and register_ok
        elif op == DECJZ:
            ok = len(ins) == 3 and register_ok and type(ins[2]) is int
        else:
            ok = False
        if not ok:
            raise ValidationError(f"{name}: bad instruction {ins!r} at {pc}")


def _run(program: Program, max_steps: int) -> int | None:
    """Steps until the program halts, each executed instruction (HALT too) one step, or None past max_steps."""
    pc = 0
    regs = [0, 0]
    steps = 0
    while True:
        if pc < 0 or pc >= len(program):
            return steps
        if steps >= max_steps:
            return None
        ins = program[pc]
        steps += 1
        op = ins[0]
        if op == HALT:
            return steps
        if op == INC:
            regs[ins[1]] += 1
            pc += 1
        else:  # DECJZ
            if regs[ins[1]] == 0:
                pc = ins[2]
            else:
                regs[ins[1]] -= 1
                pc += 1


def machine_enumeration(programs: Sequence[Program], stage_bound: int) -> EnumerationOracle:
    """Oracle enumerating each program index at its least halting budget.

    Programs that do not halt within stage_bound steps get no entry.
    """
    if not isinstance(programs, (tuple, list)):
        raise ValidationError(f"programs must be a tuple or list, got {type(programs).__name__}")
    _check_stage_bound(stage_bound)
    for i, program in enumerate(programs):
        _check_program(f"program {i}", program)
    entries = {}
    for x, program in enumerate(programs):
        steps = _run(program, stage_bound)
        if steps is not None:
            entries[x] = steps
    return EnumerationOracle(entries, stage_bound)
