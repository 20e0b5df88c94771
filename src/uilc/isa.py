"""Target instruction set and its assembly text format.

A small RISC-flavored register machine: loads and stores move words
between registers and frame slots, ALU and compare operands may be
registers or immediates, and control flow goes through labels.  Return
addresses are label values produced by `loadlabel` and consumed by
indirect jumps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial

from ._gc import gc_paused
from ._record import record
from .model import Reg
from .uil import WORD_MAX, WORD_MIN

Src = Reg | int  # register operand or immediate


@record
class Move:
    dst: int
    src: int


@record
class LoadImm:
    dst: int
    imm: int


@record
class Load:
    dst: int
    slot: int


@record
class Store:
    slot: int
    src: int


@record
class BinOpInst:
    op: str  # + - *
    dst: int
    a: Src
    b: Src


@record
class MemLoad:
    dst: int
    base: Src
    index: Src


@record
class MemStore:
    base: Src
    index: Src
    src: Src


@record
class CondJump:
    rel: str  # < <= = >= >
    a: Src
    b: Src
    target: str


@record
class Jump:
    target: str | Reg  # direct label or indirect through a register


@record
class LoadLabel:
    dst: int
    label: str


@record
class LabelDef:
    label: str


@record
class FrameAdjust:
    delta: int


@record
class Halt:
    pass


Inst = (
    Move
    | LoadImm
    | Load
    | Store
    | BinOpInst
    | MemLoad
    | MemStore
    | CondJump
    | Jump
    | LoadLabel
    | LabelDef
    | FrameAdjust
    | Halt
)


@dataclass
class TargetProgram:
    """Entry code followed by one labeled instruction block per procedure.

    ``clobbers`` maps each procedure to the registers a call to it may
    change, as its callers see them (the allocator's record; the code
    alone does not say which registers a procedure hands back).
    """

    entry: list[Inst] = field(default_factory=list)
    procs: list[tuple[str, list[Inst]]] = field(default_factory=list)
    clobbers: dict[str, frozenset[int]] = field(default_factory=dict, compare=False)

    def flatten(self) -> list[Inst]:
        insts = list(self.entry)
        for name, body in self.procs:
            insts.append(LabelDef(name))
            insts.extend(body)
        return insts


_BINOP_MNEMONIC = {"+": "add", "-": "sub", "*": "mul"}
_REL_MNEMONIC = {"<": "blt", "<=": "ble", "=": "beq", ">=": "bge", ">": "bgt"}


def _fmt_src(s: Src) -> str:
    return f"r{s.i}" if type(s) is Reg else str(s)


def _fmt_binop(inst: BinOpInst) -> str:
    op = _BINOP_MNEMONIC[inst.op]
    return f"  {op} r{inst.dst}, {_fmt_src(inst.a)}, {_fmt_src(inst.b)}"


def _fmt_condjump(inst: CondJump) -> str:
    op = _REL_MNEMONIC[inst.rel]
    return f"  {op} {_fmt_src(inst.a)}, {_fmt_src(inst.b)}, {inst.target}"


def _fmt_jump(inst: Jump) -> str:
    target = inst.target
    return f"  jmp r{target.i}" if type(target) is Reg else f"  jmp {target}"


# The assembly line of each instruction, by its exact type: a label alone,
# anything else indented two spaces.
_LINES = {
    Move: lambda inst: f"  move r{inst.dst}, r{inst.src}",
    LoadImm: lambda inst: f"  loadimm r{inst.dst}, {inst.imm}",
    Load: lambda inst: f"  load r{inst.dst}, fv{inst.slot}",
    Store: lambda inst: f"  store fv{inst.slot}, r{inst.src}",
    BinOpInst: _fmt_binop,
    MemLoad: lambda inst: f"  mload r{inst.dst}, {_fmt_src(inst.base)}, {_fmt_src(inst.index)}",
    MemStore: lambda inst: (
        f"  mstore {_fmt_src(inst.base)}, {_fmt_src(inst.index)}, {_fmt_src(inst.src)}"
    ),
    CondJump: _fmt_condjump,
    Jump: _fmt_jump,
    LoadLabel: lambda inst: f"  loadlabel r{inst.dst}, {inst.label}",
    LabelDef: lambda inst: f"{inst.label}:",
    FrameAdjust: lambda inst: f"  fp+= {inst.delta}",
    Halt: lambda inst: "  halt",
}


def _unknown(inst) -> str:
    raise TypeError(f"unknown instruction {inst!r}")


def format_inst(inst: Inst) -> str:
    kind = type(inst)
    line = _LINES.get(kind, _unknown)(inst)
    return line if kind is LabelDef else line[2:]


def format_insts(insts: list[Inst]) -> str:
    formatters = _LINES
    lines = [formatters.get(type(inst), _unknown)(inst) for inst in insts]
    return "\n".join(lines) + ("\n" if lines else "")


@gc_paused
def format_target(tp: TargetProgram) -> str:
    """Assembly text of the whole program, one instruction or label per line.

    Pauses the cyclic garbage collector while it runs (`_gc.gc_paused`).
    """
    return format_insts(tp.flatten())


_REG_RE = re.compile(r"^r([0-9]+)$")
_SLOT_RE = re.compile(r"^fv([0-9]+)$")
_INT_RE = re.compile(r"^-?[0-9]+$")


class AsmError(Exception):
    pass


def _parse_reg(tok: str) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise AsmError(f"expected a register, got {tok!r}")
    return int(m.group(1))


def _parse_slot(tok: str) -> int:
    m = _SLOT_RE.match(tok)
    if not m:
        raise AsmError(f"expected a frame slot, got {tok!r}")
    return int(m.group(1))


def _parse_src(tok: str) -> Src:
    m = _REG_RE.match(tok)
    if m:
        return Reg(int(m.group(1)))
    if _INT_RE.match(tok):
        return _parse_int(tok)
    raise AsmError(f"expected a register or immediate, got {tok!r}")


def _parse_int(tok: str) -> int:
    if not _INT_RE.match(tok):
        raise AsmError(f"expected an integer, got {tok!r}")
    if not WORD_MIN <= int(tok) <= WORD_MAX:
        raise AsmError(f"immediate {tok} does not fit a 64-bit word")
    return int(tok)


def _parse_target(tok: str) -> str | Reg:
    m = _REG_RE.match(tok)
    return Reg(int(m.group(1))) if m else tok


# each mnemonic's constructor and the parser of each of its operands
_SYNTAX = {
    "move": (Move, (_parse_reg, _parse_reg)),
    "loadimm": (LoadImm, (_parse_reg, _parse_int)),
    "load": (Load, (_parse_reg, _parse_slot)),
    "store": (Store, (_parse_slot, _parse_reg)),
    "mload": (MemLoad, (_parse_reg, _parse_src, _parse_src)),
    "mstore": (MemStore, (_parse_src, _parse_src, _parse_src)),
    "jmp": (Jump, (_parse_target,)),
    "loadlabel": (LoadLabel, (_parse_reg, str)),
    "fp+=": (FrameAdjust, (_parse_int,)),
    "halt": (Halt, ()),
    **{m: (partial(BinOpInst, op), (_parse_reg, _parse_src, _parse_src))
       for op, m in _BINOP_MNEMONIC.items()},
    **{m: (partial(CondJump, rel), (_parse_src, _parse_src, str))
       for rel, m in _REL_MNEMONIC.items()},
}


def parse_asm(text: str) -> list[Inst]:
    """Parse assembly text back into instructions (inverse of format_insts).

    A line with an unknown mnemonic, too few or too many operands, an
    operand of the wrong kind or an immediate outside a 64-bit word raises
    AsmError naming the line.
    """
    insts: list[Inst] = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        try:
            insts.append(_parse_line(line))
        except AsmError as e:
            raise AsmError(f"line {n}: {line!r}: {e}") from None
    return insts


def _parse_line(line: str) -> Inst:
    if line.endswith(":"):
        return LabelDef(line[:-1])
    if line.startswith("fp+="):  # the delta may follow without a space
        op, args = "fp+=", line[len("fp+=") :].split()
    else:
        op, *args = line.replace(",", " ").split()
    syntax = _SYNTAX.get(op)
    if syntax is None:
        raise AsmError(f"unknown mnemonic {op!r}")
    make, parsers = syntax
    if len(args) != len(parsers):
        raise AsmError(f"{op} takes {len(parsers)} operand(s), got {len(args)}")
    return make(*[parse(tok) for parse, tok in zip(parsers, args)])


def static_traffic(insts: list[Inst]) -> tuple[int, int, int]:
    """(loads, stores, register moves) present in the instruction list."""
    loads = sum(1 for i in insts if isinstance(i, Load))
    stores = sum(1 for i in insts if isinstance(i, Store))
    moves = sum(1 for i in insts if isinstance(i, Move))
    return loads, stores, moves


def opcode_name(inst: Inst) -> str:
    """Coarse opcode kind, used by golden tests: loadimm, store, binop, ..."""
    if isinstance(inst, BinOpInst):
        return "binop"
    if isinstance(inst, LoadImm):
        return "loadimm"
    return type(inst).__name__.lower()
