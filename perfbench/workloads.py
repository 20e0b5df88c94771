"""Benchmark workloads: the inputs each one compiles, and how they are grouped.

A workload is a list of *items*, one per (program, register count, policy)
allocation, split into *chunks*.  A chunk is the unit the timed loop
measures: on acceptance, ten C5 programs and four C6 programs under all
their configurations; on large-pressure, one program at every register
count; on recursive-exec, every kernel under one configuration.  Each
chunk thus holds the same mix of configurations, and the median chunk
rate stays steady when a run ends part-way through a pass.

The run seed decides only the generated inputs.  On ``acceptance`` the
programs are the repository's own gate corpora (C5: generator seeds
0..499, C6: 0..199) and the run seed draws the heaps, so seed 0 is
exactly the C5 sweep and the assembly digest is the same for every seed.
On ``large-pressure`` the run seed picks the generator seeds, and on
``recursive-exec`` it draws the heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

KERNEL_DIR = Path(__file__).resolve().parent / "kernels"

C5_PROGRAMS = 500
C5_REGISTERS = (3, 4, 8)
C5_PER_CHUNK = 10
C6_PROGRAMS = 200
C6_REGISTERS = (2, 3)
C6_POLICIES = ("furthest", "lifo")
C6_PER_CHUNK = 4

# No procedures: with them, a few call sites that save 32 live values each
# dominate both time and traffic, and which programs get how many
# procedures swings the counts by a third from seed to seed.  Call traffic
# is measured by recursive-exec instead.
LARGE_PROGRAMS = 10
LARGE_STMTS = 3000
LARGE_PRESSURE_VARS = 32
LARGE_REGISTERS = (3, 4, 8)

KERNEL_REGISTERS = (2, 3, 4, 8)

WORKLOADS = ("acceptance", "large-pressure", "recursive-exec")

_MASK = (1 << 64) - 1


@dataclass
class Source:
    """One program as the compiler receives it: UIL source text."""

    name: str
    text: str
    stmts: int  # source statements, branch bodies and procedures included
    heap: list[int]
    expected: tuple[int, tuple[tuple[int, int], ...]] | None = None  # (value, writes)


@dataclass
class Item:
    """One allocation: a source at a register count under a policy."""

    index: int  # position in the fixed order the digest uses
    source: Source
    registers: int
    policy: str
    cfg: object
    oracle: bool = False  # also run the eviction oracle (straight-line, furthest)


@dataclass
class Workload:
    name: str
    seed: int
    items: list[Item]
    chunks: list[list[Item]]


def count_statements(program) -> int:
    def body(stmts) -> int:
        total = 0
        for s in stmts:
            total += 1
            then_body = getattr(s, "then_body", None)
            if then_body is not None:
                total += body(then_body) + body(s.else_body)
        return total

    return body(program.body) + sum(body(d.body) for d in program.definitions)


def _source(lib: SimpleNamespace, name: str, program, heap) -> Source:
    return Source(name, lib.uil.format_program(program), count_statements(program), heap)


def build(lib: SimpleNamespace, name: str, seed: int) -> Workload:
    """Generate the workload's programs and print them to source text."""
    if name == "acceptance":
        return _acceptance(lib, seed)
    if name == "large-pressure":
        return _large_pressure(lib, seed)
    if name == "recursive-exec":
        return _recursive_exec(lib, seed)
    raise ValueError(f"unknown workload {name!r}")


class _Items:
    def __init__(self, lib: SimpleNamespace):
        self.lib = lib
        self.items: list[Item] = []
        self._configs: dict[int, object] = {}

    def add(self, source: Source, registers: int, policy: str, oracle: bool = False) -> Item:
        cfg = self._configs.get(registers)
        if cfg is None:
            cfg = self._configs[registers] = self.lib.model.make_config(registers)
        item = Item(len(self.items), source, registers, policy, cfg, oracle)
        self.items.append(item)
        return item


def _acceptance(lib: SimpleNamespace, seed: int) -> Workload:
    gen, machine = lib.gen, lib.machine
    c5 = [
        _source(
            lib,
            f"c5:{i}",
            gen.generate_program(i),
            machine.heap_from_seed(seed * C5_PROGRAMS + i),
        )
        for i in range(C5_PROGRAMS)
    ]
    c6 = [
        _source(
            lib,
            f"c6:{i}",
            gen.generate_straight_line(i),
            machine.heap_from_seed(seed * C6_PROGRAMS + i),
        )
        for i in range(C6_PROGRAMS)
    ]
    out = _Items(lib)
    c5_items = [
        [out.add(src, r, policy) for r in C5_REGISTERS for policy in lib.allocator.POLICIES]
        for src in c5
    ]
    c6_items = [
        [
            out.add(src, r, policy, oracle=policy == "furthest")
            for r in C6_REGISTERS
            for policy in C6_POLICIES
        ]
        for src in c6
    ]
    chunks = []
    for c in range(C5_PROGRAMS // C5_PER_CHUNK):
        chunk = [it for per in c5_items[c * C5_PER_CHUNK : (c + 1) * C5_PER_CHUNK] for it in per]
        chunk += [it for per in c6_items[c * C6_PER_CHUNK : (c + 1) * C6_PER_CHUNK] for it in per]
        chunks.append(chunk)
    return Workload("acceptance", seed, out.items, chunks)


def _large_pressure(lib: SimpleNamespace, seed: int) -> Workload:
    gen, machine = lib.gen, lib.machine
    out = _Items(lib)
    chunks = []
    for i in range(LARGE_PROGRAMS):
        s = seed * LARGE_PROGRAMS + i
        program = gen.generate_program(
            s, max_procs=0, max_stmts=LARGE_STMTS, pressure_vars=LARGE_PRESSURE_VARS
        )
        src = _source(lib, f"large:{s}", program, machine.heap_from_seed(s))
        chunks.append([out.add(src, r, "furthest") for r in LARGE_REGISTERS])
    return Workload("large-pressure", seed, out.items, chunks)


# ---------------------------------------------------------------------------
# Recursive kernels and their expected observations, computed in plain
# Python so the reference is independent of both the simulator and the
# UIL interpreter.


def _wrap(v: int) -> int:
    v &= _MASK
    return v - (1 << 64) if v >> 63 else v


def _expect_fib(heap):
    def fib(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a

    x = fib(16)
    return x, ((0, x),)


def _expect_walk(heap):
    writes = []

    def walk(n, acc, base, mul, out):
        for i in range(n):
            acc = _wrap(acc * mul + heap[base + i])
        writes.extend((out + i, acc) for i in reversed(range(n)))
        for i in range(n):
            heap[out + i] = acc
        return acc

    heap = list(heap)
    x = walk(24, 1, 0, 31, 32)
    y = walk(24, x, 8, -7, 40)
    return _wrap(x + y), tuple(writes)


def _expect_evenodd(heap):
    return (3000 % 2 == 0) + (2001 % 2 == 1), ()


KERNELS = {"fib": _expect_fib, "walk": _expect_walk, "evenodd": _expect_evenodd}


def _recursive_exec(lib: SimpleNamespace, seed: int) -> Workload:
    heap = lib.machine.heap_from_seed(seed)
    sources = []
    for name, expect in KERNELS.items():
        text = (KERNEL_DIR / f"{name}.uil").read_text()
        src = Source(name, text, count_statements(lib.uil.parse(text)), heap)
        src.expected = expect(heap)
        sources.append(src)
    out = _Items(lib)
    chunks = [
        [out.add(src, r, policy) for src in sources]
        for r in KERNEL_REGISTERS
        for policy in lib.allocator.POLICIES
    ]
    return Workload("recursive-exec", seed, out.items, chunks)
