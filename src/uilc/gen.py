"""Seeded random generation of valid UIL programs.

Used by the fuzz command and the differential test suite.  Generation
tracks definitely-assigned variables so every emitted reference is
defined on all paths, keeps the call graph acyclic (a procedure only
calls earlier ones), and biases variable counts so register pressure
around typical register counts actually exercises eviction.
"""

from __future__ import annotations

import random

from .uil import (
    Assign,
    BinExpr,
    Call,
    Cmp,
    Definition,
    If,
    MemRead,
    MemWrite,
    Program,
    ReturnValue,
    Statement,
    count_statements,
)

HEAP_BASE_MAX = 47
HEAP_INDEX_MAX = 15
MAX_VARS = 10  # variable budget of a program without pressure_vars: 4..MAX_VARS
# generate_straight_line stays within machine.ORACLE_MAX_VARS; its short bodies keep
# the acceptance corpus quick
STRAIGHT_LINE_STMTS = 10
STRAIGHT_LINE_VARS = 6


class _BodyGen:
    def __init__(
        self,
        rng: random.Random,
        callables: list[tuple[str, int]],
        var_prefix: str,
        max_vars: int,
    ):
        self.rng = rng
        self.callables = callables
        self.var_prefix = var_prefix
        self.max_vars = max_vars
        self.names: list[str] = []

    def _new_var(self) -> str:
        if self.names and (len(self.names) >= self.max_vars or self.rng.random() < 0.3):
            return self.rng.choice(self.names)  # redefinition
        name = f"{self.var_prefix}{len(self.names)}"
        self.names.append(name)
        return name

    def _operand(self, defined: set[str], imm_ratio: float = 0.25):
        if defined and self.rng.random() > imm_ratio:
            return self.rng.choice(sorted(defined))
        return self.rng.randint(-99, 99)

    def _imm_addr(self) -> tuple[int, int]:
        return self.rng.randint(0, HEAP_BASE_MAX), self.rng.randint(0, HEAP_INDEX_MAX)

    def statements(self, defined: set[str], budget: int, depth: int) -> list[Statement]:
        out: list[Statement] = []
        while budget > 0:
            budget -= self._one(defined, budget, depth, out)
        return out

    def _one(self, defined: set[str], budget: int, depth: int, out: list[Statement]) -> int:
        rng = self.rng
        roll = rng.random()
        if roll < 0.10 and depth < 2 and budget >= 5:
            test = Cmp(
                rng.choice(("<", "<=", "=", ">=", ">")),
                self._operand(defined),
                self._operand(defined),
            )
            inner_budget = min((budget - 1) // 2, rng.randint(2, 5))
            then_defined = set(defined)
            then_body = self.statements(then_defined, inner_budget, depth + 1)
            else_defined = set(defined)
            else_body = self.statements(else_defined, inner_budget, depth + 1)
            out.append(If(test, tuple(then_body), tuple(else_body)))
            defined |= then_defined & else_defined  # assigned on both paths
            return 1 + len(then_body) + len(else_body)
        if roll < 0.20 and self.callables:
            name, arity = rng.choice(self.callables)
            args = tuple(self._operand(defined) for _ in range(arity))
            if rng.random() < 0.6:
                dst = self._new_var()
                out.append(Call(name, args, dst=dst))
                defined.add(dst)
            else:
                out.append(Call(name, args))
            return 1
        if roll < 0.30:
            base, index = self._imm_addr()
            out.append(MemWrite(base, index, self._operand(defined)))
            return 1
        if roll < 0.40:
            dst = self._new_var()
            base, index = self._imm_addr()
            out.append(Assign(dst, MemRead(base, index)))
            defined.add(dst)
            return 1
        dst = self._new_var()
        if not defined or roll < 0.55:
            out.append(Assign(dst, rng.randint(-99, 99)))
        elif roll < 0.65:
            out.append(Assign(dst, rng.choice(sorted(defined))))
        else:
            op = rng.choice(("+", "+", "-", "*"))
            out.append(Assign(dst, BinExpr(op, self._operand(defined, 0.15), self._operand(defined, 0.15))))
        defined.add(dst)
        return 1

    def ending(self, defined: set[str]) -> Statement:
        rng = self.rng
        if self.callables and rng.random() < 0.3:
            name, arity = rng.choice(self.callables)
            return Call(name, tuple(self._operand(defined) for _ in range(arity)))
        return ReturnValue(self._operand(defined, imm_ratio=0.1))


def generate_program(
    seed: int,
    max_procs: int = 3,
    max_stmts: int = 30,
    pressure_vars: int | None = None,
) -> Program:
    """Generate one valid program; identical seeds give identical programs."""
    rng = random.Random(seed)
    var_budget = pressure_vars if pressure_vars is not None else rng.randint(4, MAX_VARS)
    n_procs = rng.randint(0, max_procs)
    callables: list[tuple[str, int]] = []
    definitions: list[Definition] = []
    budget = max_stmts

    for pi in range(n_procs):
        name = f"p{pi}"
        arity = rng.randint(0, 4)
        params = tuple(f"a{j}" for j in range(arity))
        body_budget = min(budget - 1, rng.randint(1, 8))
        gen = _BodyGen(rng, list(callables), f"v{pi}_", var_budget)
        gen.names = list(params)
        defined = set(params)
        body = gen.statements(defined, max(0, body_budget), depth=0)
        body.append(gen.ending(defined))
        budget -= count_statements(body)
        definitions.append(Definition(name, params, tuple(body)))
        callables.append((name, arity))

    gen = _BodyGen(rng, callables, "x", var_budget)
    defined: set[str] = set()
    body = gen.statements(defined, max(1, budget - 1), depth=0)
    body.append(gen.ending(defined))
    return Program(tuple(definitions), tuple(body))


def generate_straight_line(seed: int) -> Program:
    """Straight-line, entry-only program within the eviction oracle's variable cap.

    Statements reference at most two distinct variables, so allocation
    succeeds down to two registers.
    """
    rng = random.Random(seed)
    n_stmts = rng.randint(3, STRAIGHT_LINE_STMTS - 1)
    names: list[str] = []
    defined: list[str] = []
    body: list[Statement] = []

    def dest() -> str:
        if len(names) < STRAIGHT_LINE_VARS and (not names or rng.random() < 0.55):
            name = f"v{len(names)}"
            names.append(name)
            return name
        return rng.choice(names)

    for i in range(n_stmts):
        roll = rng.random()
        if not defined or roll < 0.25:
            d = dest()
            body.append(Assign(d, rng.randint(-9, 99)))
        elif roll < 0.65:
            d = dest()
            a = rng.choice(defined)
            b = rng.choice(defined) if rng.random() < 0.7 else rng.randint(1, 9)
            body.append(Assign(d, BinExpr(rng.choice(("+", "+", "-", "*")), a, b)))
        elif roll < 0.80:
            d = dest()
            body.append(
                Assign(d, MemRead(rng.randint(0, HEAP_BASE_MAX), rng.randint(0, HEAP_INDEX_MAX)))
            )
        else:
            body.append(
                MemWrite(
                    rng.randint(0, HEAP_BASE_MAX),
                    rng.randint(0, HEAP_INDEX_MAX),
                    rng.choice(defined),
                )
            )
        if isinstance(body[-1], Assign) and body[-1].dst not in defined:
            defined.append(body[-1].dst)
    body.append(ReturnValue(rng.choice(defined)))
    return Program((), tuple(body))
