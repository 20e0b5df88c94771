"""Batch command-line front end.

Subcommands: ``alloc`` prints target assembly, ``run`` allocates and
simulates, ``compare`` tabulates traffic across register counts and
replacement policies, ``fuzz`` differential-tests random programs and
checks every model the allocator builds for them.

Exit codes: 0 success, 1 diagnostics (usage errors, bad input, pressure,
runtime faults, fuel, inequivalence), 2 internal fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .allocator import POLICIES, PressureError, TraceEntry, alloc_program
from .analysis import AnnotatedProgram, annotate
from .gen import generate_program
from .isa import format_inst, format_target, static_traffic
from .machine import (
    MachineFault,
    OutOfFuel,
    belady_oracle,
    default_heap,
    equivalent,
    heap_from_seed,
    run_target,
)
from .model import MachineConfig, ModelError, make_config
from .uil import Call, If, ParseError, Program, format_program, parse, statement_line, validate


class CliError(Exception):
    """User-facing diagnostic; maps to exit code 1."""


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise CliError(f"{flag} must be at least {low}")
    return value


def _config(registers: int) -> MachineConfig:
    return make_config(_at_least("--registers", registers, 1))


def _distinct(flag: str, values: list) -> list:
    """`values`, unless one of them is listed twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise CliError(f"{flag} lists {v} twice")
    return values


def _configs(registers: str, low: int = 1) -> list[MachineConfig]:
    """One configuration per register count of a comma-separated list, each
    count at least `low`."""
    try:
        counts = [int(r) for r in registers.split(",")]
    except ValueError:
        raise CliError(f"--registers must be comma-separated integers, not {registers!r}")
    return [make_config(_at_least("--registers", r, low)) for r in _distinct("--registers", counts)]


def _load(path: str) -> tuple[Program, AnnotatedProgram]:
    """Read, parse, validate and annotate a UTF-8 source file; a leading
    byte order mark is dropped.  Line endings are left as they are, so a
    position names the line and column that `parse` of the raw text does."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as e:
        raise CliError(str(e))
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8: {e.reason} at byte {e.start}")
    try:
        program = parse(text)
    except ParseError as e:
        raise CliError(f"{path}:{e}")
    diags = validate(program)
    if diags:
        raise CliError("\n".join(f"{path}:{d}" for d in diags))
    return program, annotate(program)


def _print_trace(
    trace: list[TraceEntry],
    ap: AnnotatedProgram,
    clobbers: dict[str, frozenset[int]],
    cfg: MachineConfig,
) -> None:
    """Print each statement's transition, scope by scope in point order (the
    allocator runs callees first, and an `if` after its branches).  Before
    a procedure's first one, print its unread parameters and its clobber
    set (when `clobbers` has it); for a dead statement, why; under a call,
    the arguments it leaves out and, for a non-tail call, the values it
    keeps in registers the callee never writes."""
    procs = {proc.name: proc for proc in ap.procs}
    rank = {name: i for i, name in enumerate(procs, 1)}  # the entry body is 0
    scope = None
    for entry in sorted(trace, key=lambda e: (rank.get(e.scope, 0), e.a.point)):
        if entry.scope != scope:
            scope = entry.scope
            if scope in procs:
                proc = procs[scope]
                unread = [v for v in proc.params if v not in proc.read_params]
                print(f"; {scope}: unread parameters: {', '.join(unread) or 'none'}")
                if scope in clobbers:
                    regs = ", ".join(f"r{r}" for r in sorted(clobbers[scope]))
                    print(f"; {scope}: clobbers {regs}")
        a = entry.a
        stmt = a.stmt
        print(f"; {scope} #{a.point}: {statement_line(stmt)}")
        if a.dead:
            if type(stmt) is If:
                print(";   dead: every branch statement is dead")
            else:
                print(f";   dead: {stmt.dst} is never read")
            continue
        if type(stmt) is Call:
            callee = procs[stmt.callee]
            left = [
                f"{arg} for {v}"
                for v, arg in zip(callee.params, stmt.args)
                if v not in callee.read_params
            ]
            if left:
                print(f";   left out: {', '.join(left)}")
            # after the call, only these and the result sit in registers
            # that are not callee-saved
            kept = [
                f"{v} in r{r}"
                for v, r in entry.post.register_residents()
                if r not in cfg.callee_saved and r != cfg.ret_val_reg
            ]
            if kept and not a.tail:
                print(f";   kept: {', '.join(kept)}")
        print(f";   pre  {entry.pre.dump()}")
        for inst in entry.insts:
            print(f";     {format_inst(inst)}")
        print(f";   post {entry.post.dump()}")


def cmd_alloc(args) -> int:
    _, annotated = _load(args.file)
    cfg = _config(args.registers)
    trace: list[TraceEntry] | None = [] if args.trace else None
    tp = None
    try:
        tp = alloc_program(annotated, cfg, args.policy, trace=trace)
    finally:
        # on a PressureError the transitions up to it explain it; with no
        # program there are no clobber sets
        if trace is not None:
            _print_trace(trace, annotated, tp.clobbers if tp is not None else {}, cfg)
    sys.stdout.write(format_target(tp))
    return 0


def cmd_run(args) -> int:
    fuel = _at_least("--fuel", args.fuel, 1)
    program, annotated = _load(args.file)
    cfg = _config(args.registers)
    tp = alloc_program(annotated, cfg, args.policy)
    heap = heap_from_seed(args.seed) if args.seed is not None else default_heap()
    try:
        obs, stats = run_target(tp, cfg, heap, fuel=fuel)
    except OutOfFuel:
        print(f"error: fuel exhausted after {fuel} instructions", file=sys.stderr)
        return 1
    loads, stores, moves = static_traffic(tp.flatten())
    if args.json:
        static = {"static_loads": loads, "static_stores": stores, "static_moves": moves}
        print(json.dumps({"return": obs.value, "writes": len(obs.writes), **static, **stats.as_dict()}))
        return 0
    print(f"return value: {obs.value}")
    print(f"static:  loads={loads} stores={stores} moves={moves} instructions={stats.instructions}")
    print(
        f"dynamic: loads={stats.dynamic_loads} stores={stats.dynamic_stores} "
        f"moves={stats.dynamic_moves} steps={stats.steps}"
    )
    return 0


def _compare_inputs(path: str) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.uil"))
        if not files:
            raise CliError(f"no .uil files in {path}")
        return files
    return [p]


def cmd_compare(args) -> int:
    fuel = _at_least("--fuel", args.fuel, 1)
    configs = _configs(args.registers)
    policies = _distinct("--policies", args.policies.split(","))
    for policy in policies:
        if policy not in POLICIES:
            raise CliError(f"unknown policy {policy!r}")
    rows = []
    errors = []
    for path in _compare_inputs(args.file):
        try:
            program, annotated = _load(str(path))
        except CliError as e:  # keep going over a corpus; the message names the file
            errors.append(str(e))
            continue
        for cfg in configs:
            r = cfg.registers
            try:
                oracle_loads = belady_oracle(annotated, r)
            except ValueError:  # a branch, a call, over ORACLE_MAX_VARS variables or r reads
                oracle_loads = None
            for policy in policies:
                try:
                    tp = alloc_program(annotated, cfg, policy)
                    _, stats = run_target(tp, cfg, default_heap(), fuel=fuel)
                except (PressureError, MachineFault, OutOfFuel) as e:
                    errors.append(f"{path} R={r} {policy}: {e}")
                    continue
                rows.append(
                    {
                        "program": path.name,
                        "registers": r,
                        "policy": policy,
                        "loads": stats.dynamic_loads,
                        "stores": stats.dynamic_stores,
                        "moves": stats.dynamic_moves,
                        "belady_loads": oracle_loads,
                    }
                )
    totals: dict[tuple[int, str], dict[str, int]] = {}
    for row in rows:
        key = (row["registers"], row["policy"])
        agg = totals.setdefault(key, {"loads": 0, "stores": 0, "moves": 0})
        for field in ("loads", "stores", "moves"):
            agg[field] += row[field]
    if args.json:
        print(
            json.dumps(
                {
                    "rows": rows,
                    "totals": [
                        {"registers": r, "policy": p, **agg} for (r, p), agg in sorted(totals.items())
                    ],
                    "errors": errors,
                }
            )
        )
    else:
        header = f"{'program':<24} {'R':>2} {'policy':<9} {'loads':>6} {'stores':>6} {'moves':>6} {'belady':>6}"
        print(header)
        print("-" * len(header))
        for row in rows:
            belady = "" if row["belady_loads"] is None else str(row["belady_loads"])
            print(
                f"{row['program']:<24} {row['registers']:>2} {row['policy']:<9} "
                f"{row['loads']:>6} {row['stores']:>6} {row['moves']:>6} {belady:>6}"
            )
        print("-" * len(header))
        for (r, policy), agg in sorted(totals.items()):
            print(
                f"{'TOTAL':<24} {r:>2} {policy:<9} "
                f"{agg['loads']:>6} {agg['stores']:>6} {agg['moves']:>6} {'':>6}"
            )
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


def _check_models(trace: list[TraceEntry]) -> None:
    """Run `Model.check` on the models before and after each statement of
    `trace`; raise ModelError naming the first that is out of step.  The
    allocator builds its models without the check, so fuzzing keeps it."""
    for entry in trace:
        for when, m in (("before", entry.pre), ("after", entry.post)):
            if m is not None:
                try:
                    m.check()
                except ModelError as e:
                    raise ModelError(
                        f"model {when} {entry.scope} #{entry.a.point} out of step: {e}"
                    ) from None


def cmd_fuzz(args) -> int:
    count = _at_least("--count", args.count, 0)
    fuel = _at_least("--fuel", args.fuel, 1)
    # at R=1 the return address and the result share r0, so no program
    # with a procedure allocates
    configs = _configs(args.registers, 2)
    failures = []
    checked = 0
    for i in range(count):
        seed = args.seed + i
        # compiled from its text, as `uilc alloc` compiles a file
        generated = generate_program(seed)
        try:
            program = parse(format_program(generated))
        except ParseError as e:
            failures.append((seed, f"the generated program's text does not parse: {e}"))
            break
        if program != generated:
            failures.append((seed, "the generated program's text parses to another program"))
            break
        diags = validate(program)
        if diags:
            failures.append((seed, f"generator produced invalid program: {diags[0]}"))
            break
        annotated = annotate(program)
        heaps = [default_heap(), heap_from_seed(seed)]
        for cfg in configs:
            r = cfg.registers
            for policy in POLICIES:
                checked += 1
                trace: list[TraceEntry] = []
                try:
                    tp = alloc_program(annotated, cfg, policy, trace=trace)
                    _check_models(trace)
                    report = equivalent(program, tp, cfg, heaps, fuel=fuel)
                except Exception as e:  # any blow-up is a reportable failure
                    failures.append((seed, f"R={r} {policy}: {type(e).__name__}: {e}"))
                    continue
                if not report.ok:
                    failures.append((seed, f"R={r} {policy}: {report.detail}"))
        if failures:
            break
    if failures:
        seed, detail = failures[0]
        repro = Path(f"fuzz_fail_{seed}.uil")
        repro.write_text(format_program(generate_program(seed)))
        print(f"FAIL seed={seed}: {detail}", file=sys.stderr)
        print(f"reproducer written to {repro}", file=sys.stderr)
        return 1
    print(f"fuzz: {count} program(s), {checked} allocation(s) checked, all equivalent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uilc", description="Register allocation toolkit for UIL programs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("alloc", help="allocate registers and print assembly")
    p_alloc.add_argument("file")
    p_alloc.add_argument("--registers", type=int, default=8)
    p_alloc.add_argument("--policy", default="furthest", choices=POLICIES)
    p_alloc.add_argument("--trace", action="store_true", help="print model transitions")
    p_alloc.set_defaults(func=cmd_alloc)

    p_run = sub.add_parser("run", help="allocate, simulate, and report traffic")
    p_run.add_argument("file")
    p_run.add_argument("--registers", type=int, default=8)
    p_run.add_argument("--policy", default="furthest", choices=POLICIES)
    p_run.add_argument("--fuel", type=int, default=10**6)
    p_run.add_argument("--seed", type=int, default=None, help="heap seed (default: the fixed heap)")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="traffic table across configurations")
    p_cmp.add_argument("file", help=".uil file or a directory of them")
    p_cmp.add_argument("--registers", default="3,4,8", help="comma-separated register counts")
    p_cmp.add_argument("--policies", default=",".join(POLICIES))
    p_cmp.add_argument("--fuel", type=int, default=10**6)
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_fuzz = sub.add_parser("fuzz", help="differential-test random programs")
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0, help="first generator seed")
    p_fuzz.add_argument("--fuel", type=int, default=10**6)
    p_fuzz.add_argument("--registers", default="3,4,8", help="comma-separated register counts")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if e.code == 0 else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere, so the
        # flush at exit cannot fail again, and exit as a failed write does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except PressureError as e:
        print(f"error: register pressure: {e}", file=sys.stderr)
        return 1
    except (MachineFault, OutOfFuel) as e:  # runtime faults are diagnostics
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # anything else is a bug
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
