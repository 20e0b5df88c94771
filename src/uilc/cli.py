"""Batch command-line front end.

Subcommands: ``alloc`` prints target assembly, ``run`` allocates and
simulates, ``compare`` tabulates traffic across register counts and
replacement policies, ``fuzz`` differential-tests random programs.

Exit codes: 0 success, 1 diagnostics (bad input, pressure, runtime
faults, fuel, inequivalence), 2 internal fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .allocator import POLICIES, PressureError, TraceEntry, alloc_program
from .analysis import AnnotatedProgram, annotate
from .gen import generate_program
from .isa import format_insts, format_target
from .machine import (
    MachineFault,
    OutOfFuel,
    belady_oracle,
    default_heap,
    equivalent,
    heap_from_seed,
    run_target,
)
from .model import MachineConfig, make_config
from .uil import ParseError, Program, format_program, parse, validate

FUZZ_REGISTER_COUNTS = (3, 4, 8)


class CliError(Exception):
    """User-facing diagnostic; maps to exit code 1."""


def _config(args, registers: int | None = None) -> MachineConfig:
    r = registers if registers is not None else args.registers
    if r < 1:
        raise CliError("--registers must be at least 1")
    return make_config(r, use_preferences=not args.no_preference)


def _load(path: str) -> tuple[Program, AnnotatedProgram]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(str(e))
    program = parse(text)
    diags = validate(program)
    if diags:
        raise CliError("\n".join(f"{path}:{d}" for d in diags))
    return program, annotate(program)


def _print_trace(trace: list[TraceEntry]) -> None:
    for entry in trace:
        print(f"; {entry.scope} #{entry.point}: {entry.stmt}")
        print(f";   pre  {entry.pre}")
        for inst in entry.insts:
            print(f";     {format_insts([inst]).strip()}")
        print(f";   post {entry.post}")


def cmd_alloc(args) -> int:
    _, annotated = _load(args.file)
    cfg = _config(args)
    trace: list[TraceEntry] | None = [] if args.trace else None
    tp = alloc_program(annotated, cfg, args.policy, trace=trace)
    if trace is not None:
        _print_trace(trace)
    sys.stdout.write(format_target(tp))
    return 0


def cmd_run(args) -> int:
    program, annotated = _load(args.file)
    cfg = _config(args)
    tp = alloc_program(annotated, cfg, args.policy)
    heap = heap_from_seed(args.seed) if args.seed is not None else default_heap()
    try:
        obs, stats = run_target(tp, cfg, heap, fuel=args.fuel)
    except OutOfFuel:
        print(f"error: fuel exhausted after {args.fuel} instructions", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"return": obs.value, "writes": len(obs.writes), **stats.as_dict()}))
        return 0
    print(f"return value: {obs.value}")
    print(
        f"static:  loads={stats.static_loads} stores={stats.static_stores} "
        f"moves={stats.static_moves} instructions={stats.instructions}"
    )
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
    registers = [int(r) for r in args.registers.split(",")]
    policies = args.policies.split(",")
    for policy in policies:
        if policy not in POLICIES:
            raise CliError(f"unknown policy {policy!r}")
    rows = []
    errors = []
    for path in _compare_inputs(args.file):
        try:
            program, annotated = _load(str(path))
        except (CliError, ParseError) as e:  # keep going over a corpus
            errors.append(f"{path}: {e}")
            continue
        for r in registers:
            cfg = make_config(r, use_preferences=not args.no_preference)
            oracle_loads = None
            if r <= 3:
                try:
                    oracle_loads = belady_oracle(annotated, r)
                except ValueError:
                    oracle_loads = None
            for policy in policies:
                try:
                    tp = alloc_program(annotated, cfg, policy)
                    _, stats = run_target(tp, cfg, default_heap(), fuel=args.fuel)
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


def cmd_fuzz(args) -> int:
    failures = []
    checked = 0
    for i in range(args.count):
        seed = args.seed + i
        program = generate_program(seed)
        diags = validate(program)
        if diags:
            failures.append((seed, f"generator produced invalid program: {diags[0]}"))
            break
        annotated = annotate(program)
        heaps = [default_heap(), heap_from_seed(seed)]
        for r in FUZZ_REGISTER_COUNTS:
            cfg = make_config(r, use_preferences=not args.no_preference)
            for policy in POLICIES:
                checked += 1
                try:
                    tp = alloc_program(annotated, cfg, policy)
                    report = equivalent(program, tp, cfg, heaps, fuel=args.fuel)
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
    print(f"fuzz: {args.count} program(s), {checked} allocation(s) checked, all equivalent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uilc", description="Register allocation toolkit for UIL programs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, registers_default="8"):
        p.add_argument("--policy", default="furthest", choices=POLICIES)
        p.add_argument("--no-preference", action="store_true", help="disable branch allocation hints")
        p.add_argument("--fuel", type=int, default=10**6)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", action="store_true")

    p_alloc = sub.add_parser("alloc", help="allocate registers and print assembly")
    p_alloc.add_argument("file")
    p_alloc.add_argument("--registers", type=int, default=8)
    p_alloc.add_argument("--trace", action="store_true", help="print model transitions")
    common(p_alloc)
    p_alloc.set_defaults(func=cmd_alloc)

    p_run = sub.add_parser("run", help="allocate, simulate, and report traffic")
    p_run.add_argument("file")
    p_run.add_argument("--registers", type=int, default=8)
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="traffic table across configurations")
    p_cmp.add_argument("file", help=".uil file or a directory of them")
    p_cmp.add_argument("--registers", default="3,4,8", help="comma-separated register counts")
    p_cmp.add_argument("--policies", default=",".join(POLICIES))
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_fuzz = sub.add_parser("fuzz", help="differential-test random programs")
    p_fuzz.add_argument("--count", type=int, default=100)
    common(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "fuzz":
        args.seed = 0
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (PressureError,) as e:
        print(f"error: register pressure: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # parse errors are diagnostics; the rest are bugs
        if isinstance(e, (ParseError, MachineFault, OutOfFuel)):
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
