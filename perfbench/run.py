"""uilc benchmark: compile and verify throughput plus generated-code traffic.

Usage (from the repository root):

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 20 --trace 0

One process, one thread, closed loop: one allocation at a time, back to
back.  A run

1. sets up seven times (fresh import of uilc, generate the workload's
   programs, print them to source text) and reports the median;
2. with ``--trace 0``, runs passes over the workload's chunks, in a
   shuffled chunk order, until ``--seconds`` have elapsed and at least one
   full pass is done.  Every item is compiled from text to assembly text
   (parse, validate, annotate, alloc_program, format_target, as one
   ``uilc alloc`` call does), simulated with run_target and checked equal
   to run_uil on the same heap.  Rates are medians over chunks;
   traffic counts, the failure tally and the assembly digest come from the
   first pass and are exact.  Times are rescaled to a reference machine
   speed measured next to each chunk (see ``calibrate.py``);
3. with ``--trace 1``, alternates untraced and traced passes for
   ``--seconds``, and reports per-layer self times and counts from the
   first traced pass plus the tracing overhead.  Spans go to
   ``perfbench/out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7
LAYER_MODULES = ("uil", "analysis", "model", "allocator", "isa", "machine", "gen")


class Failure(Exception):
    """An allocation whose output is wrong."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


# ---------------------------------------------------------------------------
# Set-up


def import_uilc() -> SimpleNamespace:
    """Import uilc from this checkout's ``src``, afresh each time."""
    for name in [n for n in sys.modules if n == "uilc" or n.startswith("uilc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"uilc.{name}") for name in LAYER_MODULES}
    )
    if Path(lib.uil.__file__).resolve().parent != SRC / "uilc":
        raise ImportError(f"uilc imported from {lib.uil.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int):
    """Set up ``SETUP_REPEATS`` times; returns the last set-up and each one's
    (wall seconds, slowness)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # start each set-up without the previous one's garbage
        before = calibrate.probe()
        start = perf_counter()
        lib = import_uilc()
        wl = workloads.build(lib, workload, seed)
        wall = perf_counter() - start
        times.append((wall, calibrate.slowness([before, calibrate.probe()])))
    return lib, wl, times


# ---------------------------------------------------------------------------
# One pass over the workload


@dataclass
class Sample:
    """One timed chunk.  Times are wall seconds; divide by ``slowness``
    for reference seconds."""

    chunk: int
    stmts: int
    verified: int
    compile_s: float
    verify_s: float
    slowness: float

    def compile_rate(self, raw: bool = False) -> float:
        """Thousands of statements compiled per second."""
        return self.stmts / self.compile_s * (1.0 if raw else self.slowness) / 1000.0

    def verify_rate(self, raw: bool = False) -> float:
        """Allocations compiled, simulated and checked per second."""
        return self.verified / self.verify_s * (1.0 if raw else self.slowness)


class Pass:
    """Per-pass accumulators; ``quality`` and ``asm`` are filled on counting passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.first_failure: str | None = None
        self.samples: list[Sample] = []
        self.quality: Counter[str] = Counter()
        self.asm: dict[int, str] = {}

    def reference_s(self) -> dict[int, float]:
        """Verify time of each chunk, in reference seconds."""
        return {x.chunk: x.verify_s / x.slowness for x in self.samples}


def compile_item(lib, item: workloads.Item):
    program = lib.uil.parse(item.source.text)
    diags = lib.uil.validate(program)
    if diags:
        raise Failure("diagnostics", str(diags[0]))
    ap = lib.analysis.annotate(program)
    tp = lib.allocator.alloc_program(ap, item.cfg, item.policy)
    return program, ap, tp, lib.isa.format_target(tp)


def run_chunk(lib, wl, c: int, p: Pass, count: bool, reference: dict[int, str] | None) -> None:
    compile_s = verify_s = 0.0
    stmts = verified = 0
    probes = [calibrate.probe()]
    probed = perf_counter()
    for item in wl.chunks[c]:
        if perf_counter() - probed >= calibrate.INTERVAL_S:
            probes.append(calibrate.probe())
            probed = perf_counter()
        p.attempted += 1
        start = perf_counter()
        try:
            program, ap, tp, asm = compile_item(lib, item)
            compiled = perf_counter()
            heap = item.source.heap
            target, stats = lib.machine.run_target(tp, item.cfg, list(heap))
            source = lib.machine.run_uil(program, list(heap))
            if target != source:
                raise Failure("divergence")
            expected = item.source.expected
            if expected is not None and (source.value, source.writes) != expected:
                raise Failure("expected-value mismatch")
            best = lib.machine.belady_oracle(ap, item.registers) if item.oracle else None
        except Exception as e:
            # every failure is tallied by class and the run goes on
            kind = e.kind if isinstance(e, Failure) else type(e).__name__
            p.failures[kind] += 1
            if p.first_failure is None:
                p.first_failure = (
                    f"{kind} on {item.source.name} R={item.registers} "
                    f"policy={item.policy}: {e}\n{traceback.format_exc()}"
                )
            continue
        finished = perf_counter()
        compile_s += compiled - start
        verify_s += finished - start
        stmts += item.source.stmts
        verified += 1

        if reference is not None and reference.get(item.index, asm) != asm:
            p.failures["nondeterministic assembly"] += 1
        if count:
            p.asm[item.index] = asm
            q = p.quality
            insts = tp.flatten()
            loads, stores, moves = lib.isa.static_traffic(insts)
            q["static_loads"] += loads
            q["static_stores"] += stores
            q["static_moves"] += moves
            if item.policy == "furthest":
                q["dyn_loads"] += stats.dynamic_loads
                q["dyn_stores"] += stats.dynamic_stores
                q["dyn_moves"] += stats.dynamic_moves
                q["dyn_steps"] += stats.steps
                q["code_insts"] += sum(1 for i in insts if not isinstance(i, lib.isa.LabelDef))
            if best is not None:
                q["oracle_loads"] += best
                q["oracle_furthest_loads"] += stats.dynamic_loads
    probes.append(calibrate.probe())
    slow = calibrate.slowness(probes)
    if verified:
        p.samples.append(Sample(c, stmts, verified, compile_s, verify_s, slow))


def run_pass(lib, wl, pass_no: int, count: bool, reference=None, deadline=None) -> Pass:
    """Run the chunks in a seeded shuffled order; stop early past ``deadline``."""
    p = Pass()
    order = list(range(len(wl.chunks)))
    random.Random(wl.seed * 1_000_003 + pass_no).shuffle(order)
    for c in order:
        if deadline is not None and perf_counter() >= deadline:
            break
        run_chunk(lib, wl, c, p, count, reference)
    return p


def digest(wl, asm: dict[int, str]) -> str:
    h = hashlib.sha256()
    for item in wl.items:
        h.update(asm.get(item.index, "").encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(passes):
    failures = sum((p.failures for p in passes), Counter())
    first = next((p.first_failure for p in passes if p.first_failure), None)
    return sum(p.attempted for p in passes), failures, first


def _setup_s(setup_times) -> float:
    return statistics.median(wall / slow for wall, slow in setup_times)


def measure(lib, wl, seconds: float, setup_times):
    """Untraced run: end-to-end metrics."""
    start = perf_counter()
    deadline = start + seconds
    first = run_pass(lib, wl, 0, count=True)
    passes = [first]
    while perf_counter() < deadline:
        passes.append(run_pass(lib, wl, len(passes), False, first.asm, deadline))

    q = first.quality
    attempted, failures, first_failure = _failures(passes)
    failed = sum(failures.values())
    samples = [x for p in passes for x in p.samples]
    # straight-line instances exist only on acceptance; elsewhere the ratio
    # is over no instances and reads 1
    belady = q["oracle_furthest_loads"] / q["oracle_loads"] if q["oracle_loads"] else 1.0
    metrics = {
        "setup_s": (_setup_s(setup_times), "s"),
        "compile_kstmt_per_s": (statistics.median(x.compile_rate() for x in samples), "kstmt/s"),
        "verify_alloc_per_s": (statistics.median(x.verify_rate() for x in samples), "1/s"),
        "dyn_loads": (q["dyn_loads"], "count"),
        "dyn_stores": (q["dyn_stores"], "count"),
        "dyn_moves": (q["dyn_moves"], "count"),
        "dyn_steps": (q["dyn_steps"], "count"),
        "code_insts": (q["code_insts"], "count"),
        "belady_ratio": (belady, "ratio"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "passes": len(passes),
        "chunks_timed": len(samples),
        "measured_wall_s": perf_counter() - start,
        "slowness_median": statistics.median(x.slowness for x in samples),
        "wall_setup_s": statistics.median(wall for wall, _ in setup_times),
        "wall_compile_kstmt_per_s": statistics.median(x.compile_rate(True) for x in samples),
        "wall_verify_alloc_per_s": statistics.median(x.verify_rate(True) for x in samples),
        "asm_sha256": digest(wl, first.asm),
        "failures": dict(failures),
        "first_failure": first_failure,
        "static_traffic": [q["static_loads"], q["static_stores"], q["static_moves"]],
        "oracle_min_loads": q["oracle_loads"],
        "belady_gap_loads": q["oracle_furthest_loads"] - q["oracle_loads"],
    }
    return metrics, attempted, failed, info


def _chunk_medians(passes) -> dict[int, float]:
    times: dict[int, list[float]] = {}
    for p in passes:
        for k, t in p.reference_s().items():
            times.setdefault(k, []).append(t)
    return {k: statistics.median(v) for k, v in times.items()}


def measure_traced(lib, workload: str, seed: int, seconds: float, setup_times):
    """Traced run: per-layer self times and counts, plus tracing overhead.

    Untraced and traced passes alternate, starting and ending untraced,
    until ``seconds`` have elapsed.  Layer figures come from the set-up and
    the first traced pass; the overhead compares each chunk's median traced
    time with its median untraced time, so that drift cancels.
    """
    tally: Counter[str] = Counter()
    tr = tracing.Tracer()
    tracing.install(lib, tr, tally)
    try:
        probe = calibrate.probe()
        wl = workloads.build(lib, workload, seed)  # traced set-up, for the gen layer
        gen_slowness = calibrate.slowness([probe, calibrate.probe()])
    finally:
        tr.close()
    deadline = perf_counter() + seconds
    untraced = [run_pass(lib, wl, 0, count=True)]
    reference = untraced[0].asm
    traced: list[Pass] = []
    while not traced or perf_counter() < deadline:
        pass_tracer, pass_tally = (tr, tally) if not traced else (tracing.Tracer(), Counter())
        tracing.install(lib, pass_tracer, pass_tally)
        try:
            traced.append(run_pass(lib, wl, 2 * len(traced) + 1, True, reference))
        finally:
            pass_tracer.close()
        untraced.append(run_pass(lib, wl, 2 * len(traced), False, reference))

    attempted, failures, first_failure = _failures(untraced + traced)
    failed = sum(failures.values())
    stmts = sum(item.source.stmts for item in wl.items)
    c = tr.counts
    slow = statistics.median(x.slowness for x in traced[0].samples)
    s = {name: t / slow for name, t in tr.self_s.items()}  # reference seconds
    s["gen"] = tr.self_s["gen"] / gen_slowness
    untraced_s, traced_s = _chunk_medians(untraced), _chunk_medians(traced)
    overhead = statistics.median(traced_s[k] / untraced_s[k] for k in traced_s) - 1.0

    def get(name):
        return s.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def raised(name):
        return sum(n for k, n in c.items() if k.startswith(name + "!"))

    metrics = {
        "uil.parse_s": (get("uil.parse"), "s"),
        "uil.parse_kchar_per_s": (per(tally["uil.parse_chars"], get("uil.parse"), 1e-3), "kchar/s"),
        "uil.validate_s": (get("uil.validate"), "s"),
        "uil.diagnostics": (tally["uil.diagnostics"], "count"),
        "analysis.annotate_s": (get("analysis"), "s"),
        "analysis.annotate_us_per_stmt": (per(get("analysis"), stmts, 1e6), "us"),
        "model.models_built": (c["model.models_built"], "count"),
        "model.updates": (sum(c[f"model.{m}"] for m in tracing.MODEL_UPDATES), "count"),
        "model.update_s": (get("model"), "s"),
        "allocator.alloc_s": (get("allocator"), "s"),
        "allocator.us_per_inst": (per(get("allocator"), tally["allocator.insts"], 1e6), "us"),
        "allocator.insts": (tally["allocator.insts"], "count"),
        "allocator.evictions": (c["allocator.pick_victim"], "count"),
        "allocator.pressure_errors": (raised("allocator.alloc_program"), "count"),
        "isa.format_s": (get("isa.format_target"), "s"),
        "isa.asm_bytes": (tally["isa.asm_bytes"], "bytes"),
        "isa.static_loads": (tally["isa.static_loads"], "count"),
        "isa.static_stores": (tally["isa.static_stores"], "count"),
        "isa.static_moves": (tally["isa.static_moves"], "count"),
        "machine.simulate_s": (get("machine.run_target"), "s"),
        "machine.sim_ksteps_per_s": (
            per(tally["machine.steps"], get("machine.run_target"), 1e-3),
            "ksteps/s",
        ),
        "machine.interpret_s": (get("machine.run_uil"), "s"),
        "machine.oracle_s": (get("machine.belady_oracle"), "s"),
        "machine.oracle_calls": (c["machine.belady_oracle"], "count"),
        "machine.call_rounds": (tally["machine.call_rounds"], "count"),
        "machine.divergences": (traced[0].failures["divergence"], "count"),
        "machine.faults": (raised("machine.run_target") + raised("machine.run_uil"), "count"),
        "gen.generate_s": (get("gen"), "s"),
        "gen.programs": (c["gen.generate_program"] + c["gen.generate_straight_line"], "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.untraced_pass_s": (sum(untraced_s.values()), "s"),
        "trace.traced_pass_s": (sum(traced_s.values()), "s"),
    }
    info = {
        "slowness_median": slow,
        "setup_s": _setup_s(setup_times),
        "passes": len(untraced) + len(traced),
        "asm_sha256": digest(wl, reference),
        "failures": dict(failures),
        "first_failure": first_failure,
        "span_count": len(tr.spans),
        "wall_self_s": {k: v for k, v in sorted(tr.self_s.items()) if "." not in k},
    }
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    tr.write(path, {"workload": workload, "seed": seed, "metrics": metrics, **info})
    info["trace_file"] = str(path.relative_to(ROOT))
    return metrics, attempted, failed, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "uilc" / "__init__.py").is_file():
        print(f"error: no uilc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    lib, wl, setup_times = setup(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, info = measure_traced(
            lib, args.workload, args.seed, args.seconds, setup_times
        )
    else:
        metrics, attempted, failed, info = measure(lib, wl, args.seconds, setup_times)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    for key, value in info.items():
        if key != "first_failure":
            print(f"  {key}: {value}")
    if info["first_failure"]:
        print(
            f"first failure ({args.workload}, seed {args.seed}): {info['first_failure']}",
            file=sys.stderr,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
