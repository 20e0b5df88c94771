import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from uilc.allocator import POLICIES, PressureError, alloc_program
from uilc.analysis import annotate
from uilc.cli import _print_trace, main
from uilc.gen import generate_program
from uilc.machine import EquivReport
from uilc.model import Model, ModelError, make_config

from uilc.uil import ParseError, Program, ReturnValue, format_program, parse

from conftest import SPLIT_OBSERVED_SRC, SPLIT_SRC, CHAIN_SRC, nested_ifs

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.uil"
    path.write_text(SPLIT_OBSERVED_SRC)
    return str(path)


def test_split_sample_is_the_observed_split():
    assert parse((ROOT / "samples" / "split.uil").read_text()) == parse(SPLIT_OBSERVED_SRC)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alloc_prints_golden_shape(capsys, split_file):
    code, out, _ = run_cli(capsys, "alloc", split_file, "--registers", "2")
    assert code == 0
    lines = [line.strip() for line in out.strip().splitlines()]
    assert lines[:7] == [
        "loadimm r0, 1",
        "loadimm r1, 2",
        "store fv0, r0",
        "add r0, r1, 1",
        "mstore 0, 0, r0",
        "load r0, fv0",
        "add r1, r0, r1",
    ]


def test_alloc_of_the_unobserved_split_computes_no_z(capsys, tmp_path):
    # nothing reads z: its assignment emits nothing, and x is never parked
    path = tmp_path / "split.uil"
    path.write_text(SPLIT_SRC)
    code, out, _ = run_cli(capsys, "alloc", str(path), "--registers", "2")
    assert code == 0
    assert [line.strip() for line in out.strip().splitlines()] == [
        "loadimm r0, 1",
        "loadimm r1, 2",
        "add r1, r0, r1",
        "halt",
    ]
    code, out, _ = run_cli(capsys, "run", str(path), "--registers", "2")
    assert code == 0
    assert "return value: 3" in out
    assert "dynamic: loads=0 stores=0" in out


def test_alloc_trace_lists_each_dead_statement(capsys, tmp_path):
    path = tmp_path / "split.uil"
    path.write_text(SPLIT_SRC)
    code, out, _ = run_cli(capsys, "alloc", str(path), "--registers", "2", "--trace")
    assert code == 0
    lines = out.splitlines()
    at = lines.index("; <entry> #2: (set! z (+ y 1))")
    assert lines[at + 1 : at + 3] == [
        ";   dead: z is never read",
        "; <entry> #3: (set! w (+ x y))",
    ]
    assert sum(line.startswith(";   dead:") for line in lines) == 1


# g never reads w and f only forwards y; c only feeds y and the `if`'s
# test, and the `if`'s branches assign what nothing reads
UNREAD_SRC = """
(letrec ((g (lambda (u w) (set! t (+ u 1)) (return t)))
         (f (lambda (x y) (g x y))))
  (set! a (mref 0 0))
  (set! c (+ a 1))
  (if (< c 3) (begin (set! d 1)) (begin (set! d 2)))
  (set! r (f a c))
  (return r))
"""


def test_alloc_trace_lists_unread_parameters_and_left_out_arguments(capsys, tmp_path):
    path = tmp_path / "unread.uil"
    path.write_text(UNREAD_SRC)
    code, out, _ = run_cli(capsys, "alloc", str(path), "--registers", "2", "--trace")
    assert code == 0
    lines = out.splitlines()
    at = lines.index("; <entry> #5: (set! r (f a c))")
    assert lines[at + 1] == ";   left out: c for y"
    assert lines[lines.index("; <entry> #1: (set! c (+ a 1))") + 1] == ";   dead: c is never read"
    assert lines[lines.index("; <entry> #2: (if (< c 3)") + 1] == (
        ";   dead: every branch statement is dead"
    )
    at = lines.index("; g: unread parameters: w")
    assert lines[at + 1 : at + 3] == ["; g: clobbers r0, r1", "; g #0: (set! t (+ u 1))"]
    at = lines.index("; f: unread parameters: y")
    assert lines[at + 2 : at + 4] == ["; f #0: (g x y)", ";   left out: y for w"]
    # nothing but the return address and the read arguments travels
    assert not [line for line in lines if line.split()[:1] in (["move"], ["store"], ["load"])]


# w keeps j across a call to the recursive fib, which may change every
# caller-saved register; the entry keeps y in r2 across inc, which writes
# only r0 and r1.  Callees come after their callers in the source, so the
# allocator runs fib, w, inc and the entry, in that order.
KEPT_SRC = """
(letrec ((w (lambda (k) (set! j (+ k 3)) (set! f (fib k)) (set! r (+ f j)) (return r)))
         (inc (lambda (a) (set! b (+ a 1)) (return b)))
         (fib (lambda (n)
           (if (< n 2)
             (begin (return n))
             (begin (set! m (- n 1)) (set! a (fib m)) (set! k (- n 2)) (set! b (fib k))
                    (set! r (+ a b)) (return r))))))
  (set! x (mref 0 0)) (set! y (mref 0 1))
  (set! v (inc x))
  (set! s (+ v y))
  (w s))
"""


def test_alloc_trace_lists_clobber_sets_and_kept_values_in_source_order(capsys, tmp_path):
    path = tmp_path / "kept.uil"
    path.write_text(KEPT_SRC)
    code, out, _ = run_cli(capsys, "alloc", str(path), "--registers", "4", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("; ") and ": clobbers " in line] == [
        "; w: clobbers r0, r1, r2, r3",
        "; inc: clobbers r0, r1",
        "; fib: clobbers r0, r1, r2, r3",
    ]
    scopes = [line.split()[1] for line in lines if line.startswith("; ") and " #" in line]
    assert list(dict.fromkeys(scopes)) == ["<entry>", "w", "inc", "fib"]
    at = lines.index("; <entry> #2: (set! v (inc x))")
    assert lines[at + 1] == ";   kept: y in r2"
    assert sum(line.startswith(";   kept:") for line in lines) == 1
    # with no trace, the same assembly
    assert out.endswith(run_cli(capsys, "alloc", str(path), "--registers", "4")[1])


def _allocated_points(body):
    """The points the allocator visits: all but those in a dead `if`'s
    branches."""
    for a in body:
        yield a.point
        if not a.dead:
            yield from _allocated_points(a.then_body)
            yield from _allocated_points(a.else_body)


@pytest.mark.parametrize("sample", ["branch.uil", "split.uil", "sum_call.uil"])
def test_alloc_trace_prints_each_point_once_in_order(capsys, sample):
    # an `if` is allocated after its branches but printed before them
    path = ROOT / "samples" / sample
    ap = annotate(parse(path.read_text()))
    bodies = {"<entry>": ap.entry, **{proc.name: proc.body for proc in ap.procs}}
    expected = {scope: sorted(_allocated_points(body)) for scope, body in bodies.items()}
    for r in ("2", "3", "4", "8"):
        for policy in POLICIES:
            code, out, _ = run_cli(
                capsys, "alloc", str(path), "--registers", r, "--policy", policy, "--trace"
            )
            assert code == 0
            printed: dict[str, list[int]] = {}
            for m in re.finditer(r"^; (\S+) #(\d+): ", out, re.MULTILINE):
                printed.setdefault(m[1], []).append(int(m[2]))
            assert printed == expected, (r, policy)


def test_alloc_trace_names_no_unread_parameter_of_a_kernel(capsys):
    code, out, _ = run_cli(capsys, "alloc", str(ROOT / "tests" / "data" / "walk.uil"), "--trace")
    assert code == 0
    assert "; walk: unread parameters: none" in out
    assert ";   left out:" not in out


def test_alloc_is_byte_identical_across_runs(capsys, split_file):
    _, out1, _ = run_cli(capsys, "alloc", split_file, "--registers", "2")
    _, out2, _ = run_cli(capsys, "alloc", split_file, "--registers", "2")
    assert out1 == out2


def test_alloc_single_register_reports_pressure(capsys, split_file):
    code, _, err = run_cli(capsys, "alloc", split_file, "--registers", "1")
    assert code == 1
    assert "pressure" in err


def test_alloc_trace_interleaves_model_dumps(capsys, split_file):
    code, out, _ = run_cli(capsys, "alloc", split_file, "--registers", "2", "--trace")
    assert code == 0
    assert "; <entry> #0: (set! x 1)" in out
    assert ";   pre  {}{}" in out
    assert "{x:r0}{}" in out


def test_alloc_trace_prints_transitions_before_pressure_error(capsys, split_file):
    plain = run_cli(capsys, "alloc", split_file, "--registers", "1")
    code, out, err = run_cli(capsys, "alloc", split_file, "--registers", "1", "--trace")
    assert plain[:2] == (1, "")
    # the statements allocated before the failure, then the usual error
    assert "; <entry> #0: (set! x 1)" in out
    assert ";   post {}{x:fv0, y:fv1}" in out
    assert (code, err) == (plain[0], plain[2])
    assert err.startswith("error: register pressure: ")


# sha256 of the `--trace` text of generator seeds 0..99 at R{1,2,3,4,8}
# under every policy, and of the `PressureError` text where the allocation
# fails (after the transitions that led to it, as `uilc alloc --trace`
# prints them; at R=1 every program with a procedure fails).  A change to
# the trace's content or order must update this constant and say why.
TRACE_SHA256 = "eae4de14336964147a85b386626c76898bd9581ae081f1a05f90681419c60604"


def test_trace_text_is_pinned():
    digest = hashlib.sha256()
    for seed in range(100):
        ap = annotate(generate_program(seed))
        for r in (1, 2, 3, 4, 8):
            cfg = make_config(r)
            for policy in POLICIES:
                trace: list = []
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    try:
                        tp = alloc_program(ap, cfg, policy, trace=trace)
                    except PressureError as e:
                        _print_trace(trace, ap, {}, cfg)
                        print(e)
                    else:
                        _print_trace(trace, ap, tp.clobbers, cfg)
                digest.update(out.getvalue().encode())
    assert digest.hexdigest() == TRACE_SHA256


def test_run_reports_value_and_traffic(capsys, split_file):
    code, out, _ = run_cli(capsys, "run", split_file, "--registers", "2")
    assert code == 0
    assert "return value: 3" in out
    assert "dynamic: loads=1 stores=1" in out


def test_run_json_output(capsys, split_file):
    code, out, _ = run_cli(capsys, "run", split_file, "--registers", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["return"] == 3
    assert payload["dynamic_loads"] == 1
    assert payload["dynamic_stores"] == 1


WALK = str(Path(__file__).parent / "data" / "walk.uil")


def test_run_reports_every_traffic_count(capsys):
    argv = ("run", WALK, "--registers", "4", "--seed", "5")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == (
        '{"return": 16128589941724529, "writes": 6, "static_loads": 8, "static_stores": 9,'
        ' "static_moves": 1, "dynamic_loads": 48, "dynamic_stores": 39, "dynamic_moves": 1,'
        ' "instructions": 44, "steps": 186, "call_rounds": 6}\n'
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "return value: 16128589941724529",
        "static:  loads=8 stores=9 moves=1 instructions=44",
        "dynamic: loads=48 stores=39 moves=1 steps=186",
    ]


def test_run_spill_free_at_eight_registers(capsys, split_file):
    code, out, _ = run_cli(capsys, "run", split_file, "--registers", "8", "--json")
    payload = json.loads(out)
    assert payload["dynamic_loads"] == 0 and payload["dynamic_stores"] == 0


def test_run_fuel_exhaustion_reported_distinctly(capsys, tmp_path):
    path = tmp_path / "loop.uil"
    path.write_text("(letrec ((loop (lambda () (loop)))) (loop))")
    code, _, err = run_cli(capsys, "run", str(path), "--fuel", "5000")
    assert code == 1
    assert "fuel" in err


HEAP_FAULT_SRC = "(letrec () (set! x (mref 1000 0)) (return x))"


def test_run_heap_fault_exits_one(capsys, tmp_path):
    path = tmp_path / "fault.uil"
    path.write_text(HEAP_FAULT_SRC)
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: heap access out of range: 1000+0\n"


def test_compare_reports_a_heap_fault_per_configuration(capsys, tmp_path):
    path = tmp_path / "fault.uil"
    path.write_text(HEAP_FAULT_SRC)
    code, out, _ = run_cli(
        capsys, "compare", str(path), "--registers", "2,4", "--policies", "furthest,lifo", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["rows"] == [] and payload["totals"] == []
    assert payload["errors"] == [
        f"{path} R={r} {policy}: heap access out of range: 1000+0"
        for r in (2, 4)
        for policy in ("furthest", "lifo")
    ]


def test_compare_unknown_policy_exits_one(capsys, split_file):
    code, out, err = run_cli(capsys, "compare", split_file, "--policies", "best")
    assert code == 1
    assert out == ""
    assert err == "error: unknown policy 'best'\n"


def test_compare_directory_without_programs_exits_one(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("not a program")
    code, out, err = run_cli(capsys, "compare", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: no .uil files in {tmp_path}\n"


def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.uil"
    path.write_text("(letrec () (set! x))")
    code, _, err = run_cli(capsys, "alloc", str(path))
    assert code == 1
    assert "error" in err
    assert err == f"error: {path}:1:12: 'set!' takes a destination and a value\n"


def test_a_source_that_is_not_utf8_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.uil"
    path.write_bytes(b"(letrec () (return \xff))")
    code, out, err = run_cli(capsys, "alloc", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8: invalid start byte at byte 19\n"


def test_compare_lists_a_source_that_is_not_utf8_and_goes_on(capsys, tmp_path):
    (tmp_path / "a.uil").write_bytes(b"\xfe(letrec () (return 0))")
    (tmp_path / "b.uil").write_text(SPLIT_OBSERVED_SRC)
    code, out, err = run_cli(capsys, "compare", str(tmp_path), "--registers", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert {row["program"] for row in payload["rows"]} == {"b.uil"}
    assert payload["errors"] == [f"{tmp_path / 'a.uil'}: not UTF-8: invalid start byte at byte 0"]
    assert err == ""


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_parse_error_names_the_position_parse_does_for_each_line_ending(
    capsys, tmp_path, ending
):
    text = ending.join(["(letrec ()", "(set! x 1)", "(return x#))"])
    path = tmp_path / "ending.uil"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as raised:
        parse(text)
    code, out, err = run_cli(capsys, "alloc", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}:{raised.value}\n"


def test_a_byte_order_mark_is_dropped(capsys, tmp_path):
    sample = ROOT / "samples" / "split.uil"
    path = tmp_path / "bom.uil"
    path.write_bytes(b"\xef\xbb\xbf" + sample.read_bytes())
    assert run_cli(capsys, "alloc", str(path)) == run_cli(capsys, "alloc", str(sample))


# a parse error and a validation diagnostic both read <path>:<line>:<col>
@pytest.mark.parametrize(
    "text, where",
    [
        ("(letrec () (set! x))", "1:12: 'set!' takes a destination and a value"),
        ("(letrec ()\n  (set! x y) (return x))", "2:3: variable 'y' may be used before assignment"),
    ],
)
@pytest.mark.parametrize("command", ["alloc", "run"])
def test_diagnostics_name_the_file(capsys, tmp_path, command, text, where):
    path = tmp_path / "bad.uil"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:{where}\n"


def _uilc_env():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_python_dash_m_runs_the_command_line(capsys):
    argv = ["alloc", str(ROOT / "samples" / "split.uil"), "--registers", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "uilc", *argv],
        capture_output=True,
        text=True,
        env=_uilc_env(),
        timeout=60,
    )
    code, out, _ = run_cli(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert code == 0 and out


@pytest.mark.parametrize("trace", [[], ["--trace"]])
def test_closed_pipe_exits_one_with_nothing_on_stderr(trace):
    # a reader that is gone before anything is written, as `| head -2` is
    # once it has its lines
    argv = ["alloc", str(ROOT / "samples" / "sum_call.uil"), "--registers", "4", *trace]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "uilc", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_uilc_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_deeply_nested_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "deep.uil"
    path.write_text("(" * 5000)
    code, _, err = run_cli(capsys, "alloc", str(path))
    assert code == 1
    assert "1:5000: unclosed parenthesis" in err


def test_valid_but_too_deeply_nested_program_exits_one(capsys, tmp_path):
    path = tmp_path / "deep_ifs.uil"
    path.write_text(nested_ifs(400))
    code, _, err = run_cli(capsys, "alloc", str(path))
    assert code == 1
    assert "nesting deeper than 200 parentheses" in err


def test_validation_diagnostics_exit_one(capsys, tmp_path):
    path = tmp_path / "undef.uil"
    path.write_text("(letrec () (set! x y) (return x))")
    code, _, err = run_cli(capsys, "alloc", str(path))
    assert code == 1
    assert "y" in err


def test_call_result_bound_to_a_procedure_name_exits_one(capsys, tmp_path):
    path = tmp_path / "shadow.uil"
    path.write_text("(letrec ((f (lambda () (return 7)))) (set! f (f)) (set! x (f)) (return x))")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 1
    assert "1:38: cannot assign procedure name 'f'" in err


@pytest.mark.parametrize("command", ["alloc", "run"])
def test_procedure_named_like_a_register_exits_one(capsys, tmp_path, command):
    # allocated, `(r1 x)` would print `jmp r1`, which parses back as a jump
    # through register r1
    path = tmp_path / "r1.uil"
    path.write_text("(letrec ((r1 (lambda (a) (return a)))) (set! x (r1 5)) (r1 x))")
    code, out, err = run_cli(capsys, command, "--registers", "4", str(path))
    assert (code, out) == (1, "")
    assert "1:10: procedure name 'r1' is a register name" in err


@pytest.mark.parametrize("command", ["alloc", "run"])
def test_parameter_named_like_a_procedure_exits_one(capsys, tmp_path, command):
    # the call `(g x)` names g, which would keep the parameter g live
    path = tmp_path / "g.uil"
    path.write_text(
        "(letrec ((g (lambda (a) (set! b (+ a 1)) (return b)))"
        " (f (lambda (g x) (set! y (g x)) (set! z (g y)) (set! w (+ z y)) (return w))))"
        " (set! r (f 7 3)) (return r))"
    )
    code, out, err = run_cli(capsys, command, "--registers", "4", str(path))
    assert (code, out) == (1, "")
    assert "1:55: parameter 'g' of 'f' is a procedure name" in err


def test_compare_table_over_directory(capsys, tmp_path):
    (tmp_path / "a.uil").write_text(SPLIT_SRC)
    (tmp_path / "b.uil").write_text(CHAIN_SRC)
    code, out, err = run_cli(
        capsys, "compare", str(tmp_path), "--registers", "2,8", "--policies", "furthest,lifo"
    )
    assert code == 0, err
    assert "TOTAL" in out
    assert "a.uil" in out and "b.uil" in out


def test_compare_json_includes_belady_column(capsys, split_file):
    # the oracle has no register cap: at R=8 the column reads 0, not null
    for registers, loads in (("2", 1), ("8", 0)):
        code, out, _ = run_cli(
            capsys, "compare", split_file, "--registers", registers, "--policies", "furthest", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["loads"] == loads
        assert row["belady_loads"] == loads
        assert payload["totals"][0]["loads"] == loads


def test_compare_continues_past_bad_files(capsys, tmp_path):
    (tmp_path / "good.uil").write_text(SPLIT_SRC)
    (tmp_path / "bad.uil").write_text("(letrec () (set! q))")
    code, out, err = run_cli(capsys, "compare", str(tmp_path))
    assert code == 1
    assert "good.uil" in out
    assert "bad.uil" in err


def test_compare_internal_fault_exits_two(capsys, monkeypatch, split_file):
    def broken(program):
        raise RuntimeError("annotate blew up")

    monkeypatch.setattr("uilc.cli.annotate", broken)
    code, _, err = run_cli(capsys, "compare", split_file)
    assert code == 2
    assert "internal error: RuntimeError: annotate blew up" in err


def test_fuzz_count_zero_trivially_passes(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--count", "0")
    assert code == 0
    assert "0 program(s)" in out


def test_fuzz_small_batch_passes(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--count", "5", "--seed", "100")
    assert code == 0
    assert "all equivalent" in out


def test_fuzz_sweeps_the_listed_register_counts(capsys, monkeypatch):
    seen = []
    real = main.__globals__["alloc_program"]

    def recording(ap, cfg, policy, trace=None):
        seen.append(cfg.registers)
        return real(ap, cfg, policy, trace)

    monkeypatch.setattr("uilc.cli.alloc_program", recording)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "4", "--registers", "2")
    assert code == 0
    assert "4 program(s), 12 allocation(s) checked, all equivalent" in out
    assert set(seen) == {2}
    seen.clear()
    code, out, _ = run_cli(capsys, "fuzz", "--count", "1")
    assert code == 0 and sorted(set(seen)) == [3, 4, 8]


@pytest.mark.parametrize("registers", ["0", "2,0", "2,x", "", "1", "2,1"])
def test_fuzz_bad_register_list_exits_one(capsys, tmp_path, monkeypatch, registers):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "fuzz", "--count", "1", "--registers", registers)
    assert (code, out) == (1, "")
    assert err.startswith("error: --registers")
    if registers in ("1", "2,1"):
        # at R=1 the return address and the result share r0
        assert err == "error: --registers must be at least 2\n"
    assert list(tmp_path.iterdir()) == []  # no reproducer


@pytest.mark.parametrize("registers", ["3,3", "3,4,3"])
def test_fuzz_repeated_register_count_exits_one(capsys, registers):
    code, out, err = run_cli(capsys, "fuzz", "--count", "1", "--registers", registers)
    assert (code, out, err) == (1, "", "error: --registers lists 3 twice\n")


@pytest.mark.parametrize(
    "option, value, repeated",
    [("--registers", "3,3", "3"), ("--policies", "furthest,furthest", "furthest")],
)
def test_compare_repeated_value_exits_one(capsys, split_file, option, value, repeated):
    code, out, err = run_cli(capsys, "compare", split_file, option, value)
    assert (code, out, err) == (1, "", f"error: {option} lists {repeated} twice\n")


def test_fuzz_injected_fault_writes_reproducer(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        "uilc.cli.equivalent",
        lambda *args, **kwargs: EquivReport(False, 1, "injected divergence"),
    )
    code, _, err = run_cli(capsys, "fuzz", "--count", "1", "--seed", "7")
    assert code == 1
    assert "injected divergence" in err
    repro = tmp_path / "fuzz_fail_7.uil"
    assert repro.exists()
    assert repro.read_text().startswith("(letrec")


def test_fuzz_compiles_each_program_from_its_text(capsys, monkeypatch):
    texts = []

    def recording(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr("uilc.cli.parse", recording)
    code, out, _ = run_cli(capsys, "fuzz", "--count", "3", "--seed", "40", "--registers", "3")
    assert code == 0
    assert out == "fuzz: 3 program(s), 9 allocation(s) checked, all equivalent\n"
    assert texts == [format_program(generate_program(seed)) for seed in (40, 41, 42)]


@pytest.mark.parametrize(
    "parsed, detail",
    [
        (Program((), (ReturnValue(0),)), "the generated program's text parses to another program"),
        (ParseError("bad operand 'x#'", 3, 4), "the generated program's text does not parse: 3:4: bad operand 'x#'"),
    ],
)
def test_fuzz_text_that_does_not_read_back_writes_reproducer(
    capsys, tmp_path, monkeypatch, parsed, detail
):
    monkeypatch.chdir(tmp_path)

    def misreading(text):
        if isinstance(parsed, ParseError):
            raise parsed
        return parsed

    monkeypatch.setattr("uilc.cli.parse", misreading)
    code, out, err = run_cli(capsys, "fuzz", "--count", "3", "--seed", "7")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"FAIL seed=7: {detail}", "reproducer written to fuzz_fail_7.uil"]
    assert (tmp_path / "fuzz_fail_7.uil").read_text() == format_program(generate_program(7))


def test_fuzz_allocation_error_writes_reproducer(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def failing(ap, cfg, policy, trace=None):
        raise RuntimeError("injected blow-up")

    monkeypatch.setattr("uilc.cli.alloc_program", failing)
    code, out, err = run_cli(capsys, "fuzz", "--count", "3", "--seed", "7")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "FAIL seed=7: R=3 furthest: RuntimeError: injected blow-up",
        "reproducer written to fuzz_fail_7.uil",
    ]
    assert (tmp_path / "fuzz_fail_7.uil").read_text().startswith("(letrec")


def test_fuzz_checks_every_model_the_allocator_builds(capsys, tmp_path, monkeypatch):
    # the allocator itself never runs the check, so only fuzz can meet one
    # that fails; it reports the first model of the trace, before its
    # first live statement
    monkeypatch.chdir(tmp_path)

    def out_of_step(self):
        raise ModelError("owner index out of step with the maps")

    monkeypatch.setattr(Model, "check", out_of_step)
    trace = []
    alloc_program(annotate(generate_program(7)), make_config(3), "furthest", trace)
    first = next(e for e in trace if e.pre is not None)
    code, out, err = run_cli(capsys, "fuzz", "--count", "3", "--seed", "7")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"FAIL seed=7: R=3 furthest: ModelError: model before {first.scope} #{first.a.point}"
        " out of step: owner index out of step with the maps",
        "reproducer written to fuzz_fail_7.uil",
    ]
    assert (tmp_path / "fuzz_fail_7.uil").read_text() == format_program(generate_program(7))


def test_fuzz_names_a_model_after_its_statement(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = []
    alloc_program(annotate(generate_program(7)), make_config(3), "furthest", trace)
    first = next(e for e in trace if e.pre is not None)
    checked = []

    def second_out_of_step(self):
        # fuzz checks each entry's model before it, then the one after it
        checked.append(self)
        if len(checked) == 2:
            raise ModelError("two variables share a register")

    monkeypatch.setattr(Model, "check", second_out_of_step)
    code, out, err = run_cli(capsys, "fuzz", "--count", "3", "--seed", "7")
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == (
        f"FAIL seed=7: R=3 furthest: ModelError: model after {first.scope} #{first.a.point}"
        " out of step: two variables share a register"
    )


def test_missing_file_is_a_diagnostic(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/х.uil")
    assert code == 1


def test_internal_fault_exits_two(capsys, split_file, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("wired to fail")

    monkeypatch.setattr("uilc.cli.alloc_program", explode)
    code, _, err = run_cli(capsys, "run", split_file)
    assert code == 2
    assert "internal error" in err


STRAIGHT_A = """
(letrec ()
  (set! v0 95)
  (set! v1 76)
  (set! v2 (+ v0 v1))
  (mset! 1 15 v1)
  (set! v1 (+ v2 v2))
  (set! v3 (mref 28 0))
  (set! v2 (- v2 v0))
  (return v2))
"""

STRAIGHT_B = """
(letrec ()
  (set! a 4)
  (set! b (* a a))
  (set! c (+ a b))
  (set! d (- c a))
  (return d))
"""


def test_compare_straight_line_totals_and_oracle_column(capsys, tmp_path):
    (tmp_path / "a.uil").write_text(STRAIGHT_A)
    (tmp_path / "b.uil").write_text(STRAIGHT_B)
    code, out, _ = run_cli(
        capsys,
        "compare",
        str(tmp_path),
        "--registers",
        "2",
        "--policies",
        "furthest,lifo",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        if row["policy"] == "furthest":
            assert row["loads"] == row["belady_loads"]
    totals = {t["policy"]: t for t in payload["totals"]}
    furthest = totals["furthest"]["loads"] + totals["furthest"]["stores"]
    lifo = totals["lifo"]["loads"] + totals["lifo"]["stores"]
    assert furthest <= lifo


@pytest.mark.parametrize("registers", ["0", "2,0", "2,x", ""])
def test_compare_bad_register_list_exits_one(capsys, split_file, registers):
    code, out, err = run_cli(capsys, "compare", split_file, "--registers", registers)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --registers")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "{file}", "--fuel", "-5"), "--fuel must be at least 1"),
        (("run", "{file}", "--fuel", "0"), "--fuel must be at least 1"),
        (("compare", "{file}", "--fuel", "0"), "--fuel must be at least 1"),
        (("fuzz", "--count", "1", "--fuel", "0"), "--fuel must be at least 1"),
        (("fuzz", "--count", "-3"), "--count must be at least 0"),
    ],
)
def test_out_of_range_values_exit_one(capsys, split_file, argv, message):
    code, out, err = run_cli(capsys, *(a.format(file=split_file) for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("run",),  # missing file
        ("run", "x.uil", "--registers", "abc"),
        ("alloc", "x.uil", "--policy", "nosuch"),
        ("frobnicate",),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "usage: uilc" in err


# each subcommand declares only the flags it reads
@pytest.mark.parametrize(
    "argv",
    [
        ("alloc", "x.uil", "--json"),
        ("alloc", "x.uil", "--fuel", "5"),
        ("alloc", "x.uil", "--seed", "1"),
        ("compare", "x.uil", "--policy", "lifo"),
        ("compare", "x.uil", "--seed", "1"),
        ("fuzz", "--policy", "lifo"),
        ("fuzz", "--json"),
        ("run", "x.uil", "--no-preference"),
    ],
)
def test_removed_flags_are_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [("--help",), ("run", "--help")])
def test_help_exits_zero(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: uilc")
