import json

import pytest

from uilc.cli import main
from uilc.machine import EquivReport

from conftest import SPLIT_SRC, CHAIN_SRC


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.uil"
    path.write_text(SPLIT_SRC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alloc_prints_golden_shape(capsys, split_file):
    code, out, _ = run_cli(capsys, "alloc", split_file, "--registers", "2")
    assert code == 0
    lines = [line.strip() for line in out.strip().splitlines()]
    assert lines[:6] == [
        "loadimm r0, 1",
        "loadimm r1, 2",
        "store fv0, r0",
        "add r0, r1, 1",
        "load r0, fv0",
        "add r0, r0, r1",
    ]


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


def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.uil"
    path.write_text("(letrec () (set! x))")
    code, _, err = run_cli(capsys, "alloc", str(path))
    assert code == 1
    assert "error" in err


def test_validation_diagnostics_exit_one(capsys, tmp_path):
    path = tmp_path / "undef.uil"
    path.write_text("(letrec () (set! x y) (return x))")
    code, _, err = run_cli(capsys, "alloc", str(path))
    assert code == 1
    assert "y" in err


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
    code, out, _ = run_cli(
        capsys, "compare", split_file, "--registers", "2", "--policies", "furthest", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["loads"] == 1
    assert row["belady_loads"] == 1
    assert payload["totals"][0]["loads"] == 1


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
