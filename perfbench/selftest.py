"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
The file name keeps these out of the repository's own test run: each test
starts full benchmark processes and takes tens of seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNT_UNITS = {"count", "bytes", "ratio"}


def run_bench(workload: str, trace: int, hash_seed: str, cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"^\s+asm_sha256: ([0-9a-f]{64})$", proc.stdout, re.M).group(1)
    return result, digest


def exact(result) -> dict:
    """The metrics that are counts, not timings or memory."""
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS and name != "trace.overhead_frac"
    }


@pytest.fixture(scope="module")
def acceptance_runs():
    return [parse(run_bench("acceptance", 0, h)) for h in ("0", "1")]


def test_counts_and_digest_do_not_depend_on_the_hash_seed(acceptance_runs):
    (a, digest_a), (b, digest_b) = acceptance_runs
    assert exact(a) and exact(a) == exact(b)
    assert digest_a == digest_b


def test_traced_counts_and_digest_do_not_depend_on_the_hash_seed():
    (a, digest_a), (b, digest_b) = (parse(run_bench("recursive-exec", 1, h)) for h in ("2", "3"))
    counts = exact(a)
    assert counts["model.updates"] > 0 and counts["machine.call_rounds"] > 0
    assert counts == exact(b)
    assert digest_a == digest_b


def test_acceptance_at_default_seed_matches_the_gates(acceptance_runs):
    (result, _), _ = acceptance_runs
    # C5: every allocation agrees with the interpreter
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["pass_frac"]["value"] == 1.0
    # C6: furthest next use is at the exhaustive minimum on every instance
    # (the oracle is a lower bound per instance, so a ratio of sums of 1
    # means no instance is above it)
    assert result["metrics"]["belady_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run_bench("recursive-exec", 0, "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
