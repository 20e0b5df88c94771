"""The five compile stages pause Python's cyclic garbage collector.

Each stage leaves the collector as it found it, on return and on raise,
and compiling creates no reference cycles, so pausing the collector never
keeps garbage alive.  The eviction oracle creates none either.
"""

import gc
import sys

import pytest

from uilc.allocator import POLICIES, PressureError, alloc_program
from uilc.analysis import annotate
from uilc.gen import generate_program, generate_straight_line
from uilc.isa import TargetProgram, format_target
from uilc.machine import belady_oracle
from uilc.model import make_config
from uilc.uil import ParseError, format_program, parse, validate

from conftest import SPLIT_SRC

PROGRAM = parse(SPLIT_SRC)
ANNOTATED = annotate(PROGRAM)
TARGET = alloc_program(ANNOTATED, make_config(2))

# case -> (stage, call, exception the call raises or None)
CASES = {
    "parse": (parse, lambda: parse(SPLIT_SRC), None),
    "parse-malformed": (parse, lambda: parse("(letrec () (set! x))"), ParseError),
    "validate": (validate, lambda: validate(PROGRAM), None),
    "annotate": (annotate, lambda: annotate(PROGRAM), None),
    "alloc_program": (alloc_program, lambda: alloc_program(ANNOTATED, make_config(2)), None),
    "alloc_program-R1": (
        alloc_program,
        lambda: alloc_program(ANNOTATED, make_config(1)),
        PressureError,
    ),
    "format_target": (format_target, lambda: format_target(TARGET), None),
    "format_target-non-instruction": (
        format_target,
        lambda: format_target(TargetProgram(["not an instruction"])),
        TypeError,
    ),
}


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_enabled(request):
    was = gc.isenabled()
    threshold = gc.get_threshold()
    # collect after every allocation, so an unpaused stage would collect
    gc.set_threshold(1)
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("case", CASES)
def test_stage_pauses_gc_and_restores_it(gc_enabled, case):
    stage, call, error = CASES[case]
    code = stage.__wrapped__.__code__
    inside = []

    def on_collect(phase, info):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is code:
                inside.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(on_collect)
    try:
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
    finally:
        gc.callbacks.remove(on_collect)
    assert gc.isenabled() is gc_enabled
    assert inside == []


def test_compiling_creates_no_cyclic_garbage():
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    pressure = 0
    try:
        for seed in range(50):
            program = parse(format_program(generate_program(seed)))
            assert validate(program) == []
            annotated = annotate(program)
            # no generator program raises PressureError at R >= 2; R=1 runs
            # the error path, except on seeds 1 and 42, whose live values
            # fit one register once their dead assignments emit nothing
            for r in (1, 2, 3, 8):
                cfg = make_config(r)
                for policy in POLICIES:
                    try:
                        format_target(alloc_program(annotated, cfg, policy))
                    except PressureError:
                        pressure += 1
        assert pressure == 48 * len(POLICIES)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_belady_oracle_creates_no_cyclic_garbage():
    programs = [annotate(generate_straight_line(seed)) for seed in range(50)]
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        total = sum(belady_oracle(ap, r) for ap in programs for r in (2, 3))
        assert total > 0
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
