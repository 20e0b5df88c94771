import hashlib

from uilc import gen, machine
from uilc.gen import generate_program, generate_straight_line
from uilc.uil import format_program

# Digest of the `format_program` text of every generated corpus the tests
# and the bench use: C5 (generator seeds 0..499), C6 (straight-line seeds
# 0..199), the ten `large-pressure` programs and C7's 150 low-pressure
# programs.  A change to `gen` must leave it as it is, so that no corpus
# moves under the other pins.
GENERATOR_SHA256 = "834d05cd5043209745b3de3c19d7d3d31cd3a952bbe54e5cd732ea65c3d45326"


def _generated():
    yield from (generate_program(seed) for seed in range(500))
    yield from (generate_straight_line(seed) for seed in range(200))
    for seed in range(10):
        yield generate_program(seed, max_procs=0, max_stmts=3000, pressure_vars=32)
    yield from (generate_program(10_000 + seed, pressure_vars=3) for seed in range(150))


def test_generated_programs_are_pinned():
    digest = hashlib.sha256()
    for p in _generated():
        digest.update(format_program(p).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == GENERATOR_SHA256


def test_generated_heap_addresses_stay_in_the_default_heap():
    # every generated `mref`/`mset!` address is base + index with both in
    # range, so the largest one must be a word of the default heap
    assert gen.HEAP_BASE_MAX + gen.HEAP_INDEX_MAX < machine.DEFAULT_HEAP_WORDS


def test_straight_line_programs_stay_within_the_oracle_cap():
    assert gen.STRAIGHT_LINE_VARS <= machine.ORACLE_MAX_VARS
