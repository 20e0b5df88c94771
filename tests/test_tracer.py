"""The benchmark's layer tracer (`perfbench/tracer.py`, run by `--trace 1`)
wraps uilc functions and methods by name; each must still exist."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from uilc.model import make_config

from conftest import SPLIT_OBSERVED_SRC

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = ("uil", "analysis", "model", "allocator", "isa", "machine", "gen")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    tracer_mod = _load_tracer()
    lib = SimpleNamespace(**{n: importlib.import_module(f"uilc.{n}") for n in LAYERS})
    tracer = tracer_mod.Tracer()
    try:
        # install looks each name up in its owner's __dict__: a missing one
        # raises KeyError here
        tracer_mod.install(lib, tracer, Counter())
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
        ap = lib.analysis.annotate(lib.uil.parse(SPLIT_OBSERVED_SRC))
        lib.allocator.alloc_program(ap, make_config(2), "lifo")
    finally:
        tracer.close()
    assert {attr for _, attr, _ in patched} >= {"pick_victim", *tracer_mod.MODEL_UPDATES}
    assert tracer.counts["allocator.pick_victim"] >= 1
    assert tracer.counts["model.bind_reg"] >= 1
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
