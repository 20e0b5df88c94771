"""Layer tracing from outside the program.

The tracer replaces public functions and methods of the uilc modules with
timing wrappers, by assignment to the module or class attribute, and puts
the originals back when it is closed.  Internal callers look these names
up at call time, so a wrapper on ``allocator.pick_victim`` also sees the
allocator's own calls.

Boundary calls (parse, annotate, alloc_program, run_target, ...) are kept
as spans: name, start, end and the index of the enclosing span.  The
model updates, model constructions and victim picks run hundreds of
thousands of times per pass; they are counted and timed but not stored
one by one.  Every wrapper charges its duration to its caller, so each
layer's self time is its time minus the time of the calls it made into
other wrapped functions.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODEL_UPDATES = ("bind_reg", "bind_slot", "unbind_reg", "unbind_slot", "drop", "restrict")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # one frame per active wrapper: [child seconds, stored span index]
        self._stack: list[list] = [[0.0, -1]]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, layer: str, record: bool = True, after=None) -> None:
        """Time calls to ``owner.attr`` as ``layer.attr``.

        ``after(result, args)`` runs once the span has ended, to count
        what the call produced.  Exceptions are counted by type and
        re-raised.
        """
        original = owner.__dict__[attr]
        name = f"{layer}.{attr}"
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack, counts, self_s, spans = self._stack, self.counts, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if record:
                frame[1] = len(spans)
                spans.append(None)  # reserved so children see their parent's index
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as e:
                counts[f"{name}!{type(e).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self_s[layer] += duration - frame[0]
                self_s[name] += duration - frame[0]
                counts[name] += 1
                if record:
                    spans[frame[1]] = (name_id, start, end, parent[1])
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without timing them."""
        original = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def close(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "counts": dict(sorted(self.counts.items())),
            "self_s": dict(sorted(self.self_s.items())),
            **extra,
        }
        path.write_text(json.dumps(doc))


def install(lib, tracer: Tracer, tally: Counter) -> None:
    """Wrap every layer's public entry points; ``tally`` receives output sizes."""

    def count_diagnostics(result, args):
        tally["uil.diagnostics"] += len(result)

    def count_parsed(result, args):
        tally["uil.parse_chars"] += len(args[0])

    def count_emitted(result, args):
        tally["allocator.insts"] += sum(
            1 for i in result.flatten() if not isinstance(i, lib.isa.LabelDef)
        )

    def count_static(result, args):
        loads, stores, moves = result
        tally["isa.static_loads"] += loads
        tally["isa.static_stores"] += stores
        tally["isa.static_moves"] += moves

    def count_asm(result, args):
        tally["isa.asm_bytes"] += len(result)

    def count_simulated(result, args):
        _, stats = result
        tally["machine.steps"] += stats.steps
        tally["machine.call_rounds"] += stats.call_rounds

    tracer.span(lib.uil, "parse", "uil", after=count_parsed)
    tracer.span(lib.uil, "validate", "uil", after=count_diagnostics)
    tracer.span(lib.analysis, "annotate", "analysis")
    tracer.span(lib.allocator, "alloc_program", "allocator", after=count_emitted)
    tracer.span(lib.allocator, "pick_victim", "allocator", record=False)
    for method in MODEL_UPDATES:
        tracer.span(lib.model.Model, method, "model", record=False)
    tracer.count(lib.model.Model, "__init__", "model.models_built")
    tracer.span(lib.isa, "format_target", "isa", after=count_asm)
    tracer.span(lib.isa, "static_traffic", "isa", after=count_static)
    tracer.span(lib.machine, "run_target", "machine", after=count_simulated)
    tracer.span(lib.machine, "run_uil", "machine")
    tracer.span(lib.machine, "belady_oracle", "machine")
    tracer.span(lib.gen, "generate_program", "gen")
    tracer.span(lib.gen, "generate_straight_line", "gen")
