"""The collector pause shared by the five compile stages."""

from __future__ import annotations

import functools
import gc


def gc_paused(fn):
    """Run ``fn`` with Python's cyclic garbage collector disabled.

    A compile builds large acyclic structures (reader tree, AST,
    annotations, instructions) that reference counting frees on its own,
    but every young collection during the build re-scans what is still
    being built.  The collector is re-enabled on return or raise only if it
    was enabled on entry, so nested stages and callers that turned it off
    keep their setting.  The switch is process-wide.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused
