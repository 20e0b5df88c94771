"""Machine-speed calibration for the benchmark's timings.

The benchmark was tuned on a shared 2-core VM whose CPU speed drifts by up
to 2x over minutes while other tenants load the host: the same
compile loop ran at 10.7 to 13.1 kstmt/s in six back-to-back runs.  No
statistic of the program's own timings removes a drift that lasts longer
than a run, so every measured interval is bracketed by a fixed pure-Python
probe that uses no uilc code, and the interval is rescaled to the speed at
which one probe loop takes ``REFERENCE_S``.  In those six runs the rescaled
rates stayed within 3% of each other.

A timing reported in reference seconds therefore equals wall seconds when
the machine runs at the reference speed, and is smaller than wall seconds
when the host is busy.  Raw wall-clock figures are printed next to them.
"""

from __future__ import annotations

from time import perf_counter

PROBE_CALLS = 2
# The speed changes within a second, so long intervals are probed inside too.
INTERVAL_S = 0.1
# One _loop() call on the 2-core Xeon VM the benchmark was tuned on, with
# the host quiet.  Only ratios between runs matter; this constant keeps the
# rescaled figures close to wall-clock ones.
REFERENCE_S = 0.0025


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _loop() -> int:
    # dict copies, small objects, attribute access, string keys, isinstance
    # and a sort: the same kinds of work the compiler's Python code does
    objs = []
    seen: dict[str, int] = {}
    for i in range(1500):
        d = {"a": i, "b": i + 1}
        d2 = dict(d)
        d2["c"] = i * 3
        p = _Pair(i, d2)
        key = f"x{i % 31}"
        seen[key] = seen.get(key, 0) + p.b["c"]
        objs.append((key, len(d2), isinstance(p.a, int)))
    objs.sort()
    return len(objs) + len(seen)


def probe() -> float:
    """Seconds that ``PROBE_CALLS`` probe loops take right now."""
    start = perf_counter()
    for _ in range(PROBE_CALLS):
        _loop()
    return perf_counter() - start


def slowness(probes: list[float]) -> float:
    """How much slower than the reference speed the machine ran, from probes
    taken at both ends of an interval and at least every ``INTERVAL_S``
    within it.

    Divide a wall-clock interval by this to get reference seconds.
    """
    return sum(probes) / (len(probes) * PROBE_CALLS * REFERENCE_S)
