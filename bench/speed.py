"""Machine-speed normalization for timings taken on a shared, noisy host.

On a host shared with other tenants the same pure-Python work can take
anywhere from 1x to 2x as long from one second to the next, with CPU time
equal to wall time (the core runs slower; the process is not descheduled).
The probe is a fixed product of two sparse polynomials held as dicts of
exponent tuples to Fractions, the shape of the package's own hot loop, but
written here so that no change to the package can change the probe.  It runs
with the garbage collector paused, so the program's heap does not change its
duration.  It runs between ops, at most every ``PROBE_INTERVAL_S`` seconds, and a
time interval is converted to reference seconds with the mean of the probes on
either side of it:

    reference seconds = seconds * REFERENCE_PROBE_S / probe duration

``REFERENCE_PROBE_S`` is the probe's duration inside a run on the reference box
(2 cores, Python 3.11.7) while nothing else slows the core; under load it took
up to 2.5 times as long.  Reference seconds read as seconds on that box at
that speed.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

from workloads import Hooks

REFERENCE_PROBE_S = 0.003
PROBE_INTERVAL_S = 0.1
_FACTOR = {(i, 8 - i): Fraction(i + 1, 3) for i in range(9)}
_FACTOR.update({(i, 7 - i): Fraction(2 * i + 1, 5) for i in range(8)})


def _spin() -> None:
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            product: dict = {}
            for ea, ca in _FACTOR.items():
                for eb, cb in _FACTOR.items():
                    e = (ea[0] + eb[0], ea[1] + eb[1])
                    product[e] = product.get(e, 0) + ca * cb
    finally:
        if enabled:
            gc.enable()


class SpeedProbe(Hooks):
    """Probes machine speed between ops and converts intervals to reference seconds."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, end), in time order

    def probe(self) -> None:
        start = time.perf_counter()
        _spin()
        self.probes.append((start, time.perf_counter()))

    def begin(self, op_id: int) -> None:
        if not self.probes or time.perf_counter() - self.probes[-1][1] >= PROBE_INTERVAL_S:
            self.probe()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of [start, end]; probe time inside it does not count.

        The interval must lie between the first and the last probe.
        """
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            lo, hi = max(start, e0), min(end, s1)
            if hi > lo:
                total += (hi - lo) * REFERENCE_PROBE_S * 2 / ((e0 - s0) + (e1 - s1))
        return total
