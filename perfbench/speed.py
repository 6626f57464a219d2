"""Host-speed correction for timings taken on a shared machine.

On a shared 2-core virtual machine, the speed of each core was seen to
drift by up to 2x within a second, with no correlation between the two
cores. Wall times of the same run then vary by 30% from one run to the
next. To correct for this, a short fixed loop (``probe``) runs on the
measuring core while a sample is timed. It runs from a SIGALRM handler,
between the library's bytecodes. The loop does not touch the library, but
it mixes the operations the library spends its time on: keyed hashing,
dict inserts with tuple keys, and big-int shifts and XORs.

A corrected sample is its wall time minus the time spent in probes, scaled
by ``REFERENCE_PROBE_S`` over the mean probe time during the sample. The
result is in seconds on a host where one probe takes ``REFERENCE_PROBE_S``.
Probes take about 2% of the time, and that share is subtracted.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
from time import perf_counter

REFERENCE_PROBE_S = 0.001
PROBE_LOOPS = 500


def probe() -> float:
    """Wall time of one fixed loop."""
    start = perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        digest = hashlib.blake2b(i.to_bytes(8, "big"), digest_size=16).digest()
        table[i % 97, i] = value = int.from_bytes(digest, "big")
        acc ^= value >> (i % 64)
    return perf_counter() - start


class SpeedMeter:
    """Runs ``probe`` every ``interval`` seconds while the block is active.

    Time only the block's work inside it, then pass the wall time to
    ``corrected``. The process must not use SIGALRM for anything else.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.probes: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.probes.append(probe())

    def __enter__(self) -> "SpeedMeter":
        self.probes = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, elapsed: float) -> float:
        """``elapsed`` without the probes, in reference-host seconds."""
        probed = sum(self.probes)
        if not self.probes:  # shorter than one interval: probe right after
            self.probes.append(probe())
        return (elapsed - probed) * REFERENCE_PROBE_S / statistics.mean(self.probes)
