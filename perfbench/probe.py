"""Host-speed probe for the percache benchmark.

On a shared virtual machine the CPU speed swings by up to 2x, for seconds to
minutes at a time, because other tenants load the same cores. A run that
lands in a slow minute reads slow on every timing. The probe measures the
host's speed right beside each timed operation with a fixed piece of work
that shares no code with percache, and a timing is rescaled to the speed at
which the probe takes ``REFERENCE_MS``: ``ms * REFERENCE_MS / probe_ms``.

The work is plain Python: dict updates, string joins and splits, a sort. On
a shared 2-vCPU x86 virtual machine the swings hit the interpreter far
harder than numpy kernels, and percache's events are interpreter-bound. Over
four minutes there that spanned a 1.5x swing, this probe tracked a
prefix_reuse miss to within 4% and a QA match to within 2% (quartile spread
over 20 s windows), while numpy or memory-streaming probes, alone or mixed
in, tracked them to within 10-17%.

The probe runs its work once untimed and then times a second pass, so the
cache footprint the program left behind does not leak in, and it reads this
thread's CPU time, so a thread the program may start does not slow it down.
On that machine CPU time and wall time of the probe agree: the swings are
lost speed, not time spent descheduled.
"""

from __future__ import annotations

import time

# Median probe time in ms on a 2-vCPU x86 container in a fast minute.
REFERENCE_MS = 0.9


class Probe:
    def __init__(self) -> None:
        self._words = [f"w{i}" for i in range(400)]
        self.ms: list[float] = []

    def _work(self) -> None:
        for _ in range(2):
            counts: dict[str, int] = {}
            for i, word in enumerate(self._words * 10):
                counts[word] = counts.get(word, 0) + i
            sorted(" ".join(self._words).split())

    def measure(self) -> float:
        """Probe time in ms; also kept in ``self.ms``."""
        self._work()
        t0 = time.thread_time_ns()
        self._work()
        ms = (time.thread_time_ns() - t0) / 1e6
        self.ms.append(ms)
        return ms

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales a time measured between two probes."""
        return REFERENCE_MS / ((before + after) / 2)
