"""Host-speed calibration: a reference loop sampled while the program runs.

The benchmark runs on shared virtual machines whose CPU speed moves by a
third within seconds (a fixed pure-Python loop takes 34 ms in one second and
50 ms in the next), so raw wall times of one program spread more between
runs than the bounds allow. `Calibrated` times a block of code and, while it
runs, interrupts it every `period` seconds with a timer signal that runs a
fixed reference loop and records how long the loop took. The loop's own time
is taken out of the block's time, and the rest is rescaled to a host on
which the reference loop takes `REFERENCE_S`:

    scaled_s = (wall_s - sampling_s) * REFERENCE_S / mean(reference loop times)

The reference loop does what the program does most: dict updates keyed by
short strings, small objects, a keyed sort and string joins and splits.
Sampled this way, repeated timings of one `evaluate` stage spread by about
5 % where their raw wall times spread by 15-30 %. A slower program still
reads slower: the reference loop does not run any of its code.

The signal handler runs in the main thread between bytecodes, so the
program's outputs do not change; only timed benchmark processes use it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Nominal time of one reference loop; scaled times are seconds on a host
# where the loop takes this long (about what the 2.0 GHz vCPUs the baselines
# were measured on take when no neighbour slows them).
REFERENCE_S = 0.002
PERIOD_S = 0.05

# The loop allocates, hashes and sorts like the program does: loops that
# only chase pointers through megabytes slow less than the program when the
# host is busy, and tracked it three times worse (see README.md).
_WORDS = tuple(f"w{i * 7919 % 1000}" for i in range(400))


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: str, count: int) -> None:
        self.key = key
        self.count = count


def reference_loop() -> None:
    for _ in range(5):
        counts: dict[str, int] = {}
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + 1
        items = [_Item(key, count) for key, count in counts.items()]
        items.sort(key=lambda item: (item.count, item.key))
        " ".join(item.key for item in items).split()


def _time_reference() -> float:
    # With the collector on, the loop's allocations would set off collections
    # whose cost depends on the program's heap, not on the host.
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class Calibrated:
    """Times its body in reference-host seconds (`scaled_s`); `wall_s` is
    the body's wall time without the sampling."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._active = False
        self._sampling_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._active:
            took = _time_reference()
            self.samples.append(took)
            self._sampling_s += took

    def __enter__(self) -> "Calibrated":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.samples.append(_time_reference())
        self._active = True
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        ended = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_time_reference())
        self.wall_s = ended - self._started - self._sampling_s
        self.scaled_s = self.wall_s * REFERENCE_S / self.reference_s

    @property
    def reference_s(self) -> float:
        """Mean time of the reference loop while the body ran."""
        return statistics.fmean(self.samples)
