"""Host-speed sampling: rescale measured walls to a reference host speed.

On a shared host other tenants slow this machine's CPU down in bursts:
a fixed loop runs up to 1.7x slower for a second or so, then fast again,
and over a benchmark run the share of slow time drifts by a third. CPU
time slows with wall time, so it is not scheduling, and no statistic
over whole jobs can tell a slower program from a busier neighbour.

So while a timed block runs, ``SpeedSampler`` interrupts it every
``SAMPLE_INTERVAL_S`` (``SIGALRM``) and times one run of
``speed_probe``, a fixed slice of pure-Python work that uses no
``repro`` code. The probe runs on the same core at the same moments as
the block, so the mean of its times is the block's mean slowdown.
``scaled`` divides it out::

    reference seconds = wall * PROBE_REF_S / mean(probe times)

``PROBE_REF_S`` is the probe's time on a quiet core of the reference
host (a 2-vCPU Intel Xeon VM, where the probe's fast mode reads
0.39-0.42 ms inside a running job). The probes add under 1% to a block's
wall. A slower program still reads slower: the probe times do not
depend on ``repro``.

A block that runs in another process (a fresh interpreter importing
``repro``) is bracketed instead: ``burst`` times probes back to back in
this process just before and just after it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from typing import Dict, Iterator, List

SAMPLE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0004
PROBE_WARMUP = 5
BURST_PROBES = 25


def speed_probe() -> Dict[int, int]:
    """A fixed slice of pure-Python work, about 0.4 ms on a quiet core."""
    counts: Dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
    return counts


class SpeedSampler:
    """Times ``speed_probe`` every ``SAMPLE_INTERVAL_S`` of a timed block."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        for _ in range(PROBE_WARMUP):
            speed_probe()  # so no sample pays first-call costs

    def _probe(self, signum=None, frame=None) -> None:
        # The probe's allocations must not set off a collection of the
        # program's heap inside the timed probe.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            speed_probe()
            self._samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()

    def burst(self, count: int = BURST_PROBES) -> List[float]:
        """Time ``count`` probes back to back; returns their times."""
        samples: List[float] = []
        self._samples = samples
        for _ in range(count):
            self._probe()
        return samples

    @contextlib.contextmanager
    def measure(self) -> Iterator[List[float]]:
        """Sample while the block runs; the yielded list gets the samples.

        A block shorter than one interval gets one probe right after it,
        so the list is never empty once the block has ended.
        """
        samples: List[float] = []
        self._samples = samples
        previous = signal.signal(signal.SIGALRM, self._probe)
        # Restart the block's system calls instead of failing them with
        # EINTR: the probe must not change what the program does.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not samples:
            self._probe()


def scaled(seconds: float, samples: List[float]) -> float:
    """``seconds`` at the reference host speed, given the block's samples."""
    return seconds * PROBE_REF_S / statistics.fmean(samples)
