"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts
with other tenants' load: the same repetition of one seed took 1.3 s in
one minute and 2.3 s in the next on a 2-vCPU Intel Xeon VM, with no
other process in the VM. No summary of wall times inside one run can
remove a drift that lasts longer than the run.

So ``worker.py`` times a fixed pure-Python kernel between the slices of
its run, and ``run.py`` scales each repetition's wall times by
:func:`speed` of the kernel's mean time in that repetition.  The kernel
imports nothing from ``repro``, so no change to the program can move
it; it does the kind of work the simulator does (heap-ordered events of
small objects, dict updates, short strings), so a loaded host slows
both alike.  Not by the same factor: over 170 repetitions of
``probe_incast``, ``ndb_fabric`` and ``rcp_star`` on the reference
host, the log of a repetition's wall time fell on a line in the log of
its kernel time with slope 0.77 to 0.85 (correlation at least 0.98),
hence ``EXPONENT``.  A scaled time reads as the wall time the
repetition would have taken on the reference host when it was quiet;
the quartile spread of its values over those repetitions was 2-4% of
the median, where that of the wall times was 20-32%.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The kernel's time on the reference host, a 2-vCPU Intel Xeon VM, when
#: quiet: the tenth percentile of 10,100 timings between the slices of
#: 100 repetitions.
REFERENCE_S = 0.0019
EXPONENT = 0.8

EVENTS = 1500


class _Event:
    __slots__ = ("time", "serial", "kind")

    def __init__(self, time: int, serial: int, kind: int) -> None:
        self.time = time
        self.serial = serial
        self.kind = kind

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        totals: dict = {}
        chars = 0
        for serial in range(EVENTS):
            heapq.heappush(heap, _Event((serial * 7919) % 10007, serial,
                                        serial & 7))
        while heap:
            event = heapq.heappop(heap)
            totals[event.kind] = totals.get(event.kind, 0) + event.serial
            chars += len(str(event.time))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(kernel_s: float) -> float:
    """Factor that takes a wall time measured alongside a kernel mean
    time of ``kernel_s`` to the reference host's quiet speed."""
    return (REFERENCE_S / kernel_s) ** EXPONENT
