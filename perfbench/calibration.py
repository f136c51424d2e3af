"""Machine-speed reference for the end-to-end timings.

The measurement machine is a small guest on a shared host whose speed
drifts by up to 2x over seconds to minutes.  Wall times alone then say
as much about the host's other tenants as about the program, so every
gated timing is scaled by how fast the machine runs *right now*: a
fixed, program-independent piece of pure-Python work (:func:`kernel`)
is timed in short slices interleaved with the measured operations, and
each operation's wall time ``t`` is reported as
``t * REFERENCE_S / k``, where ``k`` is the median kernel time around
it.  A number is therefore "seconds at reference speed": the wall time
the operation would have taken had the kernel run in ``REFERENCE_S``.

The kernel imports nothing from ``repro``, so no change to the program
can move it; it does the kind of work the simulator's hot paths do
(a heap of events, small slotted objects, dict and tuple traffic,
float arithmetic) so that a slow host slows both alike.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import signal
import statistics
import time
from typing import Iterator

#: Kernel wall time (s) that defines reference speed: the median of the
#: kernel on an idle 2-vCPU Intel Xeon KVM guest.
REFERENCE_S = 0.016
#: The kernel's result; a different value means it did not run as written.
KERNEL_RESULT = (450, 1889.5)
#: Kernel slices (before and after an operation) a scale is taken over.
WINDOW = 3


class _Flow:
    __slots__ = ("remaining", "rate", "path")

    def __init__(self, remaining: float, path: tuple[int, ...]) -> None:
        self.remaining = remaining
        self.rate = 0.0
        self.path = path


def kernel(flows: int = 450, links: int = 32) -> tuple[int, float]:
    """A toy event-driven flow simulation; returns ``(completed, end time)``.

    Keys are ints, never strings: string hashes change with each
    interpreter's hash seed, and with them the kernel's speed.
    """
    capacity = {i: 50.0 + (i * 37) % 101 for i in range(links)}
    table = {}
    events: list[tuple[float, int]] = []
    for fid in range(flows):
        path = tuple((fid * 7 + k * 13) % links for k in range(1 + fid % 4))
        table[fid] = _Flow(1.0e3 + (fid * 131) % 977, path)
        heapq.heappush(events, ((fid % 17) * 0.25, fid))
    active: set[int] = set()
    now = 0.0
    completed = 0
    while events:
        now, fid = heapq.heappop(events)
        flow = table[fid]
        if fid in active:
            active.discard(fid)
            completed += 1
            continue
        active.add(fid)
        load: dict[int, int] = {}
        for other in active:
            for link in table[other].path:
                load[link] = load.get(link, 0) + 1
        flow.rate = min(capacity[link] / load[link] for link in flow.path)
        heapq.heappush(events, (now + flow.remaining / flow.rate, fid))
    return completed, round(now, 6)


class Clock:
    """Kernel slices taken during a run, and the speed scale they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def tick(self) -> None:
        """Time one kernel slice (not part of any measured operation)."""
        if self._busy:  # a timer tick arriving during a tick
            return
        self._busy = True
        try:
            started = time.perf_counter()
            result = kernel()
            ended = time.perf_counter()
        finally:
            self._busy = False
        if result != KERNEL_RESULT:
            raise RuntimeError(f"calibration kernel returned {result}")
        self.at.append((started + ended) / 2.0)
        self.seconds.append(ended - started)

    @contextlib.contextmanager
    def ticking(self, interval: float) -> Iterator[None]:
        """Also tick every ``interval`` seconds, from a ``SIGALRM`` handler.

        The handler runs between the bytecodes of whatever is being
        measured, so a long call gets slices inside it; :meth:`inside`
        gives the time they took, to be taken off the call's wall time.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, started: float, ended: float) -> float:
        """Seconds of slices that ran within ``[started, ended]``."""
        lo = bisect.bisect_left(self.at, started)
        hi = bisect.bisect_right(self.at, ended)
        return sum(self.seconds[lo:hi])

    def scale(self, started: float, ended: float) -> float:
        """``REFERENCE_S / k``, ``k`` the median of the slices around an interval.

        Takes the slices that ran inside ``[started, ended]`` plus the
        ``WINDOW`` nearest on each side.
        """
        if not self.seconds:
            raise RuntimeError("no calibration slice was taken")
        lo = max(0, bisect.bisect_left(self.at, started) - WINDOW)
        hi = bisect.bisect_right(self.at, ended) + WINDOW
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def median_s(self) -> float:
        """Median slice time of the whole run."""
        return statistics.median(self.seconds)
