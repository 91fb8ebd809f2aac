"""Co-measured reference probe: the steadiness method of the benchmark.

The CPU speed of the host drifts between fast and slow phases that are
up to ~2x apart and last from under a second to over a minute, and each
core drifts on its own (the two cores' speeds barely correlate).  Raw
wall time therefore moves with the phase, not with the program.

The probe measures the phase where the work happens: a profiling
interval timer (``ITIMER_PROF``, so it ticks only while the process
uses CPU) interrupts the measured thread every ``INTERVAL_S`` of CPU
time, and the handler times a fixed reference kernel on that same
thread, so each reading describes the core the workload is running on
at that moment.  A window of wall time is then converted into
*reference seconds*: every gap of program work between two readings is
scaled by ``NOMINAL_PROBE_S / reading`` (a rolling median of readings),
i.e. expressed as the time it would have taken at the speed where the
kernel runs in ``NOMINAL_PROBE_S``.  Probe time itself is excluded.
The raw wall time is always reported beside the normalized value.

Forked fleet workers inherit the handler; :func:`install_in_forked_children`
re-arms the timer in each child and dumps its readings to a file at exit,
so every worker normalizes against its own core.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Set

#: probe period (process CPU seconds); one reading costs ~70 us, ~0.7 %
INTERVAL_S = 0.01
#: reading of the reference kernel inside the workloads in a fast phase
#: of the reference box (2-vCPU Xeon VM, Python 3.11); the unit that
#: "reference seconds" use, chosen so they read close to fast-phase wall
NOMINAL_PROBE_S = 0.00007
#: readings on each side of a gap whose median sets its speed: single
#: readings have a fat tail (an interrupt can triple one), while phases
#: last far longer than the ~70 ms this window spans
SMOOTH = 3


def reference_kernel() -> int:
    """Fixed interpreter work on a cache-resident dict.

    It tracks the speed of the core, not the state of its caches: a
    variant that also strided over a 3 MB table followed the workloads'
    own cache pollution, and over 14 ``dfs-por`` rounds it narrowed the
    spread only to an IQR of 11 % (15 % raw), against 2.4 % for this
    kernel alone.
    """
    acc = 0
    small: Dict[int, int] = {}
    for index in range(256):
        slot = index & 63
        small[slot] = small.get(slot, 0) + index
        acc ^= hash((slot, index))
    return acc


def interpreter_hooks() -> List[str]:
    """What, in this process, slows every bytecode alike.

    The reference kernel runs in the measured interpreter, so a trace or
    profile hook, allocation tracing or a second thread contending for
    the GIL slows the probe with the program, and normalization would
    divide the slowdown out.  Under any of them a reference second is
    undefined.
    """
    import threading
    import tracemalloc

    hooks = []
    if sys.gettrace() is not None:
        hooks.append("sys.settrace")
    if sys.getprofile() is not None:
        hooks.append("sys.setprofile")
    if tracemalloc.is_tracing():
        hooks.append("tracemalloc")
    if threading.active_count() > 1:
        hooks.append(f"{threading.active_count()} threads")
    return hooks


class Probe:
    """Interval-timer sampler of the reference kernel on this thread.

    ``readings`` holds flat ``(start, duration, span)`` triples; ``span``
    is the innermost open trace span at the time (``-1`` untraced), so
    the tracer can take probe time out of that span's self time.
    ``hooks`` collects the :func:`interpreter_hooks` seen at each
    ``note_hooks`` and ``stop``.
    """

    def __init__(self):
        self.readings = array("d")
        self.hooks: Set[str] = set()
        #: returns the innermost open span index (set by the tracer)
        self.current_span: Callable[[], int] = lambda: -1

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.readings.extend((start, end - start, self.current_span()))

    def note_hooks(self) -> None:
        self.hooks.update(interpreter_hooks())

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.note_hooks()

    def triples(self) -> List[tuple]:
        data = self.readings
        return [(data[i], data[i + 1], int(data[i + 2]))
                for i in range(0, len(data), 3)]


def normalize(readings: List[tuple], first: float, last: float,
              fallback: Optional[float] = None) -> Dict[str, float]:
    """Convert the wall window ``[first, last]`` into reference seconds.

    ``readings`` are ``(start, duration, span)`` triples.  Each gap of
    program work is scaled by the median of the readings around the one
    that ends it (the trailing gap by the last); ``fallback`` is the
    reading to use when the window holds none.
    """
    inside = [r for r in readings if first <= r[0] <= last]
    probe_s = sum(r[1] for r in inside)
    work_s = (last - first) - probe_s
    if not inside:
        speed = (fallback or NOMINAL_PROBE_S)
        return {"raw_s": last - first, "work_s": work_s, "probe_s": 0.0,
                "ref_s": work_s * NOMINAL_PROBE_S / speed, "readings": 0,
                "reading_median_us": speed * 1e6}
    durations = [r[1] for r in inside]
    smoothed = []
    for index in range(len(durations)):
        window = sorted(durations[max(0, index - SMOOTH):index + SMOOTH + 1])
        smoothed.append(window[len(window) // 2])
    ref_s = 0.0
    cursor = first
    for (start, duration, _span), speed in zip(inside, smoothed):
        ref_s += max(0.0, start - cursor) * NOMINAL_PROBE_S / speed
        cursor = start + duration
    ref_s += max(0.0, last - cursor) * NOMINAL_PROBE_S / smoothed[-1]
    durations.sort()
    return {
        "raw_s": last - first,
        "work_s": work_s,
        "probe_s": probe_s,
        "ref_s": ref_s,
        "readings": len(inside),
        "reading_median_us": durations[len(durations) // 2] * 1e6,
        "reading_min_us": durations[0] * 1e6,
        "reading_max_us": durations[-1] * 1e6,
    }


# ---------------------------------------------------------------- fork --
def install_in_forked_children(probe: Probe, out_dir: str,
                               extra_dump: Optional[Callable[[str], None]] = None
                               ) -> None:
    """Re-arm ``probe`` in every multiprocessing child and dump its
    readings, the interpreter hooks it saw (``<stem>.hooks``, one per
    line) and ``extra_dump``'s data into ``out_dir`` at child exit.

    ``multiprocessing.util`` after-fork hooks run inside the child after
    it clears the inherited finalizers, and finalizers run on the
    child's normal exit path, so no program code is involved.
    """
    from multiprocessing import util

    def dump() -> None:
        probe.stop()
        stem = os.path.join(out_dir, f"child-{os.getpid()}")
        with open(stem + ".probe", "wb") as handle:
            probe.readings.tofile(handle)
        with open(stem + ".hooks", "w") as handle:
            handle.writelines(hook + "\n" for hook in sorted(probe.hooks))
        if extra_dump is not None:
            extra_dump(stem)

    def in_child(target: Probe) -> None:
        del target.readings[:]
        target.hooks.clear()
        target.start()
        util.Finalize(None, dump, exitpriority=100)

    util.register_after_fork(probe, in_child)


def load_child_hooks(path: str) -> List[str]:
    with open(path) as handle:
        return handle.read().split("\n")[:-1]


def load_child_readings(path: str) -> List[tuple]:
    data = array("d")
    with open(path, "rb") as handle:
        data.frombytes(handle.read())
    return [(data[i], data[i + 1], int(data[i + 2]))
            for i in range(0, len(data), 3)]
