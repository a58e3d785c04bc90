"""The host's speed, so that CPU-bound figures compare across runs.

The benchmark runs on shared VMs whose other tenants slow the vCPUs
down: the same pure-Python loop takes 63 ms in one second and 105 ms a
few seconds later, mostly in the loop's own CPU time, and in some
stretches the host also keeps a vCPU from running at all (steal). Each
vCPU slows on its own: at one moment the loop may run 1.6x slower on one
vCPU than on the other. A run can land in a slow stretch from start to
end, and then every CPU-bound figure of it reads slow, whatever the
program did.

So the benchmark times a fixed reference task next to its measurements.
The task is pure Python of the kind the detector runs (splitting strings,
counting in a dict, sorting tuples) but none of the program's code, so a
change to the program never moves it. A probe runs the task once on
every CPU the benchmark may use, moving its thread from one to the next,
and takes the mean of its time on each: the program's processes run on
all of them. The time is the wall-clock time less the time the thread
waited in the CPU's run queue while one of the benchmark's own
processes ran (the kernel's run delay), so it counts a slow CPU and time
the host stole from the vCPU, but not the benchmark's own load. The
slowdown over a stretch of the run is the median of its probes over
:data:`NOMINAL_S`. A CPU-bound figure from that stretch is divided by it
(a time) or multiplied by it (a rate), which reports it at the reference
speed.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter

from perfbench.stats import median

#: Time of one probe's task on one vCPU of an unloaded host (the 2-vCPU
#: VM the benchmark was built on). It only sets the scale of the reported
#: figures.
NOMINAL_S = 0.0003
#: Least time between two probes of :meth:`HostSpeed.tick`: on two CPUs
#: about 3% of a measuring loop's time goes to probes.
TICK_S = 0.02
#: Probes a stretch needs; a shorter stretch borrows the ones nearest it.
MIN_PROBES = 5

_WORDS = tuple(f"w{i % 97}x{i % 13}" for i in range(160))


def reference_task() -> int:
    """Fixed pure-Python work, about 0.06 ms on the reference host."""
    counts: dict[str, int] = {}
    rows = []
    for start in range(0, len(_WORDS), 4):
        text = " ".join(_WORDS[start : start + 6])
        for token in text.split():
            counts[token] = counts.get(token, 0) + 1
        rows.append((text.upper()[:8], len(text)))
    rows.sort()
    return len(counts) + len(rows)


def run_delay_s() -> float:
    """Time the calling thread has spent runnable but waiting for a CPU."""
    with open("/proc/thread-self/schedstat") as handle:
        return int(handle.read().split()[1]) / 1e9


def probe_once(cpus: frozenset[int], repeats: int = 5) -> float:
    """Mean time of ``repeats`` reference tasks on each of ``cpus``, less
    run delay, in seconds; the calling thread may use all of ``cpus`` again
    after."""
    total = 0.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            waited = run_delay_s()
            started = perf_counter()
            for _ in range(repeats):
                reference_task()
            total += perf_counter() - started - (run_delay_s() - waited)
    finally:
        os.sched_setaffinity(0, cpus)
    return total / len(cpus)


class HostSpeed:
    """Probes taken over one run, with the time each one ended."""

    def __init__(self) -> None:
        #: ``(perf_counter at the end, probe seconds)``.
        self.samples: list[tuple[float, float]] = []
        self.cpus = frozenset(os.sched_getaffinity(0))
        self._last = threading.local()
        self._sorted: list[tuple[float, float]] = []
        self._times: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            probe_s = probe_once(self.cpus)
            self.samples.append((perf_counter(), probe_s))
        self._last.at = perf_counter()

    def tick(self) -> None:
        """Probe if this thread has not probed for :data:`TICK_S`."""
        if perf_counter() - getattr(self._last, "at", 0.0) >= TICK_S:
            self.probe()

    def slowdown(self, since: float, until: float) -> float:
        """How much slower than the reference host the program ran over
        ``[since, until]`` (see :func:`slowdown`)."""
        if len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
            self._times = [sample[0] for sample in self._sorted]
        return slowdown(self._sorted, since, until, self._times)


def slowdown(samples: list[tuple[float, float]], since: float, until: float,
             times: list[float] | None = None) -> float:
    """The median probe over :data:`NOMINAL_S`, from the probes (sorted by
    time, their end times in ``times``) that ended in ``[since, until]``,
    or when fewer than :data:`MIN_PROBES` did, from the
    :data:`MIN_PROBES` that ended nearest the stretch."""
    if not samples:
        raise ValueError("no probes were taken")
    if times is None:
        times = [sample[0] for sample in samples]
    low, high = bisect_left(times, since), bisect_right(times, until)
    while high - low < min(MIN_PROBES, len(samples)):
        # Widen towards whichever neighbour ended nearer the stretch.
        if high < len(samples) and (low == 0 or times[high] - until <= since - times[low - 1]):
            high += 1
        else:
            low -= 1
    return median([probe_s for _, probe_s in samples[low:high]]) / NOMINAL_S
