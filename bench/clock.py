"""Op timing normalized by the speed of the core while the op runs.

On a shared machine, other tenants' load can slow every instruction on a
core by 1.5x or more.  Such a slow spell can last longer than a
whole run.  A median can't remove that.  So each op is timed along with a
fixed reference loop, run on the same pinned core at three points: right
before the op, right after it, and every ``INTERVAL_S`` of CPU time during
it.  The in-op probes run from a SIGPROF handler, and their time is taken
out of the op's time.  Then

    normalized = own time * REFERENCE_MS / median reference-loop time

The result is in milliseconds at the speed where the reference loop takes
``REFERENCE_MS``, which is about an uncontended core of the 2-core Xeon
where the bounds were set.  The reference loop uses only the standard
library, so the library can't change it.  A change to the library moves a
normalized time by the same factor as the raw time.

A slow spell slows a process start more than it slows the loop, so a call
that waits on a child process is paired instead with a reference process,
a bare interpreter start (``python -c pass``), run after each call:

    normalized = own time * REFERENCE_PROCESS_MS / mean of the reference
                 processes before and after

The library can't change a bare interpreter start either.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_MS = 0.7
REFERENCE_PROCESS_MS = 40.0
INTERVAL_S = 0.02
EDGE_PROBES = 3


def reference_loop():
    """Products of small Fraction-valued term maps, the library's kind of work."""
    base = {(i, 3 - i): Fraction(i + 1, 3) for i in range(4)}
    acc = {(0, 0): Fraction(1)}
    for _ in range(6):
        out: dict = {}
        for (a1, b1), c1 in acc.items():
            for (a2, b2), c2 in base.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        acc = out
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the processes it starts, on one core.

    Returns the core, or None where the system refuses; the normalized
    times then pair an op with probes that may have run on another core.
    """
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


class Clock:
    """Times calls; after each ``call``, ``last`` holds (own, normalized) seconds.

    ``probe_inside`` arms the in-op probes.  Leave it off for calls that
    wait on a child process, which would share the pinned core with them,
    and for traced calls, whose span times must not include the probes.
    """

    def __init__(self, probe_inside: bool = True):
        self.probe_inside = probe_inside
        self.before = self._edge_probe()
        self.last = (0.0, 0.0)
        self._probes: list[float] = []
        self._spent = 0.0
        if probe_inside:
            # installed for good: a SIGPROF still pending when the timer is
            # disarmed must find this handler, not the default that exits
            signal.signal(signal.SIGPROF, self._on_sigprof)

    @staticmethod
    def _edge_probe() -> float:
        return min(time_reference() for _ in range(EDGE_PROBES))

    def _on_sigprof(self, signum, frame):
        start = time.perf_counter()
        self._probes.append(time_reference())
        self._spent += time.perf_counter() - start

    def call(self, fn):
        self._probes, self._spent = [], 0.0
        if self.probe_inside:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            if self.probe_inside:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
            probes, spent = self._probes, self._spent
            after = self._edge_probe()
            speed = statistics.median([self.before, after, *probes])
            self.before = after
            own = elapsed - spent
            self.last = (own, own * REFERENCE_MS / 1000.0 / speed)



class ProcessClock:
    """Times calls that wait on a child process, normalized by a reference process.

    ``env`` is the reference process's environment; give it the one the
    timed children get.  After each ``call``, ``last`` holds (own,
    normalized) seconds.
    """

    def __init__(self, env: dict | None = None):
        self.env = env
        self.before = self._reference_process()
        self.last = (0.0, 0.0)

    def _reference_process(self) -> float:
        start = time.perf_counter()
        # pipes, not DEVNULL: with a timeout and no pipes, the wait polls
        # with sleeps of up to 50 ms, and the time would round up to them
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60,
                       capture_output=True)
        return time.perf_counter() - start

    def call(self, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            own = time.perf_counter() - start
            after = self._reference_process()
            speed = (self.before + after) / 2
            self.before = after
            self.last = (own, own * REFERENCE_PROCESS_MS / 1000.0 / speed)
