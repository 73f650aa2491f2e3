"""Host-speed probe: times a fixed sliver of pure-Python work every
INTERVAL_S seconds while a job or a set-up runs, in the same thread.

The benchmark runs on shared virtual machines whose speed drifts by
tens of per cent within seconds and over minutes, for the same process
doing the same work (CPU time drifts with wall time, so it is the host,
not scheduling).  A timer signal interrupts the program between two
bytecodes and times PROBE_REPS runs of `probe_work`, which is unrelated
to collisionlab and always does the same work.  The probes sample the
host's speed at even steps of wall time, so

    reference seconds = net wall time * mean(REF_S / probe time)

is the time the interval would have taken on a host where the probe
takes REF_S seconds (net wall time leaves out the probes' own time).  A
change to collisionlab moves the net wall time and not the probe, so it
moves the reference seconds by the same share.  Raw wall times are
reported beside them.

The probe uses builtins only, so starting it before the set-up moves no
import out of the set-up time.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
PROBE_REPS = 3
REF_S = 0.0003  # nominal probe time; it took 0.18-0.36 ms on the 2.0 GHz Xeon vCPUs measured


def probe_work() -> int:
    """Exact rational sums with gcd reduction and dict and tuple traffic,
    the kind of work collisionlab's exact arithmetic does."""
    table: dict = {}
    num, den = 0, 1
    for i in range(1, 40):
        num, den = num * i + den * (i % 17 + 1), den * i
        a, b = num, den
        while b:
            a, b = b, a % b
        num //= a
        den //= a
        key = (i % 13, num % 7)
        table[key] = table.get(key, 0) + den % 1009
    return num + len(table)


class SpeedProbe:
    """Samples the probe time on a timer while started."""

    def __init__(self):
        self.times: list[float] = []
        self._busy = False
        self._previous = None

    def _time_probe(self) -> float:
        start = perf_counter()
        for _ in range(PROBE_REPS):
            probe_work()
        return perf_counter() - start

    def _on_timer(self, _signum, _frame):
        if self._busy:  # the host stalled inside a probe for a whole interval
            return
        self._busy = True
        try:
            self.times.append(self._time_probe())
        finally:
            self._busy = False

    def start(self):
        self._time_probe()  # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return perf_counter(), len(self.times)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(reference seconds, wall seconds) since `mark`."""
        end = perf_counter()
        start, first = mark
        samples = self.times[first:]
        wall = end - start
        net = wall - sum(samples)
        if not samples:  # shorter than one interval
            samples = [self._time_probe()]
        return net * sum(REF_S / t for t in samples) / len(samples), wall
