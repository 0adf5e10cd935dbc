"""Host-speed probe sampled inside a repetition's own process.

The sandbox host changes speed by up to 1.7x, in phases that last from
under a second to minutes, while a process's CPU time keeps tracking its
wall time: the slowdown is in the host, not in scheduling, and it
differs between the two vCPUs.  A kernel timed before and after a
repetition, or on the other vCPU, misses it.  This probe times a fixed
kernel every 25 ms from a SIGALRM handler, on the same vCPU and during
the same seconds as the work it interrupts.  The kernel looks up 300
random tuple keys in a dict of 65,536, the operation the workloads'
memos repeat millions of times.  Its cost, about 1 % of the run, is
subtracted from the times it interrupts.
"""

import random
import resource
import signal
import time

PERIOD_S = 0.025
TABLE_SIZE = 1 << 16


class HostProbe:
    def __init__(self):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rng = random.Random(1)
        keys = [(i, i * 7919 % 10007) for i in range(TABLE_SIZE)]
        self._table = {k: i for i, k in enumerate(keys)}
        self._keys = [keys[rng.randrange(TABLE_SIZE)] for _ in range(300)]
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.rss_mb = (after - before) / 1024
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        table, clock = self._table, time.perf_counter
        start = clock()
        total = 0
        for k in self._keys:
            total += table[k]
        self.samples.append(clock() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def spent(self) -> float:
        """Seconds spent in the kernel so far."""
        return sum(self.samples)

    def kernel_s(self) -> float:
        """Mean kernel time.  Samples are evenly spaced in time, so the
        mean follows the host's speed averaged over the run."""
        if not self.samples:  # a run shorter than one period
            self._tick(None, None)
        return self.spent() / len(self.samples)
