"""CPU-speed probe for timing on a host whose speed drifts.

On a shared 2-vCPU Xeon virtual machine the same pure-Python loop takes from
65 to 97 ms, switching within seconds, and the workloads slow down in step
with it. A daemon thread therefore times a fixed loop every 50 ms while the
benchmark runs. A measured interval is rescaled to the reference speed, at
which the probe loop takes REFERENCE_S, one window of WINDOW_S at a time:

    sum over windows of  window length * REFERENCE_S / (median probe time
                                                        in the window)

The probe holds the interpreter lock for about 0.15 ms per sample, well
under 1% of the run. Raw durations are kept next to the rescaled ones.
Read the samples only after the probe has stopped.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD_S = 0.05
WINDOW_S = 1.0
LOOP = 2000
REFERENCE_S = 1e-4  # the unit: seconds at the speed where the probe takes 100 us


def _probe_loop(n):
    s = 0
    for i in range(n):
        s += i * i
    return s


class SpeedProbe:
    def __init__(self):
        self._starts = []
        self._times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            t = time.perf_counter()
            _probe_loop(LOOP)
            self._times.append(time.perf_counter() - t)
            self._starts.append(t)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def scale(self, t0, t1):
        """REFERENCE_S / median probe time of the samples started in
        [t0, t1); the nearest samples when the interval holds fewer than
        three."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self._times), hi + 2)
        if hi <= lo:
            return 1.0
        return REFERENCE_S / statistics.median(self._times[lo:hi])

    def rescaled(self, t0, t1):
        """Duration of [t0, t1) at the reference speed."""
        total = 0.0
        while t0 < t1:
            end = min(t0 + WINDOW_S, t1)
            total += (end - t0) * self.scale(t0, end)
            t0 = end
        return total

    def summary(self):
        return {"samples": len(self._times),
                "median_probe_s": statistics.median(self._times)
                if self._times else None}

    def samples(self):
        return list(zip(self._starts, self._times))
