"""Machine speed probe, for reporting times at a fixed reference speed.

On a shared machine the speed available to one process drifts by tens of
percent over tens of seconds, as other tenants come and go.  A timing taken
in a slow minute would read as a regression.  So the benchmark runs this
probe, a fixed piece of pure-Python work that shares no code with
``thueplane``, every ``INTERVAL_S`` seconds between items.  Each item's time
is then scaled by ``REFERENCE_S / probe time``, with the probe time the median
of the probes taken around the item.  A change to the
program cannot move the probe, so it moves the scaled times exactly as it
moves the raw ones.  The raw times and the probe times are reported too.

The probe is a breadth-first search over a seeded random graph held in
lists and a dict: like the program, it spends its time in the interpreter
and in pointer-chasing over a few megabytes.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

#: probe time that defines the reference speed: a scaled time is what the
#: work would take on a machine where one probe takes this long
REFERENCE_S = 0.0125
#: least wall time between two probes in a timed phase
INTERVAL_S = 0.5
#: probes this close to an item, in seconds, set its speed
WINDOW_S = 2.0

_VERTICES = 20000
_DEGREE = 3


class SpeedProbe:
    def __init__(self):
        rng = random.Random("perfbench-speed-probe")
        self._adj = [[rng.randrange(_VERTICES) for _ in range(_DEGREE)] for _ in range(_VERTICES)]
        self.times = []  # (midpoint, seconds) of every probe taken

    def _search(self):
        adj = self._adj
        depth = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
        return len(depth)

    def measure(self):
        """One probe: a search to bring the probe's data back into the
        caches the program's work has filled, then the faster of two timed
        searches."""
        self._search()
        t0 = time.perf_counter()
        best = None
        for _ in range(2):
            t = time.perf_counter()
            self._search()
            dt = time.perf_counter() - t
            best = dt if best is None else min(best, dt)
        self.times.append(((t0 + time.perf_counter()) / 2, best))
        return best

    def around(self, start, end):
        """Median time of the probes within ``WINDOW_S`` of [start, end],
        always counting the last probe before it and the first after it.
        The median keeps one probe caught in a brief burst from setting an
        item's speed; the window still follows drift over seconds."""
        mids = [m for m, _ in self.times]
        before = bisect.bisect_right(mids, start) - 1
        after = bisect.bisect_left(mids, end)
        if before < 0 or after >= len(mids):
            raise ValueError("no probe on each side of the interval")
        lo = min(before, bisect.bisect_left(mids, start - WINDOW_S))
        hi = max(after, bisect.bisect_right(mids, end + WINDOW_S) - 1)
        return statistics.median(dt for _m, dt in self.times[lo:hi + 1])

    def scale(self, start, end):
        """Factor turning a time measured over [start, end] into reference
        seconds."""
        return REFERENCE_S / self.around(start, end)

    def median(self):
        return statistics.median(dt for _m, dt in self.times)
