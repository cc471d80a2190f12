"""Sample statistics and host diagnostics for one benchmark run."""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

#: A percentile is reported only with at least this many samples
#: beyond it; below that it is mostly the maximum.
TAIL_BEYOND = 10
#: The tail percentile of the end-to-end metrics.  The p99 of a ~1 ms
#: request on a shared VM is set by the host: an episode of 10-20 %
#: steal moves it 3-5x while p50 moves by less than half, so the gated
#: tail is p90 and p99s are reported per layer.
TAIL_Q = 90

#: Steal above this share of the window's CPU capacity gets a warning.
STEAL_WARN_SHARE = 0.10


def min_samples(q: float) -> int:
    """Samples a ``q``-th percentile needs to have :data:`TAIL_BEYOND`
    beyond it: 100 for p90, 1,000 for p99."""
    return round(TAIL_BEYOND * 100 / (100 - q))


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def read_steal_seconds(stat_text: str | None = None) -> float | None:
    """Host steal time summed over all CPUs, in seconds.

    Parses the aggregate ``cpu`` line of ``/proc/stat`` (the eighth
    value is ``steal``, in clock ticks).  ``None`` when the file or the
    column is not there.
    """
    if stat_text is None:
        try:
            with open("/proc/stat", encoding="ascii") as fh:
                stat_text = fh.readline()
        except OSError:
            return None
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            if len(fields) < 9:
                return None
            return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class HostWindow:
    """Wall, process CPU and host steal over one timed window.

    ``pause()``/``resume()`` take stretches of benchmark bookkeeping
    (input generation, reference checks) out of ``wall_s`` and
    ``cpu_s``; steal is read over the whole window, since the host does
    not say which process lost the time.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    steal_s: float | None = None
    #: Start to stop, pauses included: the span steal is read over.
    total_s: float = 0.0
    _t0: float = 0.0
    _c0: float = 0.0
    _s0: float | None = None
    _running: bool = False

    def start(self) -> "HostWindow":
        self._s0 = read_steal_seconds()
        self.resume()
        self.total_s = -self._t0
        return self

    def resume(self) -> None:
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._running = True

    def pause(self) -> None:
        if self._running:
            self.wall_s += time.perf_counter() - self._t0
            self.cpu_s += time.process_time() - self._c0
            self._running = False

    def elapsed(self) -> float:
        """Active seconds so far, including a running stretch."""
        running = time.perf_counter() - self._t0 if self._running else 0.0
        return self.wall_s + running

    def stamp(self) -> tuple[float, float]:
        """Active ``(wall, cpu)`` seconds so far, pauses excluded."""
        if not self._running:
            return self.wall_s, self.cpu_s
        return (
            self.wall_s + time.perf_counter() - self._t0,
            self.cpu_s + time.process_time() - self._c0,
        )

    def stop(self) -> "HostWindow":
        self.pause()
        self.total_s += time.perf_counter()
        s1 = read_steal_seconds()
        if self._s0 is not None and s1 is not None:
            self.steal_s = s1 - self._s0
        return self

    def steal_share(self) -> float:
        """Steal as a share of the CPU capacity the window spanned."""
        if not self.steal_s or self.total_s <= 0:
            return 0.0
        return self.steal_s / (self.total_s * (os.cpu_count() or 1))


@dataclass
class Phase:
    """What one timed window measured.

    ``log`` holds one ``(wall, cpu, latency)`` row per op: the window's
    active wall and process-CPU seconds when the op ended (see
    :meth:`HostWindow.stamp`) and the op's own wall time, all in
    seconds.  ``counters`` holds the per-layer counts the workload read
    from the program (requests, retries, cache hits, stage counts, ...)
    over the window.  ``clients`` is the number of client threads
    issuing ops, so ``window.wall_s * clients`` is the client time the
    window spans.
    """

    window: HostWindow
    log: list
    failed: int
    clients: int = 1
    counters: dict | None = None

    @property
    def ops(self) -> int:
        return len(self.log)

    @property
    def latencies(self) -> list[float]:
        return [row[2] for row in self.log]


def segments(rows: list, n: int) -> list[list]:
    """``rows`` cut into ``n`` consecutive, nearly equal, non-empty runs."""
    n = max(1, min(n, len(rows)))
    size, extra = divmod(len(rows), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        out.append(rows[start:end])
        start = end
    return out


def segment_rates(log: list, n: int) -> tuple[list[float], list[float]]:
    """Per-segment ops per second and CPU seconds per op.

    ``log`` rows are ``(wall, cpu, latency)`` sorted by ``wall``; a
    segment spans from the previous segment's last op end (or the window
    start) to its own last op end.
    """
    rates, cpu_per_op = [], []
    prev_wall = prev_cpu = 0.0
    for seg in segments(log, n):
        wall, cpu = seg[-1][0] - prev_wall, seg[-1][1] - prev_cpu
        rates.append(len(seg) / wall if wall > 0 else 0.0)
        cpu_per_op.append(cpu / len(seg))
        prev_wall, prev_cpu = seg[-1][0], seg[-1][1]
    return rates, cpu_per_op


def tail_latency(latencies: list, q: float = TAIL_Q) -> tuple[float, str]:
    """The tail latency and how it was taken.

    With at least two :func:`min_samples`-op segments it is the median
    of their ``q``-th percentiles, so a burst of host steal inside a few
    segments does not move it; with one segment's worth it is the
    percentile itself.  With fewer ops the ``q``-th percentile does not
    exist, and it is the highest percentile that still has
    :data:`TAIL_BEYOND` ops beyond it, or the median when not even that
    does.
    """
    need = min_samples(q)
    n = len(latencies)
    if n >= 2 * need:
        tails = [
            float(np.percentile(seg, q))
            for seg in segments(latencies, n // need)
        ]
        return median(tails), f"median p{q:.0f} of {len(tails)} segments"
    if n >= need:
        return float(np.percentile(latencies, q)), f"p{q:.0f}"
    low = max(50.0, math.floor(1000.0 * (1 - TAIL_BEYOND / n)) / 10)
    return float(np.percentile(latencies, low)), (
        f"p{low:g}, the highest with {TAIL_BEYOND} ops beyond it; "
        f"p{q:.0f} needs >= {need} ops"
    )
