"""Host-speed calibration: scale measured times to a reference speed.

The host this benchmark was built on runs the same Python code at
speeds that differ by up to 1.8x, level by level, for seconds to
minutes at a time, because of load outside the machine.  A mean over a
run cannot average that out, but a fixed loop timed in between the
operations slows down with them.  In an 80 s test, 5 s windows of a
16-token parse varied by 17% (coefficient of variation) while the
parse's time over the loop's time varied by 2.8%.

``LOOP_REF_S`` fixes the scale: a scaled time is what the operation
would take on a host where the loop takes exactly that long.
"""

from __future__ import annotations

import bisect
import statistics
import time

LOOP_REF_S = 0.004     # the loop's time at this host's fast level
EVERY_S = 0.05         # time the loop again after this much work
SMOOTH = 4             # samples on each side in the running median


def loop() -> int:
    """A fixed pure-Python loop of tuple building, hashing and dict
    updates, the kind of work pdmg's chart, checker and sampler do."""
    table: dict = {}
    items = [(i % 97, i % 89, (i % 7,)) for i in range(2000)]
    for a in items:
        for b in items[:6]:
            key = (a[0], b[1], a[2])
            table[key] = table.get(key, 0) + 1
    return len(table)


def time_loop() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def scale(latencies: list[float], samples: list[tuple[int, float]]) -> list[float]:
    """Each latency times LOOP_REF_S over the loop's time around it.

    ``samples`` holds (number of operations done before the sample, loop
    seconds), in order, with one sample taken after the last operation.
    Each sample is first replaced by the median of the samples within
    ``SMOOTH`` places of it, which drops a loop that a pause interrupted.
    Operation i is then scaled by the mean of the last sample before it
    and the first sample after it.
    """
    done = [n for n, _ in samples]
    raw = [s for _, s in samples]
    smooth = [statistics.median(raw[max(0, j - SMOOTH):j + SMOOTH + 1])
              for j in range(len(raw))]
    out = []
    for i, t in enumerate(latencies):
        after = bisect.bisect_right(done, i)
        loop_s = (smooth[max(after - 1, 0)] + smooth[min(after, len(raw) - 1)]) / 2
        out.append(t * LOOP_REF_S / loop_s)
    return out
