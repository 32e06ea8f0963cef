"""Machine-speed correction for the end-to-end times.

The 2-vCPU VM this benchmark was built on runs at two speeds: a pure-Python
loop takes either about 22 ms or about 40-45 ms, and the machine switches
between the two every few seconds, sometimes staying slow for minutes, with
no steal time visible to the guest.  Un-corrected, the same ladder's time
spread by up to 46% across runs.  So every process of a run also times a
fixed pure-Python loop that does not touch the program (graph building,
search, sorting, string splitting): before every set-up repeat, and between
instances at most every EVERY_S.  Each timed stretch (one instance, or one
set-up repeat) is paired with the mean of the loop timings just before and
just after it, and reported in reference seconds:

    reported = measured * REFERENCE_S / loop timing

REFERENCE_S is the loop's time on that VM in a fast stretch, so reported
values stay close to wall seconds there.  Callers then take the median over
passes or repeats.

Estimators tried on the same runs (six seeds each of leafy and path3, in a
stretch where uncorrected times spread 46% and 20%), spread across runs:

    fastest pass, uncorrected                               46%, 20%
    fastest pass, loop timing at the matching quantile      11%,  9%
    the same with the square root of the correction         19%, 12%
    median over passes of the paired correction (this)       5%,  6%

Pairing in time follows the switches between the two speeds; a single
correction for the whole run cannot, and how much it over- or undershoots
changed from one slow stretch to the next.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.0195
EVERY_S = 0.5


def calibration_loop() -> int:
    rng = random.Random(12345)
    n = 3000
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        adj[u].append(v)
        adj[v].append(u)
    total = 0
    for root in range(0, n, 300):
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen)
    labels = {(i, i + 1): frozenset((i % 5, i % 7)) for i in range(n)}
    order = sorted(labels, key=lambda k: (k[1] % 13, k[0]))
    text = "\n".join(f"e {u} {v}" for u, v in order)
    return total + len([line.split() for line in text.splitlines()])


class Calibrator:
    """Keeps every loop timing; ``maybe_sample`` takes one at most every EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        calibration_loop()
        done = time.perf_counter()
        self.samples.append(done - t0)
        self._last = done

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def bracketing(self) -> list[float]:
        """Loop timing of each stretch between consecutive samples: the mean
        of the sample before it and the one after it."""
        return [(a + b) / 2 for a, b in zip(self.samples, self.samples[1:])]


def in_reference(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, in reference seconds."""
    return seconds * REFERENCE_S / loop_s
