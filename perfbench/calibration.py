"""Host-speed calibration for the end-to-end times.

On the shared hosts this benchmark runs on, the same request can take twice
the CPU time from one second to the next: the core slows in phases of a few
seconds, presumably while other tenants load it. So a worker interleaves a fixed piece of
pure-Python work with its requests, at least every EVERY_S and between any
two requests longer than that, and each request's CPU time is scaled by
REFERENCE_S / (mean of the calibration samples just before and just after
it). The calibration work never touches altruns, so a faster or slower
program moves the scaled times exactly as it moves the raw ones, while a
slow phase of the host moves the request and the samples around it. Its mix
follows the workloads: big-integer rows (the triangle), Fraction sums (the
algebra), tuple enumeration into a dict (the census) and str/json rendering
(the CLI). Times are CPU seconds, not wall seconds, so that time the host
gives to other tenants (steal) is not counted at all.
"""
from __future__ import annotations

import itertools
import json
import resource
from fractions import Fraction
from time import perf_counter, process_time

REFERENCE_S = 0.003  # scaled times are seconds on a host whose calibration sample takes this
EVERY_S = 0.1  # longest stretch of requests without a sample


def _work() -> int:
    row = [1]
    for n in range(1, 120):
        row = [a * n + b for a, b in zip(row + [0], [0] + row)]
    acc = Fraction(0)
    for k in range(1, 50):
        acc += Fraction(k, k * k + 1)
    counts = {}
    for t in itertools.product(range(3), repeat=6):
        key = (sum(t), max(t))
        counts[key] = counts.get(key, 0) + 1
    text = ",".join(map(str, row[:30])) + json.dumps(sorted(counts.items()))
    return len(text) + acc.denominator % 97


def cpu_time() -> float:
    """CPU seconds (user + system) used so far by this process, all its
    threads, and the child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def sample() -> float:
    """CPU seconds one run of the calibration work takes now."""
    start = cpu_time()
    _work()
    return cpu_time() - start


class Sampler:
    """Calibration samples between requests, as (number of requests answered
    before it, CPU seconds)."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def tick(self, answered: int, force: bool = False) -> None:
        """Before request `answered` (or after the last one, with force):
        take a sample if EVERY_S has passed since the last one."""
        if force or perf_counter() - self._last >= EVERY_S:
            self.samples.append((answered, sample()))
            self._last = perf_counter()


def scales(samples: list, count: int) -> list:
    """Per request 0..count-1: REFERENCE_S over the mean of the samples just
    before and just after it. `samples` comes from a Sampler that ticked
    before request 0 and, forced, after the last request."""
    out, j = [], 0
    for i in range(count):
        while samples[j + 1][0] <= i:
            j += 1
        out.append(2 * REFERENCE_S / (samples[j][1] + samples[j + 1][1]))
    return out
