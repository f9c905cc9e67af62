"""Host speed probe: a fixed pure-Python loop timed in a child process,
sampled all through an untraced run.

On a shared host the CPU this benchmark gets runs the same code up to
twice as fast at one moment as at another, for stretches of a second to
minutes, and process CPU time slows with it (it is not time stolen from
the process but slower execution). So while an untraced run measures,
a child process times a short fixed loop every ``PERIOD_S`` seconds, and
afterwards each measured interval is scaled by ``NOMINAL_S`` over the
mean loop time of the samples taken during it: a time is reported as it
would read on a host that runs the loop in ``NOMINAL_S`` seconds.

The child imports nothing from the library, so no change to the library
can speed the loop up or slow it down. It times the loop in its own
thread CPU time, so waiting for a CPU (when the program keeps both busy)
does not count as a slow host. It is busy about a tenth of the time.

Run by hand it prints one ``start end cpu_seconds`` line per sample once
its stdin is closed:

    python3 perfbench/hostspeed.py < /dev/null
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter, thread_time

__all__ = ["NOMINAL_S", "HostScale", "HostSpeed", "probe_loop"]

#: Seconds between the starts of two samples.
PERIOD_S = 0.02
#: Nominal loop time; scaled times read as on a host that runs
#: ``probe_loop`` in this many CPU seconds.
NOMINAL_S = 0.0025
#: An interval with fewer samples than this is widened on both sides
#: until it has them.
MIN_SAMPLES = 5

_rng = random.Random(20040613)
_DOCS = [[_rng.randrange(500) for _ in range(20)] for _ in range(60)]


def probe_loop() -> int:
    """Index 60 seeded integer token lists and count every list's
    overlaps against the index, four times: the dict, list and integer
    work a set join does, with no library code."""
    total = 0
    for _ in range(4):
        index: dict[int, list[int]] = {}
        for rid, doc in enumerate(_DOCS):
            for token in doc:
                index.setdefault(token, []).append(rid)
        counts: dict[int, int] = {}
        for doc in _DOCS:
            for token in doc:
                for rid in index[token]:
                    counts[rid] = counts.get(rid, 0) + 1
        total += len(counts)
    return total


class HostSpeed:
    """The probe's child process, sampling from construction until
    ``samples()`` (or leaving the ``with`` block) stops it."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._samples: list[tuple[float, float, float]] | None = None

    def samples(self) -> list[tuple[float, float, float]]:
        """Stop the child and return its ``(start, end, cpu_s)`` samples,
        ``start`` and ``end`` on the ``perf_counter`` clock (system-wide
        on Linux, so the same as this process's)."""
        if self._samples is None:
            out, _ = self._child.communicate(timeout=30)
            if self._child.returncode != 0:
                raise RuntimeError(f"host speed probe exited with {self._child.returncode}")
            self._samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        return self._samples

    def close(self) -> None:
        if self._child.poll() is None:
            try:
                self._child.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.communicate()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HostScale:
    """Scales measured intervals by the host speed sampled during them."""

    def __init__(self, samples) -> None:
        pairs = sorted(((start + end) / 2.0, cpu) for start, end, cpu in samples)
        if not pairs:
            raise ValueError("no host speed samples")
        self._middles = [middle for middle, _ in pairs]
        self._sums = list(accumulate((cpu for _, cpu in pairs), initial=0.0))

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean loop time of the samples whose
        middle falls in ``[start, end]``, the interval first widened
        equally on both sides until it holds ``MIN_SAMPLES`` of them."""
        need = min(MIN_SAMPLES, len(self._middles))
        pad = 0.0
        while True:
            lo = bisect_left(self._middles, start - pad)
            hi = bisect_right(self._middles, end + pad)
            if hi - lo >= need:
                return NOMINAL_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
            pad += PERIOD_S

    def scale(self, start: float, end: float) -> float:
        """The interval's length, scaled."""
        return (end - start) * self.factor(start, end)


def _sample() -> None:
    for _ in range(10):  # warm-up, not recorded
        probe_loop()
    samples = []
    next_at = perf_counter()
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], max(0.0, next_at - perf_counter()))
        if ready and not sys.stdin.readline():
            break
        if ready:
            continue
        next_at += PERIOD_S
        start, cpu = perf_counter(), thread_time()
        probe_loop()
        samples.append((start, perf_counter(), thread_time() - cpu))
        # A child descheduled for several periods skips the missed
        # samples rather than taking them back to back.
        next_at = max(next_at, perf_counter())
    sys.stdout.write("".join(f"{s!r} {e!r} {c!r}\n" for s, e, c in samples))


if __name__ == "__main__":
    _sample()
