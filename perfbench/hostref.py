"""Host speed reference: a fixed piece of pure-Python work, timed beside
the programs a run measures.

The benchmark runs on a share of a host whose speed drifts, by up to 2x
over minutes, with no change in the work: the CPU time of a fixed pass
tracks its wall time, so the drift is in how fast the host runs code, not
in scheduling.  So a :class:`Sampler` process runs a reference unit of
interpreter work that no code of the package touches, a :data:`DUTY`
share of one CPU, for the whole run, and every time the run measures is
scaled to a nominal host:

    reported = measured * NOMINAL_MS / (mean reference time around it)

The reference time is the CPU time of the sampler.  A change to the
package moves the measured time and not the reference, so it moves the
reported time by the same factor; a slower or faster host moves both.

The sampler runs beside the load rather than between its programs:
between the harness's client threads of ``service-mixed`` the unit reads
their GIL hand-offs, and while the daemon idles it reads a host with one
busy CPU instead of two; neither tracks the daemon's speed.

    python perfbench/hostref.py

runs a sampler: it prints ``ready`` once warmed up, takes samples until
its standard input closes, then prints them as one JSON line.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
import time

#: mean CPU time of one :func:`unit` in a :class:`Sampler` on the nominal
#: host, in ms: a 2-CPU Linux VM (Python 3.11) in a fast phase
NOMINAL_MS = 0.8
#: share of one CPU a :class:`Sampler` spends on the reference
DUTY = 0.1
#: a time is scaled by the samples within this many seconds of it, and by
#: at least :data:`MIN_SAMPLES` samples
PAD_S = 1.0
MIN_SAMPLES = 20
#: units a :class:`Sampler` runs before its first sample
WARMUP_UNITS = 50
#: a :class:`Sampler` that has not ended this long after it was told to
#: is killed
STOP_TIMEOUT_S = 30.0

_KEYS = [(i % 61, i % 7, i) for i in range(3000)]


def unit() -> int:
    """The reference: dict, tuple and list work of the kind the
    interpreter-bound profiler does, about 1 ms."""
    groups: dict[tuple[int, int], list[int]] = {}
    mixed = []
    for a, b, c in _KEYS:
        group = groups.get((a, b))
        if group is None:
            groups[a, b] = group = []
        group.append(c)
        mixed.append((a * b) ^ c)
    mixed.sort()
    return len(groups) + mixed[-1]


class HostRef:
    """Reference samples: their end times (``perf_counter``, which is
    ``CLOCK_MONOTONIC`` and so comparable across processes) and CPU ms."""

    def __init__(self, ends: list[float] | None = None,
                 cpus: list[float] | None = None) -> None:
        self.ends = ends or []
        self.cpus = cpus or []

    def measure(self) -> None:
        """Run and time one unit."""
        c = time.thread_time()
        unit()
        c1 = time.thread_time()
        self.ends.append(time.perf_counter())
        self.cpus.append((c1 - c) * 1000.0)

    def scale(self, start: float, end: float, pad: float = PAD_S) -> float:
        """The factor that brings times of [start, end] to the nominal
        host: from the samples that ended within *pad* seconds of the
        interval, widened to at least :data:`MIN_SAMPLES` samples."""
        if not self.ends:
            raise ValueError("no reference sample taken")
        lo = bisect.bisect_left(self.ends, start - pad)
        hi = bisect.bisect_right(self.ends, end + pad)
        while hi - lo < min(MIN_SAMPLES, len(self.ends)):
            lo, hi = max(0, lo - 1), min(len(self.ends), hi + 1)
        return NOMINAL_MS / statistics.fmean(self.cpus[lo:hi])

    def mean_ms(self) -> float:
        """Mean CPU ms of every sample."""
        return statistics.fmean(self.cpus)


class Sampler:
    """A :class:`HostRef` filled by its own process, beside a load, at
    :data:`DUTY` until :meth:`stop`."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.kill()
            raise RuntimeError("reference sampler did not start")

    def stop(self) -> HostRef:
        """End the sampler process and return its samples."""
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"reference sampler exited with status {self.proc.returncode}")
        doc = json.loads(out)
        return HostRef(doc["ends"], doc["cpus"])

    def kill(self) -> None:
        """End the sampler process at once, if it still runs."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _sample_until_stdin_closes() -> None:
    for _ in range(WARMUP_UNITS):
        unit()
    print("ready", flush=True)
    ref = HostRef()
    while True:
        ref.measure()
        gap = ref.cpus[-1] / 1000.0 * (1.0 / DUTY - 1.0)
        if select.select([sys.stdin], [], [], gap)[0] and not sys.stdin.buffer.read1(1):
            break
    print(json.dumps({"ends": ref.ends, "cpus": ref.cpus}))


if __name__ == "__main__":
    _sample_until_stdin_closes()
