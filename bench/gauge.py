"""A speed gauge: reference work that runs alongside the timed operations.

The test machine is a few cores of a shared host, and its speed drifts
by up to 1.5x over seconds to minutes while our own process sees no
steal time: a fixed pure-Python loop timed in 15-second blocks spread
by 0.14 to 0.20 of its median between its first and third quartiles
(README, "Reference seconds").  A wall-clock metric inherits that
spread whatever the program does.

The gauge measures the drift where it happens, with fixed reference
work that contains no package code, so that no change to the package
changes it.  For operations that run in this process the reference is a
chunk of pure-Python work (dictionaries keyed by tuples, complex
arithmetic, as in the forms engine); it runs every ``INTERVAL_S``
seconds from a timer signal, inside the operations, and once after each
operation.  For operations that are fresh CLI processes, whose time is
mostly interpreter start and import, it is a fresh interpreter that
imports numpy, run once after each operation: over blocks of eight CLI
runs this reference steadied the ratio better than the pure-Python
chunk did (0.05 against 0.09 between quartiles, from 0.14 raw).

Each operation's latency, with the chunks that ran inside it taken out,
is divided by the mean chunk time around it and multiplied by the
chunk's reference time: the result is its latency in reference
seconds, the seconds it would take with the machine at its reference
speed.  A change to the package moves the operations and not the
chunks, so it shows in full.
"""

import json
import signal
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.1
CHUNK_CALLS = 20
REFERENCE_CHILD = "import numpy"
# Chunk times on the 2-core Intel Xeon test machine (Python 3.11.7): the
# in-process chunk's median within runs, the numpy child's time on its
# own.  Constants: only ratios between runs of one benchmark matter.
REF_CHUNK_S = 0.0056
REF_CHILD_S = 0.17


def _kernel():
    acc = {}
    for i in range(400):
        key = (i % 5, i % 7, i % 11)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    return len(acc)


def _chunk():
    for _ in range(CHUNK_CALLS):
        _kernel()


class Gauge:
    """Timings of one run: ``chunks`` holds (start, seconds) of every
    chunk, ``windows`` (start, end) of every operation, in time order.
    ``work`` runs one chunk, which takes ``ref_s`` at the reference
    speed; with an ``interval`` a timer also runs one every so often."""

    def __init__(self, work=_chunk, ref_s=REF_CHUNK_S, interval=INTERVAL_S):
        self.work, self.ref_s, self.interval = work, ref_s, interval
        self.chunks = []
        self.windows = []
        self._busy = False

    def chunk(self, *_):
        if self._busy:  # the timer fired during a chunk: skip, not nest
            return
        self._busy = True
        t0 = perf_counter()
        self.work()
        self.chunks.append((t0, perf_counter() - t0))
        self._busy = False

    def start(self):
        self.chunk()  # one before the first operation
        if self.interval:
            signal.signal(signal.SIGALRM, self.chunk)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def after(self, t0, t1):
        """Record an operation's window and run the chunk that follows it."""
        self.windows.append((t0, t1))
        self.chunk()

    def dump(self, path):
        path.write_text(json.dumps({"ref_s": self.ref_s, "chunks": self.chunks,
                                    "windows": self.windows}) + "\n")

    def reference_latencies(self):
        """Reference-second latency of each operation in ``windows``.
        The chunks that started inside an operation ran inside it and
        come off its time; the speed around it is the mean chunk time
        from the end of the operation before to the start of the one
        after, its own chunks and those on either side."""
        starts = [t for t, _ in self.chunks]
        out = []
        for i, (t0, t1) in enumerate(self.windows):
            lo = bisect_left(starts, self.windows[i - 1][1]) if i else 0
            hi = (bisect_right(starts, self.windows[i + 1][0])
                  if i + 1 < len(self.windows) else len(starts))
            a, b = bisect_left(starts, t0), bisect_right(starts, t1)
            inside = sum(d for _, d in self.chunks[a:b])
            near = [d for _, d in self.chunks[lo:hi]]
            speed = sum(near) / len(near) / self.ref_s
            out.append((t1 - t0 - inside) / speed)
        return out

    def speed(self):
        """Median chunk time over the run, relative to the reference."""
        d = sorted(d for _, d in self.chunks)
        return d[len(d) // 2] / self.ref_s


def for_workload(child_processes, env):
    """The gauge for a workload whose operations run in this process, or,
    with ``child_processes``, in fresh interpreters started with ``env``."""
    if not child_processes:
        return Gauge()
    argv = [sys.executable, "-c", REFERENCE_CHILD]
    return Gauge(lambda: subprocess.run(argv, env=env, check=True, timeout=120),
                 REF_CHILD_S, interval=None)
