"""Scale measured times by how fast the machine runs while they are measured.

On a shared host the same code runs at speeds up to twice apart (a busy
sibling hyperthread, frequency steps, other tenants' memory traffic),
switching every few seconds and sometimes staying in one for minutes.  The
benchmark therefore runs a small fixed kernel at regular moments while it
measures, and scales each interval to the speed at which the kernel takes
``REF_S`` seconds:

    scaled = elapsed * mean(REF_S / kernel time, over the kernel runs in it)

The kernels are the benchmark's own code, so a change to the package cannot
move them; a change that makes the package slower or faster moves
``elapsed`` and so the scaled time.  Each kernel writes its arrays into
buffers made once, so that the package's allocations cannot change what it costs,
and the garbage collector is off while it runs, so that the package's heap
adds no collection time to it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: seconds each kernel takes on the fastest spell seen on a 2-core x86-64
#: host (Python 3.11, NumPy 2.4 with OpenBLAS, one BLAS thread); scaled
#: times read as seconds on such a spell
REF_S = {"small": 0.0013, "stream": 0.0014}
#: seconds of wall time between kernel runs while a Sampler is on
INTERVAL_S = 0.05


class Reference:
    """One of two kernels, with its inputs made once.

    ``small`` is interpreted Python and many NumPy calls on a 48-vector, the
    work of operators on plain small arrays; ``stream`` is arithmetic over a
    one-megabyte complex array, the work of operators on the thousands of
    capacity-padded coordinates of an ambient space.  Each workload names
    the kernel that stands for it (``workloads.SPEED_KERNEL``).
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        self.kind = kind
        self._run = {"small": self._small, "stream": self._stream}[kind]
        self._mat = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._vec = rng.standard_normal(48) + 0j
        self._x, self._y = np.empty_like(self._vec), np.empty_like(self._vec)
        self._big = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        self._buf = np.empty_like(self._big)

    def _small(self) -> None:
        s = 0
        for i in range(7000):
            s += i * i
        x, y = self._x, self._y
        np.copyto(x, self._vec)
        for _ in range(140):
            np.matmul(self._mat, x, out=y)
            np.divide(y, np.linalg.norm(y), out=x)

    def _stream(self) -> None:
        # into a buffer made once: a fresh megabyte array would be mapped
        # and faulted in or taken from the heap depending on the allocator's
        # state, which the package's own allocations move
        for _ in range(8):
            np.multiply(self._big, 1.0001, out=self._buf)
            self._buf += self._big
            float(np.vdot(self._buf, self._big).real)

    def seconds(self) -> float:
        """Time one run of the kernel."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._run()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def speed(self, runs: int) -> list:
        """Relative speed (REF_S / kernel time) of `runs` runs back to back."""
        return [REF_S[self.kind] / self.seconds() for _ in range(runs)]


class Sampler:
    """Runs the kernel every INTERVAL_S seconds of wall time while on.

    The kernel runs in a SIGALRM handler, between two bytecodes of whatever
    the process is doing.  ``spent`` is the wall time spent in the handler,
    so that callers can take it out of the intervals they measure.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.speeds: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.speeds += self.reference.speed(1)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn) -> tuple:
        """Run fn(); return its wall time, less the kernel runs, measured
        and scaled by the mean speed of the kernel runs made during it."""
        lo, spent = len(self.speeds), self.spent
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start - (self.spent - spent)
        speeds = self.speeds[lo:] or self.reference.speed(1)
        return elapsed, elapsed * statistics.fmean(speeds)
