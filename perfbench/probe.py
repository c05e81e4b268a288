"""CPU-speed probe: rescales measured seconds to a reference CPU speed.

On a shared machine the speed of a CPU can change by 1.5x within seconds, as
other tenants load the host, so timings taken minutes apart spread by that
much.  The probe times a fixed kernel in bursts around a measured span and,
inside it, every ``PERIOD_S`` of process CPU time (a SIGPROF timer, so it runs
in the measured process, on its CPU, while the measured code runs).  A span's
time in reference seconds is its measured time, less the probe's own time
inside it, times ``REFERENCE_S`` over the mean kernel time: the seconds the
span would have taken on a CPU that runs the kernel in ``REFERENCE_S``.

The kernel is the program's hot pattern, a gradient step on a length-2 NumPy
vector, because a kernel of that kind slows with contention as the program
does; on a 2-vCPU Xeon VM a pure-Python kernel left about twice the
run-to-run spread.  It is the benchmark's
own code, so a change to the program cannot change it.  NumPy is imported at
the first sample, which a worker takes only after its set-up is timed.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import List

PERIOD_S = 0.01
BURST = 20               # kernels timed back to back before and after a span
KERNEL_STEPS = 8
REFERENCE_S = 60e-6      # kernel time that defines a reference second


class SpeedProbe:
    """Kernel timings, taken by :meth:`burst` and by a timer inside ``with``
    blocks; a span's samples are a slice of ``times``."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self._np = None

    def _kernel(self) -> None:
        np, w, batch = self._np, self._w, self._batch
        for _ in range(KERNEL_STEPS):
            w = w - 0.1 * (2.0 * (np.asarray(w, dtype=float) - batch.mean(axis=0)))

    def sample(self, *_signal_args) -> None:
        if self._np is None:
            import numpy
            self._np, self._w = numpy, numpy.zeros(2)
            self._batch = numpy.linspace(0.0, 1.0, 16).reshape(8, 2)
            self._kernel()       # untimed: first-call costs
        t = time.perf_counter()
        self._kernel()
        self.times.append(time.perf_counter() - t)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self) -> float:
        """Reference seconds per measured second, from all kernel times."""
        return REFERENCE_S / statistics.fmean(self.times)

    def reference_s(self, measured_s: float, inside: slice) -> float:
        """``measured_s`` less the kernels timed in ``inside``, rescaled."""
        return (measured_s - sum(self.times[inside])) * self.scale()
