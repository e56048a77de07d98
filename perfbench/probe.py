"""Host-speed probe: a fixed slice of CPU work timed alongside the workload.

The benchmark shares its cores with other tenants of the host, whose
load slows everything that runs here by up to ~30% for minutes at a
time: a whole run, or several runs in a row, land in one slow spell.
Medians inside a run cannot remove that, so every run also times this
probe — pure-Python arithmetic plus small numpy matrix products and an
FFT, ~3 ms of CPU — between units (batch workloads) or every 0.2 s
on the client while the schedule runs (``serve``).  The end-to-end times are scaled by
``PROBE_REF_S / median probe time``: seconds on a host where the probe
takes :data:`PROBE_REF_S`.  A slow spell slows the probe and the
program alike and cancels; a slower program does not touch the probe.
The raw figures and the probe's median stay in the run's record and
in the per-layer metrics (``cpu_s``, ``run_s``, ``host.probe_ms``).
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The probe's median CPU seconds on the 2-vCPU development host
#: (Intel Xeon, python 3.11, numpy 2.4) in a quiet spell.
PROBE_REF_S = 0.0025


class HostProbe:
    """Times the probe work; ``samples`` holds CPU seconds per call."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.matrix = numpy.random.default_rng(0).random((96, 96))
        self.samples: List[float] = []

    def __call__(self, repeat: int = 1) -> None:
        np = self.np
        for _ in range(repeat):
            start = time.process_time()
            total = 0
            for i in range(30000):
                total += i * i
            x = self.matrix
            for _ in range(10):
                x = np.tanh(x @ self.matrix * 0.01)
            np.fft.rfft(x, axis=0)
            self.samples.append(time.process_time() - start)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def speed_factor(self) -> float:
        """Multiply a measured time by this to express it at reference speed."""
        return PROBE_REF_S / self.median_s()
