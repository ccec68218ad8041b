"""The machine's speed, sampled while a section runs, to scale its time.

On a shared host the same code runs at different speeds from one minute to
the next.  On the reference machine one pass of ``probe`` takes about 0.5 ms
in the fast phase and 0.9-1.4 ms in the slow one, switching every few
seconds, and the same ``sweep-grid`` operation took 9.0-15.7 s in ten
back-to-back repeats (README.md, "Noise on the reference machine").  Wall
time alone then measures the host as much as the program.

``Pace`` times a section and, every ``PROBE_EVERY_S`` of it, interrupts it
with ``SIGALRM`` to time one pass of ``probe``: a fixed piece of pure Python
of the kind the program spends its time in (string slices, dict counts,
integer arithmetic).  The section's paced time is its wall time, less the
probes' own time, scaled tick by tick to the machine's nominal speed:

    paced_s = net_s * mean((NOMINAL_PROBE_S / probe_i) ** SENSITIVITY)

over the probes taken at the start, at every tick and at the end.  The
program slows less than the probe when the host is busy: over seventy
repeats of the three workloads' operations, in two sessions, the spread of
the paced times was smallest for an exponent between 0.6 and 1.0, and 0.8
was within 1.5 points of the best on every workload and session.  The
probes cost about 1% of the section; that share lands in neither time.  The
probe does not depend on the program, so a faster program gives a smaller
paced time, and a machine in its slow phase, to first order, does not.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_EVERY_S = 0.05
# About one probe pass on the reference machine in its fast phase.
NOMINAL_PROBE_S = 0.0005
SENSITIVITY = 0.8

_TEXT = "ACGTTGCAAGCTTCGA" * 8
_K = 11


def probe() -> float:
    """Time one pass of a fixed pure-Python loop; return seconds."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    text = _TEXT
    total = 0
    for _ in range(16):
        for i in range(len(text) - _K + 1):
            kmer = text[i : i + _K]
            counts[kmer] = counts.get(kmer, 0) + 1
            total += (i * 31 + len(kmer)) % 7
    return time.perf_counter() - t0


class Pace:
    """Context manager: wall time of the section and its time at nominal speed.

    Only the main thread of a process may use it (``SIGALRM`` is delivered
    there), and only one at a time.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.wall_s = 0.0
        self.net_s = 0.0
        self.paced_s = 0.0
        self._in_section = 0.0
        self._saved = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self._in_section += time.perf_counter() - t0

    def __enter__(self) -> "Pace":
        self.probes.append(probe())
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._saved)
        self.probes.append(probe())
        self.net_s = self.wall_s - self._in_section
        self.paced_s = self.net_s * statistics.fmean(
            (NOMINAL_PROBE_S / p) ** SENSITIVITY for p in self.probes
        )
