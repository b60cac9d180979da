"""A speed reference that shares the measured CPU, for timing on a shared host.

On a shared host the speed of a vCPU swings by up to 1.6x from second to
second with what runs beside it, so wall time and even CPU time of a fixed
command vary far more than any change worth measuring.  The reference is a
small pure-Python loop pinned to the same CPU as the measured commands at
nice 10, so it takes about a tenth of that CPU and sees the same slowdowns
at the same moments.  Its rate (iterations per CPU second) over an interval
measures how fast the CPU ran during that interval, and

    cost_s = cpu_s * rate / REF_RATE

rescales the CPU seconds of the work done in that interval to a CPU that
runs the loop at ``REF_RATE``.  The loop uses only the standard library, so
no change to the program under test can move it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

#: Loop iterations per CPU second that define the reference speed: about
#: the rate of the loop alone on a 2.1 GHz x86-64 vCPU under CPython 3.11.
REF_RATE = 50_000.0

_LOOP = r"""
import os, signal, sys, time
parent = os.getppid()
n = 0
def report(*_):
    sys.stdout.write(f"{n} {time.process_time()!r}\n")
    sys.stdout.flush()
signal.signal(signal.SIGUSR1, report)
report()
while True:
    d = {}
    for i in range(100):
        d[(i, i)] = float(i)
    n += 1
    if n % 1000 == 0 and os.getppid() != parent:
        break  # the harness is gone
"""


class SpeedReference:
    """Pins this process to one CPU and runs the reference loop beside it.

    Children started afterwards inherit the pinning, so everything measured
    shares the CPU with the loop until :meth:`close`.
    """

    def __init__(self) -> None:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen([sys.executable, "-c", _LOOP], stdout=subprocess.PIPE,
                                      text=True, preexec_fn=lambda: os.nice(10))
        self._last = self._read()

    def _read(self) -> tuple[int, float]:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed reference loop exited")
        count, cpu_s = line.split()
        return int(count), float(cpu_s)

    def factor(self) -> float:
        """Reference seconds per CPU second since the previous call."""
        self._proc.send_signal(signal.SIGUSR1)
        now = self._read()
        (n0, t0), self._last = self._last, now
        if now[1] <= t0:
            raise RuntimeError("speed reference loop got no CPU time in the interval")
        return (now[0] - n0) / (now[1] - t0) / REF_RATE

    def close(self) -> None:
        self._proc.kill()
        self._proc.communicate()

    def __enter__(self) -> "SpeedReference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
