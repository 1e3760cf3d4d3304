"""Host-speed probe: a fixed pure-Python loop timed beside the measurements.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every instruction of a process by up to 1.8x, for spells that last from
seconds to many minutes, so a whole run can fall in a slow spell and no
choice of repeats inside it recovers padia's own speed.  The probe runs the
same loop on every commit and never calls padia.  The worker times it after
every job and 20 times right after set-up.  A job's time is scaled by
``KERNEL_REF_S`` over the median probe of the jobs around it (``WINDOW`` on
either side), a set-up time by ``KERNEL_REF_S`` over the fastest probe of
its process.  The metrics then read as seconds on the reference host at its
fastest, and a change to padia still moves them in full.
"""

from __future__ import annotations

# The kernel's fastest time on the reference host: a 2-vCPU Intel Xeon
# virtual machine with Python 3.11.
KERNEL_REF_S = 2.4e-4
SETUP_RUNS = 20  # kernel runs after set-up; the fastest one is kept
WINDOW = 2  # jobs on either side whose probes also set a job's factor


def kernel() -> float:
    x = 0.0
    for i in range(4000):
        x = x * 0.999 + i * 1e-3
    return x


def probe(clock) -> float:
    """Seconds one kernel run takes now."""
    began = clock()
    kernel()
    return clock() - began


def fastest(clock, runs: int = SETUP_RUNS) -> float:
    """The fastest of ``runs`` kernel runs, in seconds."""
    return min(probe(clock) for _ in range(runs))


def scale(probe_s: float) -> float:
    """Factor from seconds measured now to reference-host seconds."""
    return KERNEL_REF_S / probe_s
