"""Timing at a fixed reference speed.

The host's speed drifts with its other tenants' load by up to a factor of
two over seconds to minutes, and CPU time drifts with it.  Every timed
interval is therefore measured together with a speed probe, a fixed piece
of work that does not touch germlab, and scaled by REF / mean(probe times):
to the speed at which the probe takes its reference time (its typical time
on an idle 2.1 GHz Xeon vCPU).  A change to germlab moves the scaled times;
a slow stretch of the host slows the probe and germlab alike, and cancels.

The probe has to do the same kind of work as what it scales:

- IN_PROCESS, for work inside this process: pure-Python sparse polynomial
  arithmetic with tuple exponents and Fraction coefficients, as in germlab's
  kernel.  It is cheap, so it runs before and after the interval and, from
  a SIGALRM timer, every PROBE_EVERY_S inside it: a long case is scaled by
  the speed of the stretch it ran in.  Its pauses are taken out of the
  interval.
- COLD_START, for a CLI child: a fresh interpreter that imports the standard
  modules germlab's CLI uses.  It costs a third of a child, so it runs once,
  just before the child.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PROBE_POLY = {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(2, 3),
              (0, 0, 1): Fraction(3, 5), (1, 1, 0): Fraction(-1, 7)}
PROBE_POWER = 7
PROBE_EVERY_S = 0.25
START_CODE = "import argparse, fractions, json"


def poly_probe() -> float:
    """Wall time of PROBE_POLY**PROBE_POWER by schoolbook multiplication."""
    t0 = time.perf_counter()
    acc = PROBE_POLY
    for _ in range(PROBE_POWER - 1):
        prod: dict = {}
        for ea, ca in acc.items():
            for eb, cb in PROBE_POLY.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = prod.get(e, 0) + ca * cb
                if c:
                    prod[e] = c
                else:
                    prod.pop(e, None)
        acc = prod
    sorted(acc)
    return time.perf_counter() - t0


def start_probe() -> float:
    """Wall time of a fresh interpreter running START_CODE."""
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls for the exit at growing intervals
    subprocess.run([sys.executable, "-I", "-c", START_CODE], check=True)
    return time.perf_counter() - t0


class Probe:
    def __init__(self, name: str, run, ref_s: float, cheap: bool):
        self.name = name
        self.run = run
        self.ref_s = ref_s  # the probe's time at the reference speed
        self.cheap = cheap  # runs after and inside the interval too, not only before


IN_PROCESS = Probe("in_process", poly_probe, 0.0055, cheap=True)
COLD_START = Probe("cold_start", start_probe, 0.050, cheap=False)


class SpeedClock:
    """Times the body of a `with` block in wall and CPU seconds, raw
    (`raw_wall`, `raw_cpu`) and scaled to the reference speed (`wall`,
    `cpu_s`).  `cpu` is the CPU clock to read.  `sample=False` keeps the
    probe out of the interval even where it could run there (while tracing,
    so that probe pauses stay out of the spans)."""

    def __init__(self, probe: Probe = IN_PROCESS, cpu=time.process_time, sample: bool = True):
        self.probe = probe
        self.cpu = cpu
        self.sample = sample and probe.cheap

    def __enter__(self):
        self.probes = [self.probe.run()]
        self.paused = self.paused_cpu = 0.0
        if self.sample:
            self.old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.cpu0 = self.cpu()
        self.t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        cpu0 = self.cpu()
        self.probes.append(self.probe.run())
        self.paused_cpu += self.cpu() - cpu0
        self.paused += time.perf_counter() - t0

    def __exit__(self, *exc) -> bool:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self.old_handler)
        self.raw_wall = time.perf_counter() - self.t0 - self.paused
        self.raw_cpu = self.cpu() - self.cpu0 - self.paused_cpu
        if self.probe.cheap:
            self.probes.append(self.probe.run())
        factor = self.probe.ref_s / statistics.fmean(self.probes)
        self.wall = self.raw_wall * factor
        self.cpu_s = self.raw_cpu * factor
        return False
