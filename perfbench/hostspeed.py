"""Host speed, sampled while a pass runs, so pass times can be given at
one fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.7x within minutes, in CPU time as much as in wall time:
neighbours share the core, its caches and its clock.  A pass's CPU
seconds alone therefore spread from run to run far more than any change
under test.  :class:`SpeedSampler` times a fixed *probe* (a toy register
machine in pure Python, written in the simulator's style) every
:data:`INTERVAL_S` of the process's CPU time, and
:meth:`SpeedSampler.reference_s` rescales the pass's own CPU seconds by
the probe's mean speed to a host on which one probe takes
:data:`REFERENCE_PROBE_S`.

The probe touches only this module's data, so it cannot change what a
pass computes; it is the same code on every commit, so it measures the
host and not the program.  What it cannot separate: a program change
that leaves the caches in another state can make the probe itself run
faster or slower.  Raw CPU and wall seconds are printed beside every
rescaled figure for that reason.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: process CPU seconds between two probes (SIGPROF interval)
INTERVAL_S = 0.1
#: instructions the toy machine runs in one probe
PROBE_STEPS = 4000
#: probe time of the reference host the rescaled figures are given at:
#: about the probe's mean on the host the benchmark was written on (a
#: 2-vCPU share of a shared x86-64 server), so that figures read close
#: to that host's CPU seconds
REFERENCE_PROBE_S = 1.6e-3


class _ToyMachine:
    """A register machine in the simulator's style: decode a tuple, call
    the opcode's bound method, read and write a 64 Ki-word memory list,
    look up a small dict."""

    def __init__(self):
        self.regs = [0] * 16
        self.memory = [(i * 40503) & 0xFFFF for i in range(1 << 16)]
        self.lookup = {}
        self.pc = 0
        self.taken = 0
        self.handlers = {0: self.op_add, 1: self.op_load, 2: self.op_store,
                         3: self.op_branch, 4: self.op_xor, 5: self.op_mul,
                         6: self.op_lookup, 7: self.op_shift}

    def op_add(self, a, b, c):
        self.regs[a] = (self.regs[b] + self.regs[c & 15]) & 0xFFFF

    def op_load(self, a, b, c):
        self.regs[a] = self.memory[(self.regs[b] + c) & 0xFFFF]

    def op_store(self, a, b, c):
        self.memory[(self.regs[b] + c) & 0xFFFF] = self.regs[a]

    def op_branch(self, a, b, c):
        if self.regs[a] & 1:
            self.taken += 1

    def op_xor(self, a, b, c):
        self.regs[a] = self.regs[b] ^ (self.regs[c & 15] + 1)

    def op_mul(self, a, b, c):
        self.regs[a] = (self.regs[b] * (c | 1)) & 0xFFFF

    def op_lookup(self, a, b, c):
        key = self.regs[b] & 0xFFF
        value = self.lookup.get(key)
        if value is None:
            self.lookup[key] = self.regs[a]
        else:
            self.regs[a] = value

    def op_shift(self, a, b, c):
        self.regs[a] = (self.regs[b] >> 1) | ((self.regs[c & 15] & 1) << 15)

    def step(self):
        op, a, b, c = _PROGRAM[self.pc]
        self.handlers[op](a, b, c)
        self.pc = (self.pc + 1) % len(_PROGRAM)


_PROGRAM = [((i * 7) % 8, (i * 3) % 16, (i * 5 + 1) % 16, (i * 11) % 97)
            for i in range(40)]
_MACHINE = _ToyMachine()


def probe() -> None:
    """One probe: :data:`PROBE_STEPS` instructions of the toy machine."""
    step = _MACHINE.step
    for _ in range(PROBE_STEPS):
        step()


def time_probe() -> float:
    """CPU seconds of one probe (on the thread's clock: while a process
    CPU timer is armed, Linux advances the process clock only at
    scheduler ticks, too coarse for one probe)."""
    started = time.thread_time()
    probe()
    return time.thread_time() - started


def measure_probe_s(count: int) -> float:
    """:func:`mean_probe_s` of ``count`` probes made back to back."""
    return mean_probe_s([time_probe() for _ in range(count)])


def mean_probe_s(samples: List[float]) -> float:
    """The probe time at the mean speed of ``samples``: their harmonic
    mean.  Work done over a stretch of CPU time is its length times the
    mean speed, so this is the estimate that rescales CPU seconds; a
    median would follow only the most common speed, and the host
    switches between a few."""
    return statistics.harmonic_mean(samples)


class SpeedSampler:
    """Probe the host every :data:`INTERVAL_S` of CPU time while
    installed (``with SpeedSampler() as sampler:``)."""

    def __init__(self):
        self.samples: List[float] = []

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(time_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def probe_s(self) -> float:
        """CPU seconds the probes took (part of the enclosing pass)."""
        return sum(self.samples)

    def reference_s(self, cpu_s: float) -> float:
        """``cpu_s`` less the probes' own time, at the reference speed."""
        return rescale(cpu_s - self.probe_s, mean_probe_s(self.samples))


def rescale(cpu_s: float, probe_s: float) -> float:
    """CPU seconds measured where one probe took ``probe_s``, given at
    the reference host's speed."""
    return cpu_s * REFERENCE_PROBE_S / probe_s
