"""Machine-speed probes for normalising timings on a shared, noisy host.

On a few shared cores each core's speed flips between about 1x and 0.5x
from one second to the next, independently of the other cores.  A probe
times a fixed slice of work with the instruction mix of the program's hot
loops (small complex numpy arrays, Python complex arithmetic) and shares no
code with the program, so a change to the program never moves it.  Run in
the same thread as a command, it slows down with the core the command runs
on.  ``relative_speed`` turns a probe time into a speed where 1.0 is the
reference machine; a latency times the mean speed over its interval is the
latency at reference speed.

``InterruptSampler`` takes a short probe every ``SAMPLE_EVERY_S`` of wall
time while a command runs, from a SIGALRM handler in the main thread, so a
command that outlasts a speed flip is normalised by the speeds it ran at.
"""

from __future__ import annotations

import cmath
import signal
import time

import numpy as np

# speed_probe() seconds per round on an idle 2-core x86-64 VM (Python 3.11,
# numpy 2.4); normalised times are seconds at that speed.
REFERENCE_S_PER_ROUND = 4.0e-6
PROBE_ROUNDS = 3000
SAMPLE_ROUNDS = 300
SAMPLE_EVERY_S = 0.1

_A = np.array([[2 + 1j, 0.5, 0.1], [0.3, 1.5 - 0.2j, 0.2], [0.1, 0.4, 1.0 + 0.3j]])
_B = np.array([1, 2j, 3])


def speed_probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds for ``rounds`` steps of small-array and complex-scalar work."""
    acc = 0j
    t0 = time.perf_counter()
    for i in range(rounds):
        x = _A @ _B
        y = np.exp(1j * x) + x.conj()
        acc += complex(y[0]) * cmath.exp(0.1j * i) + abs(y[1])
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the loop's result live
        raise ArithmeticError("speed probe produced NaN")
    return elapsed


def relative_speed(rounds: int = PROBE_ROUNDS) -> float:
    """One probe, as a speed relative to the reference machine."""
    return REFERENCE_S_PER_ROUND * rounds / speed_probe(rounds)


class InterruptSampler:
    """Short speed probes at a fixed wall-clock interval, from SIGALRM.

    Use as a context manager around one command; afterwards ``speeds`` holds
    the sampled relative speeds and ``cost_s`` the wall time the probes took,
    which the caller subtracts from the command's latency.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.cost_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.speeds.append(relative_speed(SAMPLE_ROUNDS))
        self.cost_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
