"""The reference loop that scales the benchmark's times to a fixed machine speed.

The benchmark runs on shared machines whose speed moves by a third or
more within minutes, for every process alike: a fixed loop of pure
Python takes 0.5 s in one second and 0.7 s in the next.  Raw times of
two runs of the same code then differ by what the machine did.  So,
while the operations run, a timer interrupts them every PERIOD_S and
runs this loop, which uses none of the package, for CAL_SHARE of that
period; the loop thus samples the machine's speed evenly over the run,
inside long operations too.  Every time is then divided by the speed
the loop saw in the same round:

    scaled = raw * UNIT_S / (mean time of one unit() in the round)

A scaled time is the time the operation would take on a machine where
one unit() takes UNIT_S, the speed of the machine the reference figures
were taken on in a calm spell.  A change to the package moves scaled
times as it moves raw ones; a change of the machine's speed
moves both the operation and the loop, and cancels.

Operations are timed with Meter.clock, which stops while the loop runs,
so an operation's time leaves out the loop's interruptions.

The loop mixes what the package's hot paths do: interpreter dispatch,
tuples and dicts keyed by them, short strings, and bit operations on
integers of thousands of bits.
"""

from __future__ import annotations

import signal
import time

UNIT_S = 0.001  # one unit() on the reference machine, calm
PERIOD_S = 0.1  # the timer's period while operations run
CAL_SHARE = 0.15  # share of each period the loop runs for
_WIDE = (1 << 4096) - 1

perf = time.perf_counter


def unit() -> int:
    """A fixed piece of work of about a millisecond."""
    table: dict = {}
    acc = 0
    mask = _WIDE
    for i in range(520):
        key = (i, i >> 1, i & 7)
        table[key] = table.get(key[1:], 0) + (i * 2654435761 & 0xFFFF)
        acc ^= hash(key) & 0xFF
        mask = (mask ^ (mask >> 3)) & ~(1 << (i & 4095)) | 1
        word = "p" * (i & 7) + "q"
        acc += len(word.split("p"))
    return acc + (mask & 0xFF) + len(table)


class Meter:
    """Runs the loop, on demand or on a timer, and keeps its time."""

    def __init__(self):
        self.seconds = 0.0  # loop time since the last take()
        self.units = 0
        self.paused = 0.0  # all loop time so far; clock() leaves it out
        self._busy = False

    def clock(self) -> float:
        """perf_counter without the time the loop ran."""
        while True:  # again if a tick ran between the two reads
            paused = self.paused
            now = perf()
            if paused == self.paused:
                return now - paused

    def run_for(self, seconds: float) -> None:
        if self._busy:  # a tick that came while the last one still ran
            return
        self._busy = True
        t0 = perf()
        units = 0
        while True:
            unit()
            units += 1
            took = perf() - t0
            if took >= seconds:
                break
        self.seconds += took
        self.units += units
        self.paused += took
        self._busy = False

    def _tick(self, signum, frame) -> None:
        self.run_for(CAL_SHARE * PERIOD_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> tuple[float, int]:
        """(loop seconds, units) since the last take, and start afresh."""
        got = self.seconds, self.units
        self.seconds, self.units = 0.0, 0
        return got


def factor(seconds: float, units: int) -> float:
    """What a raw time is multiplied by to give a scaled one."""
    return UNIT_S * units / seconds
