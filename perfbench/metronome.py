"""A machine-speed reference interleaved with a pass.

The shared VM the benchmark runs on changes speed by up to 2x over minutes
and by tens of percent within seconds, so a raw wall time mostly measures the
neighbours.  :class:`Metronome` samples the machine's speed while the pass
runs: every ``PERIOD_S`` of wall time a one-shot ``SIGALRM`` interrupts the
pass between two bytecodes and runs one fixed reference slice, and records
the slice's wall and CPU time.  The pass's own time (the slices taken out)
is then scaled to a machine on which one slice takes ``NOMINAL_SLICE_S``:

    normalised = (pass time - slice time) x NOMINAL_SLICE_S / typical slice CPU

The typical slice is the mean of the fastest 90% of the pass's slices.  A
mean, not a median: a slowdown that hits a slice hits the pass as often, so
the mean of evenly spread samples tracks the speed the pass saw (the median
tracked it worse).  The slowest tenth is left out: those slices carry rare
events (a page fault, an interrupt, caches a just-forked worker has not
filled) whose cost says little about the machine's speed, and leaving them
out made the normalised passes steadier.
The slice's CPU time, not its wall time: the VM's own slowdowns show in CPU
time (its wall and CPU time of a single-threaded pass agree), while the
time a slice waits behind pool workers for a core does not, so ``jobs > 1``
is scaled by the machine's speed and not by the parent's place in the queue.

A slice is the kind of work the engine does, in three parts that stress the
machine differently: ``Fraction`` products summed in a small dict, a sparse
polynomial product with tuple keys, and ``Fraction`` sums read at random
from a table of a few MB.  The reference lives in the benchmark's files, so
a change to the engine cannot move it; a faster engine lowers the normalised
time in proportion.  Forked pool workers do not inherit the interval timer;
with :meth:`Metronome.follow_forks` each starts its own, and the slices of
all processes set the scale.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import statistics
import struct
import time
from fractions import Fraction
from pathlib import Path

PERIOD_S = 0.02
# One slice as a forked worker writes it: its CPU seconds.
_RECORD = struct.Struct("<d")
TRIM_SLOWEST = 0.1
# The typical slice CPU time on the 2-vCPU VM the benchmark was tuned on, so normalised
# seconds read about like that machine's seconds.
NOMINAL_SLICE_S = 0.0017

_rng = random.Random(20230714)
_P = {
    tuple(_rng.randrange(4) for _ in range(3)): Fraction(_rng.randrange(1, 50), _rng.randrange(1, 50))
    for _ in range(12)
}
_Q = {
    tuple(_rng.randrange(4) for _ in range(3)): Fraction(_rng.randrange(1, 50), _rng.randrange(1, 50))
    for _ in range(12)
}
# About 3 MB: larger than a core's private caches.
_TABLE = [(i, Fraction(i, 7), str(i)) for i in range(12_000)]
_PICKS = [_rng.randrange(len(_TABLE)) for _ in range(150)]


def reference_slice() -> tuple:
    """A fixed amount of engine-like work."""
    acc: dict = {}
    for i in range(1, 61):
        f = Fraction(i, i + 7)
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + f * f
    product: dict = {}
    for ka, a in _P.items():
        for kb, b in _Q.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            product[k] = product.get(k, 0) + a * b
    total = Fraction(0)
    seen = {}
    for j in _PICKS:
        i, f, name = _TABLE[j]
        seen[name] = f
        if i % 3:
            total += f
    return acc, product, total, len(seen)


def typical(times: list[float]) -> float:
    """Mean of the fastest ``1 - TRIM_SLOWEST`` of ``times``."""
    kept = sorted(times)[: max(1, round(len(times) * (1 - TRIM_SLOWEST)))]
    return statistics.fmean(kept)


def _timed_slice() -> tuple[float, float]:
    t0, c0 = time.perf_counter(), time.thread_time()
    reference_slice()
    c1, t1 = time.thread_time(), time.perf_counter()
    return t1 - t0, c1 - c0


class Metronome:
    """Runs a reference slice every ``period`` seconds of wall time."""

    def __init__(self, period: float = PERIOD_S, sink=None):
        self.period = period
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.fork_cpus: list[float] = []
        self._sink = sink
        self._forks: Path | None = None
        self._previous = None
        self._running = False

    def _tick(self, signum, frame) -> None:
        self.sample()
        # One-shot, re-armed after the slice: ticks never nest.  A tick that
        # runs after stop() began must not re-arm, or a later SIGALRM would
        # meet the default action and end the process.
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def sample(self, count: int = 1) -> None:
        """Run and record ``count`` slices now."""
        for _ in range(count):
            wall, cpu = _timed_slice()
            self.walls.append(wall)
            self.cpus.append(cpu)
            if self._sink is not None:
                self._sink.write(_RECORD.pack(cpu))

    def follow_forks(self, directory: Path) -> None:
        """Make each process forked while running run slices of its own.

        A forked pool worker does the pass's work, so its slices sample the
        speed that work saw; each slice is written to
        ``directory/<pid>.slices`` at once, since a worker may end without
        running Python's exit handlers.
        """
        directory.mkdir(parents=True, exist_ok=True)
        self._forks = directory

        def in_child() -> None:
            if not self._running:
                return
            self._running = False  # the interval timer is not inherited
            sink = open(directory / f"{os.getpid()}.slices", "wb", buffering=0)
            Metronome(self.period, sink).start()

        os.register_at_fork(after_in_child=in_child)

    def collect_forks(self) -> None:
        """Read the forked processes' slices and remove their files."""
        if self._forks is None:
            return
        for path in sorted(self._forks.glob("*.slices")):
            data = path.read_bytes()
            whole = len(data) - len(data) % _RECORD.size  # a worker may die mid-write
            self.fork_cpus.extend(cpu for (cpu,) in _RECORD.iter_unpack(data[:whole]))
        shutil.rmtree(self._forks, ignore_errors=True)
        self._forks = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def normalise(self, wall: float, cpu: float) -> dict:
        """This machine's (wall, CPU) seconds, slices included, as nominal ones.

        ``cpu`` counts reaped workers, so their slices are taken out of it;
        the wall time keeps the workers' slices, which run beside the work
        (about ``slice / PERIOD_S`` of it), since only the parent's are
        known to lie on its path.
        """
        self.collect_forks()
        in_slices_wall = sum(self.walls)
        in_slices_cpu = sum(self.cpus) + sum(self.fork_cpus)
        if len(self.cpus) + len(self.fork_cpus) < 5:  # a pass too short to be sampled
            self.sample(5)
        cpus = self.cpus + self.fork_cpus
        scale = NOMINAL_SLICE_S / typical(cpus)
        return {
            "wall_s": max(wall - in_slices_wall, 0.0) * scale,
            "cpu_s": max(cpu - in_slices_cpu, 0.0) * scale,
            "raw_wall_s": wall - in_slices_wall,
            "raw_cpu_s": cpu - in_slices_cpu,
            "slices": len(cpus),
            "fork_slices": len(self.fork_cpus),
            "typical_slice_cpu_s": typical(cpus),
        }


def normalise_seconds(seconds: float, count: int = 20) -> float:
    """Seconds just measured outside a pass, as nominal ones.

    The reference slices run right after the measured interval.
    """
    metronome = Metronome()
    metronome.sample(count)
    return seconds * NOMINAL_SLICE_S / typical(metronome.cpus)
