"""Host speed sampling: a small fixed stdlib-only Python probe, timed inside
the repeat every INTERVAL_S while it runs.

The benchmark runs on shared machines whose speed for the same code flips
between two levels about 2x apart, in spells of a fraction of a second to
minutes.  A repeat therefore starts a Sampler: an interval timer whose
SIGALRM handler runs probe() in the repeat's own process and records when it
ran, how long it took on the wall clock and how much thread CPU time it
used.  A timed region is then reported twice:

    net      = wall - wall time of the probes that ran inside it
    adjusted = net * mean(REFERENCE_S / probe CPU time)

where the mean is over the probes inside the region and the nearest probe
on each side.  ``adjusted`` is the time the region would take on a host on
which the probe takes REFERENCE_S.  The probe's thread CPU time, not its
wall time, is used, so that time spent waiting for a CPU does not count.

A workload whose timed region runs in forked pool workers is sampled in
the workers instead (forked_sampling): the parent's probe would share the
CPUs with the workers and read neither their load nor the host's speed.
Each process forked while forked_sampling is active starts its own Sampler,
which appends every sample to a file of its own; adjust_forked() subtracts
the mean probe wall time per worker and uses the mean speed over all of
the workers' probes.

The probe uses no rothlab code, so a change to the program cannot move it.
It takes about 2-4 ms every 50 ms; its wall time is taken out of ``net``.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import statistics
import time

# the probe's thread CPU time in the fast spells of the 2-vCPU host the
# benchmark was built on
REFERENCE_S = 0.002
ITERATIONS = 600
INTERVAL_S = 0.05


def probe() -> float:
    """Thread CPU seconds taken by a fixed mix of tuple, dict, sort and set work."""
    start = time.thread_time()
    rng = random.Random(1)
    counts = {}
    for _ in range(ITERATIONS):
        key = tuple(sorted(rng.randrange(64) for _ in range(4)))
        counts[key] = counts.get(key, 0) + 1
    {frozenset(k) for k, _ in sorted(counts.items())}
    return time.thread_time() - start


class Sampler:
    """Runs probe() every INTERVAL_S of wall time from start() until stop()."""

    def __init__(self, sink: int | None = None):
        self.samples = []  # (perf_counter at start, wall s, thread CPU s)
        self._sink = sink  # a file descriptor each sample is also written to
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            cpu = probe()
            self.samples.append((start, time.perf_counter() - start, cpu))
            if self._sink is not None:
                os.write(self._sink, ("%r %r %r\n" % self.samples[-1]).encode())
        finally:
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def adjust(self, start: float, end: float) -> tuple:
        """(net, adjusted) seconds of the perf_counter interval [start, end].

        The speed is the mean over the probes inside the interval and the
        nearest probe on each side of it.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        before = [s for s in self.samples if s[0] < start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        net = (end - start) - sum(wall for _, wall, _ in inside)
        used = before + inside + after
        if not used:
            raise RuntimeError("no host speed sample near the timed region")
        return net, net * statistics.mean(REFERENCE_S / cpu for *_, cpu in used)


_forked_dir = None


def _start_in_child():
    if _forked_dir is not None:
        path = os.path.join(_forked_dir, f"probes-{os.getpid()}.txt")
        Sampler(sink=os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)).start()


os.register_at_fork(after_in_child=_start_in_child)


@contextlib.contextmanager
def forked_sampling(directory: str):
    """Every process forked from this one inside the block samples into ``directory``."""
    global _forked_dir
    _forked_dir = directory
    try:
        yield
    finally:
        _forked_dir = None


def read_forked(directory: str) -> list:
    """The samples of each forked process, one list per process."""
    out = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            out.append([tuple(float(v) for v in line.split()) for line in fh
                        if len(line.split()) == 3])
    return out


def adjust_forked(start: float, end: float, processes: list) -> tuple | None:
    """(net, adjusted) seconds of [start, end] from the samples of forked
    workers, or None if none of them took a probe in it."""
    inside = [[s for s in samples if start <= s[0] < end] for samples in processes]
    inside = [p for p in inside if p]
    if not inside:
        return None
    net = (end - start) - statistics.mean(sum(wall for _, wall, _ in p) for p in inside)
    return net, net * statistics.mean(REFERENCE_S / cpu for p in inside for *_, cpu in p)
