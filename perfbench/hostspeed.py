"""Host-speed probe: a fixed pure-Python kernel timed between ops.

The benchmark gets a share of a few cores of a busy host, whose speed
drifts in steps that last tens of seconds: a fixed pure-Python loop reads
6 to 10.5 ms per call from one five-second window to the next, so the same
ops time 20-25% apart between runs. The kernel below does a fixed amount
of the two kinds of work the package does (a breadth-first subset
construction over frozensets and dicts, and small numpy array steps like
those of the entropy-bound solver), so its time tracks how fast the host
runs the package at that moment: over 150 s of a ``bound`` and a ``check``
op timed alternately with it, the log of op time over kernel time varied
half as much as the log of op time, and less than over either half of the
kernel alone. A ``Probe`` times the
kernel between ops, at most every ``EVERY_S`` seconds, and every op time
is scaled to the reference speed, at which one kernel call takes
``REFERENCE_S`` seconds. The kernel lives in the benchmark's files, so no
change to the package can change it.
"""

import time

import numpy as np

# Kernel time that counts as the reference speed: a round figure inside
# the 2.8-4.9 ms the kernel took on a shared-host 2-vCPU container with
# Python 3.11 and numpy 2.4.
REFERENCE_S = 0.004
EVERY_S = 0.1
CALLS = 5


def _graph(n=400, degree=3, seed=12345):
    """A fixed pseudo-random graph: every vertex has ``degree`` random
    successors and the next vertex of a cycle through all of them."""
    x = seed
    adjacency = []
    for v in range(n):
        out = []
        for _ in range(degree):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            out.append(x % n)
        out.append((v + 1) % n)
        adjacency.append(out)
    return adjacency


def _subsets(states=90):
    """Subset construction on the two-letter labelling ``(i + v) % 2`` of
    the fixed graph, until ``states`` subsets are found."""
    adjacency = _graph()
    start = frozenset([0])
    seen = {start: 0}
    frontier = [start]
    while frontier and len(seen) < states:
        following = []
        for subset in frontier:
            for letter in (0, 1):
                image = frozenset(w for v in subset
                                  for i, w in enumerate(adjacency[v])
                                  if (i + v) % 2 == letter)
                if image and image not in seen:
                    seen[image] = len(seen)
                    following.append(image)
        frontier = following
    return len(seen)


_INDEX = (np.arange(3000) * 7919) % 300
_START = 0.1 + (np.arange(3000) * 2654435761 % 1000) / 1000.0


def _projection(steps=40):
    """Multiplicative steps of a KL projection onto 300 fixed marginals,
    with the numpy calls of the package's solver."""
    q = _START / _START.sum()
    for _ in range(steps):
        marginal = np.zeros(300)
        np.add.at(marginal, _INDEX, q)
        q = q * np.exp(0.01 * np.log(marginal[_INDEX] / q))
        np.clip(q, 1e-9, None, out=q)
        q /= q.sum()
    return q


def kernel():
    _subsets()
    _projection()


class Probe:
    """Kernel times taken between ops; ``scale(i)`` converts a time
    measured after sample ``i`` (and before the next) to the reference
    speed, from the mean of the samples on either side of it."""

    def __init__(self):
        self.samples = []
        self.last = None

    def sample(self):
        """Time ``CALLS`` kernel calls; returns the index of the sample."""
        start = time.perf_counter()
        for _ in range(CALLS):
            kernel()
        end = time.perf_counter()
        self.samples.append((end - start) / CALLS)
        self.last = end
        return len(self.samples) - 1

    def due(self):
        """Sample if ``EVERY_S`` has passed since the last sample; returns
        the index of the latest sample."""
        if self.last is None or time.perf_counter() - self.last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index):
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return REFERENCE_S / ((self.samples[index] + after) / 2.0)
