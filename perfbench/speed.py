"""The machine's speed, sampled while crrigid runs.

On a shared machine the same solve can take 1.5 to 2 times longer in one
minute than in the next, and its CPU time moves with it: the core itself
runs slower while other tenants load it.  A run of the benchmark lasts
about a minute, so whole runs fall into slow stretches, and neither a
median nor a minimum over a run's answers removes that.

So every timed piece of work is paired with the speed of the machine at
the same time.  :func:`reference` is a fixed piece of pure-Python work
(compiling a fixed source text, building and sorting a dict of tuples,
multiplying two polynomials held as dicts) that uses none of crrigid, so
a change to crrigid leaves its work the same.  While a problem is
answered, a :class:`Sampler` thread runs it every
``EVERY_S`` seconds and records its thread CPU time, which does not count
the time the thread waits for the interpreter lock.  The median of those
samples is the speed during the answer, and the answer's seconds are
scaled by ``REFERENCE_S`` over that median: the seconds the answer would
have taken at the speed where :func:`reference` takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List

# the unit of scaled seconds: reference() on a Sampler beside a solve takes
# 0.8 to 1.5 ms on a shared 2-core x86-64 VM at 2.1 GHz with Python 3.11
REFERENCE_S = 0.001
EVERY_S = 0.05

_SOURCE = "\n".join(
    f"def f{i}(x, y):\n"
    f"    z = [x * k + y for k in range({i})]\n"
    f"    return {{k: (v, str(v)) for k, v in enumerate(z)}}\n"
    for i in range(4))


def reference() -> None:
    """A fixed piece of work, about 1 ms: compiling, building and sorting
    a dict of tuples, and multiplying two dict polynomials."""
    compile(_SOURCE, "<reference>", "exec")
    table = {}
    for i in range(500):
        table[(i % 97, i % 13)] = [i, (i, i + 1)]
    sorted(table.items())
    poly = {(i, j): i * 7 + j + 1 for i in range(5) for j in range(5)}
    product: dict = {}
    for (i1, j1), c1 in poly.items():
        for (i2, j2), c2 in poly.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2


class Sampler(threading.Thread):
    """Times :func:`reference` every ``EVERY_S`` s until :meth:`stop`."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: List[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            t0 = time.thread_time()
            reference()
            self.samples.append(time.thread_time() - t0)
            if self._done.wait(EVERY_S):
                return

    def stop(self) -> float:
        """Stop sampling; the median reference time while it ran."""
        self._done.set()
        self.join()
        return statistics.median(self.samples)
