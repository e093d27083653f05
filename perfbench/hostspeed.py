"""Host speed, measured alongside the program so timings can be scaled
to a fixed reference speed.

On a shared host the speed of a core changes with what the neighbours
run, for seconds to minutes at a time: the same sweep took 2.4 s in one
minute and 3.6 s a few minutes later.  The benchmark therefore runs a
fixed pure-Python reference piece (a longest-path sweep over a fixed
random DAG, a sort and a dict build: the kind of work the kernel does,
but none of the program's code) many times in between the program's
work units, in the same process, and scales each timing by how long the
piece took then:

    scaled = measured * REFERENCE_S / mean(piece times)

``REFERENCE_S`` is a constant, so a change that makes the program
faster lowers the scaled time in proportion, while a host that is
slower for everyone leaves it where it was.  On a 2-vCPU host, the
ratio of sweep time to the mean piece time of the same sweep moved by
3.6 % (coefficient of variation) over 24 sweeps in which the sweep time
itself moved by 16 %.

Run alone (``python3 perfbench/hostspeed.py``) it prints the mean piece
time over a few seconds.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Piece time, in seconds, that defines the reference speed.
REFERENCE_S = 0.001

_N = 300
_rnd = random.Random(1)
_SUCC = [[j for j in range(i + 1, min(_N, i + 12)) if _rnd.random() < 0.3] for i in range(_N)]
_WEIGHT = [_rnd.uniform(1.0, 10.0) for _ in range(_N)]


def piece() -> float:
    """Run the reference piece once; its wall time in seconds."""
    t0 = time.perf_counter()
    for rep in range(8):
        level = [0.0] * _N
        for i in range(_N - 1, -1, -1):
            best = 0.0
            for j in _SUCC[i]:
                if level[j] > best:
                    best = level[j]
            level[i] = best + _WEIGHT[i] * (1 + rep * 0.01)
        order = sorted(range(_N), key=level.__getitem__, reverse=True)
        {i: level[i] / (k + 1) for k, i in enumerate(order)}
    return time.perf_counter() - t0


def sample(count: int) -> list[float]:
    """Wall times of *count* reference pieces in a row, with the cyclic
    garbage collector off, so that no piece pays for collecting the
    program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [piece() for _ in range(count)]
    finally:
        if enabled:
            gc.enable()


def factor(pieces: list[float]) -> float:
    """Multiply a timing by this to scale it to the reference speed."""
    return REFERENCE_S / statistics.fmean(pieces)


if __name__ == "__main__":
    times = []
    end = time.perf_counter() + 3.0
    while time.perf_counter() < end:
        times += sample(50)
    print(f"{len(times)} pieces, mean {statistics.fmean(times) * 1e3:.3f} ms, "
          f"scale factor {factor(times):.3f}")
