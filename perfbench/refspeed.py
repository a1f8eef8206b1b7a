"""How fast the machine runs Python at the moment, from fixed reference kernels.

The benchmark's host is shared, and its speed moves under the benchmark: the
same op takes 30 ms or 55 ms from one ten-second window to the next, and
whole runs minutes apart differ by 20-40%.  The measuring child times a
reference kernel between ops, outside their timed spans, and run.py scales
each end-to-end time by ``NOMINAL_S`` over the kernel time measured around
it.  Scaled times read as times on a machine that runs the kernel in
exactly ``NOMINAL_S``, so a run made while the machine was slow and one made
while it was fast report the same work alike.

Each kernel does the kind of work one workload's ops do, and the speed of
the host moves each kind differently, so every workload is scaled by the
kernel that matches it (``workloads.KERNEL``):

* ``fractions``: repeated products of sparse polynomials with ``Fraction``
  coefficients whose denominators grow, like the library's products;
* ``bits``: an integer bit walk over every subset of 11 weights, like
  ``classic_banzhaf``.

The kernels call nothing in the library, so a change to the library cannot
change their time.  Over five minutes of a slow-and-fast host, scaling cut
the spread of 7.5-second medians of one op from 0.46 to 0.02 (a 12-player
``generalized_banzhaf``, fractions) and from 0.33 to 0.01 (a 13-player
``classic_banzhaf``, bits); see perfbench/notes.json.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

_P = {0: Fraction(3, 11), 1: Fraction(5, 11), 3: Fraction(3, 11)}
_Q = {0: Fraction(4, 13), 2: Fraction(6, 13), 5: Fraction(3, 13)}
_WEIGHTS = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)


def _fractions() -> dict:
    acc = {0: Fraction(1)}
    for k in range(9):
        factor = _P if k % 2 else _Q
        out: dict[int, Fraction] = {}
        for i, x in acc.items():
            for j, y in factor.items():
                out[i + j] = out.get(i + j, 0) + x * y
        acc = out
    return acc


def _bits() -> int:
    total = 0
    for mask in range(1 << len(_WEIGHTS)):
        m = mask
        while m:
            low = m & -m
            total += _WEIGHTS[low.bit_length() - 1]
            m ^= low
    return total


KERNELS = {"fractions": _fractions, "bits": _bits}

# Nominal kernel times, fixed: changing one rescales every time of the
# workloads that use that kernel.  The baseline machine ran the kernels at
# 0.64-0.91 times this speed during the recorded ten-seed sets, and at up to
# 1.3 times it in fast spells (perfbench/notes.json).
NOMINAL_S = {"fractions": 0.0020, "bits": 0.0016}


def sample(kernel: str) -> float:
    """Seconds one run of ``kernel`` takes now.  The garbage collector is
    off meanwhile, so objects the library left alive do not add to it."""
    fn = KERNELS[kernel]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        fn()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median_sample(kernel: str, count: int) -> float:
    return statistics.median(sample(kernel) for _ in range(count))


def scaled(seconds: float, kernel: str, kernel_s: float) -> float:
    """``seconds`` measured while ``kernel`` took ``kernel_s``, at nominal speed."""
    return seconds * NOMINAL_S[kernel] / kernel_s
