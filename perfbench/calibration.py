"""Host-speed calibration for the benchmark's timings.

On the 2-core host that defined the benchmark, the speed of pure-Python
code switched between modes about a factor of two apart, for tens of
seconds to minutes at a time, because of load from outside the container.
CPU time tracks wall time, so it does not help. Measured alone, the
`equipure run` process of the fibers workload varied from 2.4 s to 4.6 s
within two minutes.

The benchmark therefore runs this fixed kernel before and after every
measured process and scales the process's wall time by `REFERENCE_S`
divided by the mean of those two kernel times. The kernel is benchmark
code and never changes with the program, so the scaling removes the
host's speed and keeps the program's. Its mix is the program's: exponent
tuples, dict updates, Fraction and modular int arithmetic, and a sort
under a grevlex-style key. Its working set is larger than a few cache
lines on purpose: a smaller kernel tracked the program's slowdowns less
well. The raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# kernel time, in seconds, at the speed the scaled times refer to: a round
# figure near the kernel's median (0.19-0.25 s) on the host that defined the
# benchmark. Changing it rescales every reported time.
REFERENCE_S = 0.2


def kernel():
    """Sparse product of two fixed polynomials, one over Q and one mod 32003,
    then the terms sorted under a grevlex-style key."""
    f = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(24) for j in range(24)}
    g = {(i, (i + j) % 7, j): (3 * i + j) % 32003 for i in range(8) for j in range(8)}
    h = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            h[e] = h.get(e, 0) + ca * cb
    terms = sorted(h.items(), key=lambda t: (sum(t[0]), tuple(-x for x in reversed(t[0]))))
    return terms[-1]


def measure():
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
