"""Machine-speed probe, so that times are reported at one reference speed.

On a shared host the speed of a core changes by up to about 1.75x from
one minute, or one second, to the next, as other tenants come and go on
its sibling hardware threads.  Each timed region is bracketed by a fixed
pure-Python probe, and its time is scaled by REFERENCE_PROBE_S over the
mean probe time around it: the result is what the region would take at
the speed at which the probe takes REFERENCE_PROBE_S.  The probe does not
use sfb, so no change to sfb changes the probe.
"""

from __future__ import annotations

import time

# the probe's time on an uncontended core of a 2-vCPU Intel Xeon virtual
# machine running Python 3.11
REFERENCE_PROBE_S = 1.05e-3


def probe() -> float:
    """Seconds for a fixed sparse-polynomial product over tuple keys,
    the kind of work sfb spends its time on."""
    start = time.perf_counter()
    a = {(i % 7, i % 5, i % 3): i + 1 for i in range(40)}
    b = {(i % 4, i % 6, i % 2): 2 * i - 3 for i in range(40)}
    for _ in range(4):
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + c1 * c2
    return time.perf_counter() - start


def scaled(run):
    """Call run() between probes; return (its result, raw seconds, scale)."""
    probe()
    before = probe()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    after = probe()
    return result, elapsed, REFERENCE_PROBE_S / ((before + after) / 2)
