"""Host-speed probe: a fixed numpy computation in an interpreter that never imports spinheat.

The worker starts this script once and, while no pass runs, writes a kind
("figures" or "xy") as one line on its stdin; the probe runs once and
answers with its seconds on one stdout line.  It ends when its stdin
closes.  Being a process of its own, it cannot be slowed by anything a
change to spinheat leaves behind in the worker (a grown heap, caches,
GC-tracked objects), so it measures only how fast the shared host runs.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def host_probe(kind: str) -> float:
    """Seconds for a computation like the work of `kind`.

    "figures": small kron/eigh/SVD calls plus a short Python loop, like a
    d = 4 point; "xy": one 512x512 complex SVD, like the solve of an xy point.
    """
    size = 4 if kind == "figures" else 512
    grid = np.arange(size * size, dtype=float).reshape(size, size)
    a = np.sin(grid * grid) + 1j * np.cos(3.0 * grid * grid)
    start = time.perf_counter()
    if kind == "figures":
        h = a + a.conj().T
        b = np.kron(a, a)
        for _ in range(800):
            np.kron(a, a)
            np.linalg.eigh(h)
            np.linalg.svd(b)
            sum(i * i for i in range(200))
    else:
        np.linalg.svd(a)
    return time.perf_counter() - start


def main() -> int:
    for line in sys.stdin:
        print(repr(host_probe(line.strip())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
