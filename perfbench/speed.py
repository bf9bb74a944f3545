"""The machine-speed probes that put every timing on one reference speed.

The host this benchmark runs on is shared: its speed for a single thread
wanders by 10-40% within seconds and by up to a factor of two between
minutes, and that, not the library, set most of the run-to-run spread of raw
wall times.  So the measuring loop runs a probe between consecutive ops (and
around every set-up), and each measured time is multiplied by

    scale = REFERENCE_S[kind] / (mean of the probes just before and after it)

which gives the time the work would have taken on a machine running the
probe in REFERENCE_S[kind].  Work the library does shows up in full: the
probes are fixed code that imports nothing from `pdivisors`, so neither the
library's code nor the objects it keeps alive change their time.  Raw times
are printed next to the scaled ones.

The probe does what the measured work spends its time on, since the host's
slow spells slow down interpreter loops more than process start-up:

- `in_process` (ops run in the measured worker): exact Gauss-Jordan
  elimination over `Fraction` and hashing the rows it produces, with the
  garbage collector off;
- `fresh_process` (`pdiv` subprocesses and worker set-up): a fresh
  interpreter that imports `fractions` and does a sixth of that work.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

# seconds each probe takes at the reference speed: about what it took on the
# 2-core host the benchmark was defined on, in a fast spell
REFERENCE_S = {"in_process": 0.030, "fresh_process": 0.080}
ROUNDS = 24
SIZE = 7


def _reference_work(rounds: int) -> int:
    x, found = 12345, 0
    for _ in range(rounds):
        m = []
        for _ in range(SIZE):
            row = []
            for _ in range(SIZE + 1):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(Fraction(x % 19 - 9, 1 + x % 5))
            m.append(row)
        r = 0
        for c in range(SIZE + 1):
            p = next((i for i in range(r, SIZE) if m[i][c] != 0), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            pivot = m[r][c]
            m[r] = [v / pivot for v in m[r]]
            for i in range(SIZE):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        found += len({tuple(row) for row in m})
    return found


def probe(kind: str) -> float:
    """Seconds the probe of this kind takes now."""
    if kind == "fresh_process":
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, str(ROUNDS // 6)], check=True)
        return time.perf_counter() - t0
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work(ROUNDS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kind_of(workload: str) -> str:
    """The probe that matches a workload's ops."""
    return "fresh_process" if workload == "cli" else "in_process"


def scales(probes: list[float], kind: str) -> list[float]:
    """Scale of the i-th interval, between probes[i] and probes[i + 1]."""
    return [2 * REFERENCE_S[kind] / (a + b) for a, b in zip(probes, probes[1:])]


if __name__ == "__main__":
    _reference_work(int(sys.argv[1]))
