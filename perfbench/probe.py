"""Set-up and machine-speed probe, run in a fresh process between repetitions.

    python3 perfbench/probe.py

Prints one JSON object: ``import_s``, the seconds ``import idsaug.cli`` takes
(the set-up every CLI invocation pays), and ``reference_s``, the seconds a
fixed reference task takes. The reference uses no idsaug code, so its time
changes only with the speed the host gives this process; the benchmark
divides repetition times by it (see ``run.py``). It mixes the kinds of work
the workloads spend their time on: pure-Python CSV formatting and parsing of
floats, small single-threaded matrix products, and interpreter loops.
"""

from __future__ import annotations

import time

t0 = time.perf_counter()
import idsaug.cli  # noqa: E402,F401  (timed: the import is what is measured)

IMPORT_S = time.perf_counter() - t0

import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

_rng = np.random.RandomState(0)
ROWS = _rng.rand(2500, 78).tolist()
SQUARE = _rng.rand(96, 96)
BATCH = _rng.rand(256, 128)
WEIGHTS = _rng.rand(128, 128) * 0.01


def reference() -> float:
    """Seconds the fixed reference task takes in this process."""
    start = time.perf_counter()
    buf = io.StringIO()
    csv.writer(buf).writerows(ROWS)
    parsed = [[float(v) for v in row] for row in csv.reader(io.StringIO(buf.getvalue()))]
    a = SQUARE
    for _ in range(1600):
        a = np.tanh(a @ SQUARE)
    for _ in range(600):
        grad = BATCH.T @ np.maximum(BATCH @ WEIGHTS, 0.0)
    total, table = 0, {}
    for i in range(1_500_000):
        total += i * i
        table[i & 1023] = total
    elapsed = time.perf_counter() - start
    if parsed != ROWS or not (np.isfinite(a).all() and np.isfinite(grad).all()):
        raise SystemExit("reference task computed a wrong result")
    return elapsed


if __name__ == "__main__":
    print(json.dumps({"import_s": IMPORT_S, "reference_s": reference()}))
