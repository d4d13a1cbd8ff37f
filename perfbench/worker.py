"""One repetition of a workload in a fresh process.

    python3 perfbench/worker.py --commands JSON --run-id ID --trace 0|1 \
        --result OUT.json [--chrome TRACE.json]

``--commands`` is a JSON list of idsaug argv lists. The worker imports
``idsaug.cli`` first, then times the calls into ``idsaug.cli.main`` from the
first command's start to the last command's return, and writes the
wall time, the process's peak RSS, the environment and, when traced, the
per-layer metrics to ``--result``. Exits 1 when a command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from idsaug import cli  # noqa: E402  (needs the src path above)

from spans import Tracer  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_commands(commands: list[list[str]], tracer: Tracer | None) -> tuple[float, list[int]]:
    """Run the commands in order, stopping at the first failure."""
    codes = []
    start = time.perf_counter()
    for argv in commands:
        main = cli.main if tracer is None else tracer.wrap(cli.main, f"cli.{argv[0]}", "cli")
        codes.append(main(argv))
        if codes[-1] != 0:
            break
    return time.perf_counter() - start, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, type=json.loads)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--chrome")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        tracer.install()
    try:
        wall_s, codes = run_commands(args.commands, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        if args.chrome:
            with open(args.chrome, "w", encoding="utf-8") as fh:
                json.dump(tracer.chrome_trace(), fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if codes and all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
