"""The idsaug benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's synthbench input is made from ``--seed`` outside any timing
(cached per profile and seed). Then the workload repeats, each repetition a
fresh ``worker.py`` process, for ``--seconds`` (at least twice). Before each
repetition and after the last, a fresh ``probe.py`` process times
``import idsaug.cli`` and a fixed reference task; ``setup_s`` is the median
import time. Every repetition's outputs are checked; the first
repetition's run directory gets the full content check, and every repetition
must reproduce the same artifact hashes, also across runs of this seed on
this source tree. A failed repetition is counted and its timings dropped.

With ``--trace 0`` the result holds the end-to-end metrics in
``BENCHMARK.json``: medians over the repetitions. ``wall_s`` is each
repetition's wall time divided by the mean reference time of the probes
around it, times ``REFERENCE_S``: the wall time at a fixed host speed, since
a shared host's speed can drift by tens of percent over minutes. The median measured
wall time is printed as ``measured_wall_s``. With ``--trace 1``,
repetitions alternate untraced and traced, and the result holds the
per-layer metrics of the traced ones, with ``trace.overhead`` measured
against the untraced ones; the last traced repetition's spans are written to
``.perfbench-work/traces/`` as Chrome trace-event JSON. The last line of
standard output is the result as one JSON object.

Children run with one BLAS/OpenMP thread, as the paper trains
single-threaded. Everything is written under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from gate import artifact_hashes, check_run, macro_f1
from workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 9           # fewest import probes per run
CACHED_INPUTS = 4          # input CSVs kept per profile
CHILD_TIMEOUT_S = 150
DEADLINE_S = 170           # no repetition starts after this much of the run
# wall_s is reported at the host speed where probe.py's reference task takes
# this long: about its median on the baseline machine (see baseline.json)
REFERENCE_S = 1.2


def child_env() -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    """Hash of every file under src/, so results are tied to the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            digest.update(sha256_file(path).encode())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def make_input(workload: Workload, seed: int, work: str) -> str:
    """The workload's synthbench CSV for ``seed``, generated once and cached."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    profile = f"{'-'.join(map(str, workload.counts))}x{workload.dim}"
    path = os.path.join(inputs, f"{profile}-seed{seed}.csv")
    if not os.path.exists(path):
        partial = path + ".partial"
        subprocess.run([sys.executable, "-m", "idsaug.cli", "synthbench", "--out", partial,
                        "--counts", ",".join(map(str, workload.counts)),
                        "--dim", str(workload.dim), "--seed", str(seed)],
                       env=child_env(), check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        os.replace(partial, path)
        cached = sorted((os.path.join(inputs, n) for n in os.listdir(inputs)
                         if n.startswith(profile + "-") and n.endswith(".csv")),
                        key=os.path.getmtime)
        for old in cached[:-CACHED_INPUTS]:
            os.remove(old)
    os.utime(path)
    return path


def probe() -> dict[str, float]:
    """A fresh process's ``import idsaug.cli`` time and reference-task time."""
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "probe.py")],
                         env=child_env(), check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return json.loads(out.stdout)


def run_repetition(workload: Workload, dataset: str, seed: int, run_dir: str,
                   traced: bool, chrome: str | None) -> dict:
    """One worker process; returns its result with ``problems`` filled in."""
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    result_path = run_dir + ".result.json"
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--commands", json.dumps(workload.commands(dataset, run_dir, seed)),
           "--run-id", f"{workload.name}/seed{seed}/{os.path.basename(run_dir)}",
           "--trace", str(int(traced)), "--result", result_path]
    if chrome:
        cmd += ["--chrome", chrome]
    with open(run_dir + ".log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"], "traced": traced}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"problems": [f"worker exited with {proc.returncode}; see {run_dir}.log"],
                "traced": traced}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["problems"] = []
    return result


def record_hashes(work: str, key: str, hashes: dict[str, str]) -> list[str]:
    """Store the artifact hashes of ``key``; report any that differ from before."""
    path = os.path.join(work, "hashes.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    if key in known:
        return [f"{name} differs from an earlier run of this seed and source"
                for name in hashes if known[key].get(name) != hashes[name]]
    known[key] = hashes
    with open(path + ".partial", "w", encoding="utf-8") as fh:
        json.dump(known, fh, sort_keys=True, indent=0)
    os.replace(path + ".partial", path)
    return []


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: str,
            setup_probes: int = SETUP_PROBES) -> dict:
    """Run one measuring run and return its repetitions and set-up figures."""
    started = time.perf_counter()
    dataset = make_input(workload, seed, work)
    probe()  # warm-up: compiles bytecode and fills the file cache
    probes: list[dict[str, float]] = []
    src = source_digest()
    runs_dir = os.path.join(work, "runs", workload.name)
    traces_dir = os.path.join(work, "traces")
    os.makedirs(runs_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)

    reps: list[dict] = []
    durations: list[float] = []
    first_hashes = None
    clock = time.perf_counter()
    # probes run between repetitions, so set-up is sampled over the same stretch
    # of time as the workload and every repetition has a reference time just
    # before and just after it; no repetition starts that would end past
    # --seconds by the look of the earlier ones
    while len(reps) < 2 or (
            time.perf_counter() - clock + statistics.median(durations) <= seconds
            and time.perf_counter() - started < DEADLINE_S):
        rep_started = time.perf_counter()
        probes.append(probe())
        traced = trace and len(reps) % 2 == 1
        run_dir = os.path.join(runs_dir, f"rep{len(reps)}")
        chrome = os.path.join(traces_dir, f"{workload.name}.json") if traced else None
        rep = run_repetition(workload, dataset, seed, run_dir, traced, chrome)
        if not rep["problems"]:
            hashes = artifact_hashes(run_dir)
            rep["macro_f1"] = macro_f1(run_dir)
            if first_hashes is None:
                rep["problems"] = check_run(run_dir)
                rep["problems"] += record_hashes(work, f"{workload.name}|{seed}|{src}", hashes)
                first_hashes = hashes
            else:
                rep["problems"] = [f"{name} differs from the first repetition"
                                   for name in hashes if hashes[name] != first_hashes[name]]
                if not rep["problems"]:
                    shutil.rmtree(run_dir)  # identical to the first; keep that one only
        reps.append(rep)
        durations.append(time.perf_counter() - rep_started)
    probes.append(probe())
    for i, rep in enumerate(reps):
        rep["reference_s"] = (probes[i]["reference_s"] + probes[i + 1]["reference_s"]) / 2
    while len(probes) < setup_probes:
        probes.append(probe())
    env = next((r["env"] for r in reps if "env" in r), {})
    env.update({"commit": git_commit(), "source_sha256": src,
                "input_sha256": sha256_file(dataset),
                "commands": workload.commands(os.path.relpath(dataset, ROOT),
                                              os.path.relpath(runs_dir, ROOT) + "/repN", seed)})
    return {"setup_s": statistics.median(p["import_s"] for p in probes), "reps": reps,
            "env": env}


def scaled_wall(rep: dict) -> float:
    """A repetition's wall time at the host speed where the reference takes REFERENCE_S.

    A shared host's speed can drift by tens of percent over minutes; the
    reference task, timed just before and after the repetition, drifts with it.
    """
    return rep["wall_s"] / rep["reference_s"] * REFERENCE_S


def summarize(measured: dict, trace: bool) -> dict[str, float]:
    """Every metric this run can report, by name."""
    good = [r for r in measured["reps"] if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    metrics = {"setup_s": measured["setup_s"],
               "fail_ratio": 1.0 - len(good) / len(measured["reps"])}
    if plain:
        metrics["wall_s"] = statistics.median(scaled_wall(r) for r in plain)
        metrics["measured_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["reference_s"] = statistics.median(r["reference_s"] for r in plain)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    traced = [r for r in good if r["traced"]]
    if trace and traced and plain:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead"] = (statistics.median(scaled_wall(r) for r in traced)
                                     / metrics["wall_s"] - 1.0)
        metrics["evalreport.macro_f1"] = statistics.median(r["macro_f1"] for r in good)
    return metrics


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(measured: dict, trace: bool, spec: dict) -> dict:
    """The final JSON object: every metric of the chosen kind, by name and unit."""
    metrics = summarize(measured, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    failed = sum(1 for r in measured["reps"] if r["problems"])
    return {"correct": failed == 0, "attempted": len(measured["reps"]), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def render(measured: dict, trace: bool, spec: dict) -> list[str]:
    """The run's report: one line per repetition and metric, the JSON result last."""
    lines = []
    for i, rep in enumerate(measured["reps"]):
        status = "; ".join(rep["problems"]) or "ok"
        lines.append(f"rep {i}{' traced' if rep['traced'] else ''}: "
                     f"wall_s={rep.get('wall_s', float('nan')):.4f} "
                     f"reference_s={rep['reference_s']:.4f} {status}")
    metrics = summarize(measured, trace)
    lines.append(f"fail_ratio = {metrics['fail_ratio']:.4f} ratio")
    if "measured_wall_s" in metrics:
        lines.append(f"measured_wall_s = {metrics['measured_wall_s']:.6g} s "
                     f"(reference_s = {metrics['reference_s']:.6g} s)")
    lines.append("env " + json.dumps(measured["env"], sort_keys=True))
    result = result_line(measured, trace, spec)
    for name, entry in result["metrics"].items():
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']}")
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.exists(os.path.join(ROOT, "src", "idsaug", "cli.py")):
        print(f"error: no idsaug source under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    work = os.path.join(ROOT, ".perfbench-work")
    trace = bool(args.trace)
    measured = measure(WORKLOADS[args.workload], args.seed, args.seconds, trace, work)
    metrics = summarize(measured, trace)
    missing = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]
               if m["name"] not in metrics]
    if missing:
        for rep in measured["reps"]:
            print("; ".join(rep["problems"]), file=sys.stderr)
        print(f"error: no successful repetition measured {missing}", file=sys.stderr)
        return 1
    print("\n".join(render(measured, trace, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
