"""Tests of the benchmark's own code on tiny profiles of each workload shape."""

from __future__ import annotations

import csv
import dataclasses
import json
import os

import pytest

import run
import worker
from gate import check_run
from spans import Tracer
from workloads import WORKLOADS

TINY_FLAGS = ("--san-epochs", "2", "--scgan-epochs", "2", "--clf-epochs", "1", "--eta", "0")
TINY = {
    "desk-s2cgan": dataclasses.replace(WORKLOADS["desk-s2cgan"], counts=(600, 40, 6), dim=8,
                                       flags=TINY_FLAGS),
    "wide-smote-staged": dataclasses.replace(WORKLOADS["wide-smote-staged"], counts=(400, 60, 6),
                                             dim=10, flags=("--clf-epochs", "1")),
}
SPEC = run.load_spec()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.fixture(scope="module")
def measured(work):
    """A traced run of each tiny profile: untraced and traced repetitions alternate."""
    return {name: run.measure(workload, 3, 0, True, work, setup_probes=1)
            for name, workload in TINY.items()}


def _printed(lines, kind):
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    return result["metrics"]


def test_end_to_end_metrics_printed_with_units(measured):
    lines = run.render(measured["desk-s2cgan"], False, SPEC)
    metrics = _printed(lines, "end_to_end")
    assert all(entry["value"] > 0 for entry in metrics.values())
    # every repetition is scaled by the reference probes taken around it
    assert all(rep["reference_s"] > 0 for rep in measured["desk-s2cgan"]["reps"])
    assert any(line.startswith("measured_wall_s = ") for line in lines)


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_printed_with_units(measured, name):
    metrics = _printed(run.render(measured[name], True, SPEC), "per_layer")
    assert 0.0 < metrics["trace.coverage"]["value"] <= 1.0
    if name == "desk-s2cgan":
        assert metrics["scgan.steps"]["value"] > 0 and metrics["nncore.scgan.calls"]["value"] > 0
    else:
        assert metrics["skn.new_rows"]["value"] > 0 and metrics["scgan.steps"]["value"] == 0


def test_span_self_times_are_non_negative_and_within_wall(tmp_path):
    import idsaug.dataio
    import idsaug.pipeline

    workload = TINY["desk-s2cgan"]
    dataset = str(tmp_path / "in.csv")
    assert worker.cli.main(["synthbench", "--out", dataset, "--seed", "1", "--dim", "8",
                            "--counts", ",".join(map(str, workload.counts))]) == 0
    tracer = Tracer("test")
    tracer.install()
    try:
        wall_s, codes = worker.run_commands(
            workload.commands(dataset, str(tmp_path / "run"), 1), tracer)
    finally:
        tracer.uninstall()
    assert codes == [0]
    own = tracer.self_times_ns()
    assert min(own) >= 0
    assert sum(own) / 1e9 <= wall_s
    names = {span[0] for span in tracer.spans}
    # reached through a from-import binding and through a module global
    assert {"dataio.save_dataset", "dataio.dataset_fingerprint", "san.encode",
            "Dense.forward", "Adam.step"} <= names
    assert idsaug.pipeline.save_dataset is idsaug.dataio.save_dataset
    assert not hasattr(idsaug.dataio.save_dataset, "__wrapped__")
    metrics = tracer.layer_metrics(wall_s)
    assert metrics["scgan.steps"] > 0 and metrics["san.steps"] > 0
    assert metrics["pipeline.clf_epochs"] == 1


def test_gate_flags_a_missed_target(measured, work):
    run_dir = os.path.join(work, "runs", "wide-smote-staged", "rep0")
    assert check_run(run_dir) == []
    path = os.path.join(run_dir, "augmented.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    label = rows[0].index("Label")
    dropped = next(i for i, row in enumerate(rows[1:], 1) if row[label] == "class_2")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows[:dropped] + rows[dropped + 1:])
    problems = check_run(run_dir)
    assert any(p.startswith("class class_2:") for p in problems), problems


def test_changed_artifact_hash_is_reported(tmp_path):
    work = str(tmp_path)
    assert run.record_hashes(work, "k", {"augmented.csv": "a"}) == []
    assert run.record_hashes(work, "k", {"augmented.csv": "a"}) == []
    assert run.record_hashes(work, "k", {"augmented.csv": "b"}) != []


def test_benchmark_json_names_the_defined_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
