"""The benchmark's workloads: a synthbench profile plus the idsaug commands run on it.

Every workload keeps the shape of one use of the paper's pipeline (which
stages run, which augmenter dominates, how wide the rows are) at a size where
one repetition takes seconds, so a measuring run can repeat it and report
medians. Why each was chosen is recorded with its name in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    counts: tuple[int, ...]    # synthbench rows per class, majority first
    dim: int                   # synthbench feature columns
    method: str                # augmentation method passed to idsaug
    flags: tuple[str, ...]     # epoch flags shared by every command
    staged: bool = False       # staged command chain instead of one run-all

    def commands(self, dataset: str, run_dir: str, seed: int) -> list[list[str]]:
        """The idsaug argv lists of one repetition, in order."""
        common = ["--seed", str(seed), "--level-mode", "auto-gap", *self.flags]
        if not self.staged:
            return [["run-all", "--dataset", dataset, "--out", run_dir,
                     "--method", self.method, *common]]
        return [["preprocess", "--dataset", dataset, "--out", run_dir, *common],
                ["levels", "--run", run_dir, *common],
                ["augment", "--run", run_dir, "--method", self.method, *common],
                ["train-clf", "--run", run_dir, *common],
                ["eval", "--run", run_dir, *common]]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-s2cgan",
        counts=(20000, 150, 12), dim=20, method="s2cgan",
        flags=("--san-epochs", "10", "--scgan-epochs", "30", "--clf-epochs", "12")),
    Workload(
        name="wide-smote-staged",
        counts=(6000, 600, 15), dim=78, method="smote",
        flags=("--clf-epochs", "2"), staged=True),
)}
