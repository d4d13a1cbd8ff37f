"""Confusion matrices, per-class metrics, aggregates, comparisons, and PCA."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError, InputDataError, ReportError
from .nncore.checkpoint import atomic_file


@dataclass
class ConfusionMatrix:
    """Row = true class, column = predicted class, both in class_ids order."""

    matrix: np.ndarray
    class_ids: list[int]

    def support(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def total(self) -> int:
        return int(self.matrix.sum())


@dataclass
class MetricsReport:
    class_ids: list[int]
    precision: np.ndarray
    recall: np.ndarray
    f_beta: np.ndarray
    beta: float
    supports: np.ndarray
    weighted: dict[str, float] = field(default_factory=dict)
    macro: dict[str, float] = field(default_factory=dict)


_PER_CLASS = ("precision", "recall", "f_beta", "supports")


def save_metrics(path, report: MetricsReport, names: dict[int, str]):
    """``report`` with the name of each class as JSON, read by ``load_metrics``."""
    payload = {"class_ids": report.class_ids, "beta": report.beta,
               "names": {str(c): names[c] for c in report.class_ids},
               "weighted": report.weighted, "macro": report.macro,
               **{key: [float(v) for v in getattr(report, key)] for key in _PER_CLASS}}
    with atomic_file(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_metrics(path) -> tuple[MetricsReport, dict[int, str]]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    report = MetricsReport([int(c) for c in raw["class_ids"]], beta=float(raw["beta"]),
                           weighted=raw["weighted"], macro=raw["macro"],
                           **{key: np.array(raw[key]) for key in _PER_CLASS})
    return report, {int(k): v for k, v in raw["names"].items()}


@dataclass
class ComparisonTable:
    baseline_name: str
    class_ids: list[int]
    # method name -> {"precision"|"recall"|"f_beta": per-class deltas}
    per_class_deltas: dict[str, dict[str, np.ndarray]]
    # method name -> {"weighted_f"|..., float deltas}
    aggregate_deltas: dict[str, dict[str, float]]


def _positions(values: np.ndarray, class_ids: list[int]) -> np.ndarray:
    ids = np.asarray(class_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    slot = np.searchsorted(sorted_ids, values)
    bad = (slot >= ids.size) | (sorted_ids[np.clip(slot, 0, ids.size - 1)] != values)
    if np.any(bad):
        unknown = sorted(set(np.asarray(values)[bad].tolist()))
        raise InputDataError(f"labels {unknown} are not in the class list")
    return order[slot]


def confusion(truth, preds, class_ids) -> ConfusionMatrix:
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if truth.shape != preds.shape:
        raise InputDataError("truth and predictions must have equal length")
    class_ids = [int(c) for c in class_ids]
    c = len(class_ids)
    t_pos = _positions(truth, class_ids)
    p_pos = _positions(preds, class_ids)
    matrix = np.bincount(t_pos * c + p_pos, minlength=c * c).reshape(c, c)
    return ConfusionMatrix(matrix.astype(np.int64), class_ids)


def per_class_metrics(cm: ConfusionMatrix, beta: float = 1.0) -> MetricsReport:
    """Precision, recall, and the F-beta harmonic mean per class.

    Zero-denominator cases are defined as 0, which is what an undetected
    class reports.
    """
    if beta <= 0:
        raise ConfigError("beta must be positive")
    m = cm.matrix.astype(np.float64)
    tp = np.diag(m)
    fp = m.sum(axis=0) - tp
    fn = m.sum(axis=1) - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / np.where(tp + fp > 0, tp + fp, 1.0), 0.0)
        recall = np.where(tp + fn > 0, tp / np.where(tp + fn > 0, tp + fn, 1.0), 0.0)
        denom = beta * beta * precision + recall
        f_beta = np.where(denom > 0,
                          (1.0 + beta * beta) * precision * recall / np.where(denom > 0, denom, 1.0),
                          0.0)
    report = MetricsReport(cm.class_ids, precision, recall, f_beta, float(beta),
                           cm.support().astype(np.float64))
    return aggregate(report)


def aggregate(report: MetricsReport, supports=None) -> MetricsReport:
    """Fill in support-weighted and unweighted (macro) averages."""
    w = report.supports if supports is None else np.asarray(supports, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise InputDataError("supports must be non-negative with a positive total")
    total = w.sum()
    report.weighted = {
        "precision": float((w * report.precision).sum() / total),
        "recall": float((w * report.recall).sum() / total),
        "f_beta": float((w * report.f_beta).sum() / total),
    }
    report.macro = {
        "precision": float(report.precision.mean()),
        "recall": float(report.recall.mean()),
        "f_beta": float(report.f_beta.mean()),
    }
    return report


def build_report(truth, preds, class_ids, beta: float = 1.0) -> MetricsReport:
    return per_class_metrics(confusion(truth, preds, class_ids), beta)


def compare(reports: dict[str, MetricsReport], baseline_name: str) -> ComparisonTable:
    """Per-class and aggregate deltas of every report against the baseline."""
    if baseline_name not in reports:
        raise ReportError(f"baseline {baseline_name!r} is not among the reports")
    baseline = reports[baseline_name]
    per_class = {}
    aggregates = {}
    for name, report in reports.items():
        if report.class_ids != baseline.class_ids:
            raise ReportError(f"report {name!r} covers different classes than the baseline")
        per_class[name] = {
            "precision": report.precision - baseline.precision,
            "recall": report.recall - baseline.recall,
            "f_beta": report.f_beta - baseline.f_beta,
        }
        aggregates[name] = {}
        for scope in ("weighted", "macro"):
            ours = getattr(report, scope)
            base = getattr(baseline, scope)
            for key in ("precision", "recall", "f_beta"):
                aggregates[name][f"{scope}_{key}"] = ours[key] - base[key]
    return ComparisonTable(baseline_name, list(baseline.class_ids), per_class, aggregates)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def pca2d(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-2 principal directions from the covariance eigendecomposition.

    Returns (projection, explained_variances, directions); directions are
    the (d, 2) unit-norm orthogonal columns, each with its first nonzero
    component made positive for reproducible plots. One-feature data gets a
    zero second direction.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DataError("pca2d needs at least 2 rows")
    centered = data - data.mean(axis=0)
    if not np.any(np.abs(centered) > 1e-300):
        raise DegenerateDataError("data has no variance; principal directions undefined")
    cov = centered.T @ centered / (data.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending order
    top = min(2, cov.shape[0])
    variances = np.zeros(2)
    directions = np.zeros((cov.shape[0], 2))
    variances[:top] = eigvals[::-1][:top]
    for col in range(top):
        directions[:, col] = _fix_sign(eigvecs[:, -1 - col])
    projection = centered @ directions
    return projection, variances, directions


def write_per_class_csv(path, report: MetricsReport, names: dict[int, str]):
    with atomic_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "support", "precision", "recall", "f_beta"])
        for i, class_id in enumerate(report.class_ids):
            writer.writerow([
                names.get(class_id, str(class_id)),
                int(report.supports[i]),
                repr(float(report.precision[i])),
                repr(float(report.recall[i])),
                repr(float(report.f_beta[i])),
            ])


def write_aggregates_csv(path, report: MetricsReport):
    with atomic_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scope", "precision", "recall", "f_beta"])
        for scope in ("weighted", "macro"):
            values = getattr(report, scope)
            writer.writerow([scope, repr(values["precision"]), repr(values["recall"]),
                             repr(values["f_beta"])])


def write_confusion_csv(path, cm: ConfusionMatrix, names: dict[int, str]):
    with atomic_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["true\\pred"] + [names.get(c, str(c)) for c in cm.class_ids]
        writer.writerow(header)
        for i, class_id in enumerate(cm.class_ids):
            writer.writerow([names.get(class_id, str(class_id))] + cm.matrix[i].tolist())


def write_comparison_csv(path, table: ComparisonTable, names: dict[int, str]):
    with atomic_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "class", "d_precision", "d_recall", "d_f_beta"])
        for method in sorted(table.per_class_deltas):
            deltas = table.per_class_deltas[method]
            for i, class_id in enumerate(table.class_ids):
                writer.writerow([
                    method, names.get(class_id, str(class_id)),
                    repr(float(deltas["precision"][i])),
                    repr(float(deltas["recall"][i])),
                    repr(float(deltas["f_beta"][i])),
                ])
        writer.writerow([])
        writer.writerow(["method", "aggregate", "delta"])
        for method in sorted(table.aggregate_deltas):
            for key, value in sorted(table.aggregate_deltas[method].items()):
                writer.writerow([method, key, repr(float(value))])


def write_comparison(out_dir, reports: dict[str, MetricsReport], baseline_name: str,
                     names: dict[int, str]) -> list[str]:
    """Write the deltas of ``reports`` against the baseline and every
    report's aggregates under ``out_dir``; return the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    deltas, aggregates = (os.path.join(out_dir, n) for n in ("deltas.csv", "aggregates.csv"))
    write_comparison_csv(deltas, compare(reports, baseline_name), names)
    with atomic_file(aggregates, "w", encoding="utf-8") as fh:
        fh.write("method,scope,precision,recall,f_beta\n")
        for label, report in sorted(reports.items()):
            for scope in ("weighted", "macro"):
                values = getattr(report, scope)
                fh.write(f"{label},{scope},{values['precision']!r},"
                         f"{values['recall']!r},{values['f_beta']!r}\n")
    return [deltas, aggregates]


def write_pca_csv(path, projection: np.ndarray, labels, names: dict[int, str]):
    with atomic_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "label"])
        for (x, y), label in zip(projection, labels):
            writer.writerow([repr(float(x)), repr(float(y)), names.get(int(label), str(label))])


def render_summary(report: MetricsReport, names: dict[int, str]) -> str:
    width = max([len(names.get(c, str(c))) for c in report.class_ids] + [8])
    lines = [f"{'class':<{width}}  {'support':>9}  {'precision':>9}  {'recall':>9}  {'f_beta':>9}"]
    for i, class_id in enumerate(report.class_ids):
        lines.append(
            f"{names.get(class_id, str(class_id)):<{width}}  {int(report.supports[i]):>9}  "
            f"{report.precision[i]:>9.4f}  {report.recall[i]:>9.4f}  {report.f_beta[i]:>9.4f}"
        )
    for scope in ("weighted", "macro"):
        values = getattr(report, scope)
        lines.append(
            f"{scope:<{width}}  {'':>9}  {values['precision']:>9.4f}  "
            f"{values['recall']:>9.4f}  {values['f_beta']:>9.4f}"
        )
    return "\n".join(lines) + "\n"
