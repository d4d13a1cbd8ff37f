import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug import evalreport
from idsaug.errors import ConfigError, DataError, DegenerateDataError, InputDataError, ReportError

from cicids_reference import CLASS_ORDER, F1_BASELINE, F1_S2CGAN, F1_SMOTE


def report_from_f1(column):
    """Wrap a published per-class F1 column for aggregation."""
    values = np.array(column)
    return evalreport.aggregate(evalreport.MetricsReport(
        class_ids=list(range(len(column))),
        precision=values.copy(),
        recall=values.copy(),
        f_beta=values.copy(),
        beta=1.0,
        supports=np.ones(len(column)),
    ))


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        truth = [0, 1, 2, 1, 0]
        cm = evalreport.confusion(truth, truth, [0, 1, 2])
        assert np.array_equal(cm.matrix, np.diag([2, 2, 1]))

    def test_single_error_lands_in_off_diagonal_cell(self):
        cm = evalreport.confusion([0], [1], [0, 1])
        assert cm.matrix[0, 1] == 1
        assert cm.total() == 1

    def test_row_sums_equal_supports(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=300)
        preds = rng.integers(0, 4, size=300)
        cm = evalreport.confusion(truth, preds, [0, 1, 2, 3])
        for class_id in range(4):
            assert cm.matrix[class_id].sum() == (truth == class_id).sum()
        assert cm.total() == 300

    def test_unknown_label_rejected(self):
        with pytest.raises(InputDataError):
            evalreport.confusion([0, 5], [0, 0], [0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputDataError):
            evalreport.confusion([0, 1], [0], [0, 1])


class TestPerClassMetrics:
    def test_perfect_single_class(self):
        cm = evalreport.confusion([0, 0], [0, 0], [0, 1])
        report = evalreport.per_class_metrics(cm)
        assert report.precision[0] == report.recall[0] == report.f_beta[0] == 1.0

    def test_equal_precision_recall_gives_equal_f1(self):
        # P = R = 0.9794 must give F1 = 0.9794 (harmonic mean of equals)
        matrix = np.array([[9794, 206], [206, 9794]])
        report = evalreport.per_class_metrics(
            evalreport.ConfusionMatrix(matrix, [0, 1]))
        assert report.precision[0] == pytest.approx(0.9794)
        assert report.recall[0] == pytest.approx(0.9794)
        assert report.f_beta[0] == pytest.approx(0.9794)

    def test_zero_denominators_define_zero_metrics(self):
        # TP=0, FP=3, FN=2 for class 0
        matrix = np.array([[0, 2], [3, 10]])
        report = evalreport.per_class_metrics(
            evalreport.ConfusionMatrix(matrix, [0, 1]))
        assert report.precision[0] == 0.0
        assert report.recall[0] == 0.0
        assert report.f_beta[0] == 0.0

    def test_beta_must_be_positive(self):
        cm = evalreport.confusion([0], [0], [0])
        with pytest.raises(ConfigError):
            evalreport.per_class_metrics(cm, beta=0.0)

    def test_beta_weighting_favors_recall(self):
        # P=1, R=0.5: beta=2 weighs recall harder than beta=0.5
        matrix = np.array([[5, 5], [0, 10]])
        cm = evalreport.ConfusionMatrix(matrix, [0, 1])
        f_half = evalreport.per_class_metrics(cm, beta=0.5).f_beta[0]
        f_two = evalreport.per_class_metrics(cm, beta=2.0).f_beta[0]
        assert f_two < f_half

    @settings(max_examples=40)
    @given(st.integers(2, 5), st.integers(10, 200), st.integers(0, 2**31))
    def test_matches_per_sample_counting_oracle(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, n_classes, size=n)
        preds = rng.integers(0, n_classes, size=n)
        report = evalreport.build_report(truth, preds, list(range(n_classes)))
        for i in range(n_classes):
            tp = int(((truth == i) & (preds == i)).sum())
            fp = int(((truth != i) & (preds == i)).sum())
            fn = int(((truth == i) & (preds != i)).sum())
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            assert report.precision[i] == pytest.approx(precision)
            assert report.recall[i] == pytest.approx(recall)
            assert report.f_beta[i] == pytest.approx(f1)

    @settings(max_examples=30)
    @given(st.integers(2, 5), st.integers(5, 100), st.integers(0, 2**31))
    def test_metric_bounds(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, n_classes, size=n)
        preds = rng.integers(0, n_classes, size=n)
        report = evalreport.build_report(truth, preds, list(range(n_classes)))
        for arr in (report.precision, report.recall, report.f_beta):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
        positive = (report.precision > 0) & (report.recall > 0)
        f = report.f_beta[positive]
        assert np.all(f <= np.maximum(report.precision, report.recall)[positive] + 1e-12)
        assert np.all(f >= np.minimum(report.precision, report.recall)[positive] - 1e-12)


class TestAggregate:
    def test_equal_supports_make_macro_equal_weighted(self):
        report = report_from_f1([0.5, 0.7, 0.9])
        assert report.macro["f_beta"] == pytest.approx(report.weighted["f_beta"])

    def test_published_columns_reproduce_headline_macro_f1(self):
        ours = report_from_f1(F1_S2CGAN)
        smote = report_from_f1(F1_SMOTE)
        assert ours.macro["f_beta"] == pytest.approx(0.9199, abs=5e-4)
        assert smote.macro["f_beta"] == pytest.approx(0.8347, abs=5e-4)
        improvement = (ours.macro["f_beta"] - smote.macro["f_beta"]) / smote.macro["f_beta"]
        assert improvement == pytest.approx(0.102, abs=0.003)

    def test_weighted_uses_supports(self):
        report = evalreport.aggregate(evalreport.MetricsReport(
            class_ids=[0, 1],
            precision=np.array([1.0, 0.0]),
            recall=np.array([1.0, 0.0]),
            f_beta=np.array([1.0, 0.0]),
            beta=1.0,
            supports=np.array([3.0, 1.0]),
        ))
        assert report.weighted["f_beta"] == pytest.approx(0.75)
        assert report.macro["f_beta"] == pytest.approx(0.5)

    def test_single_class_aggregates_collapse(self):
        report = report_from_f1([0.42])
        assert report.macro["f_beta"] == pytest.approx(0.42)
        assert report.weighted["f_beta"] == pytest.approx(0.42)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.random(6)
        supports = rng.integers(1, 50, size=6).astype(float)
        base = evalreport.aggregate(evalreport.MetricsReport(
            list(range(6)), values.copy(), values.copy(), values.copy(), 1.0, supports))
        perm = rng.permutation(6)
        shuffled = evalreport.aggregate(evalreport.MetricsReport(
            list(perm), values[perm], values[perm], values[perm], 1.0, supports[perm]))
        for key in ("precision", "recall", "f_beta"):
            assert base.macro[key] == pytest.approx(shuffled.macro[key])
            assert base.weighted[key] == pytest.approx(shuffled.weighted[key])


class TestCompare:
    def test_self_comparison_is_all_zero(self):
        report = report_from_f1(F1_S2CGAN)
        table = evalreport.compare({"a": report, "b": report}, "a")
        assert np.all(table.per_class_deltas["b"]["f_beta"] == 0.0)
        assert all(v == 0.0 for v in table.aggregate_deltas["b"].values())

    def test_single_differing_class(self):
        base = report_from_f1([0.5, 0.5, 0.5])
        other = report_from_f1([0.5, 0.6, 0.5])
        table = evalreport.compare({"base": base, "other": other}, "base")
        deltas = table.per_class_deltas["other"]["f_beta"]
        assert np.count_nonzero(deltas) == 1
        assert deltas[1] == pytest.approx(0.1)

    def test_published_infiltration_delta(self):
        table = evalreport.compare(
            {"baseline": report_from_f1(F1_BASELINE), "ours": report_from_f1(F1_S2CGAN)},
            "baseline")
        idx = CLASS_ORDER.index("Infiltration")
        assert table.per_class_deltas["ours"]["f_beta"][idx] == pytest.approx(0.8333)

    def test_mismatched_class_sets_rejected(self):
        base = report_from_f1([0.5, 0.5])
        other = report_from_f1([0.5, 0.5, 0.5])
        with pytest.raises(ReportError):
            evalreport.compare({"base": base, "other": other}, "base")

    def test_missing_baseline_rejected(self):
        with pytest.raises(ReportError):
            evalreport.compare({"a": report_from_f1([1.0])}, "nope")


class TestPca:
    def test_axis_aligned_variance(self):
        rng = np.random.default_rng(2)
        data = np.zeros((50, 2))
        data[:, 0] = rng.standard_normal(50) * 5.0
        data[:, 1] = rng.standard_normal(50) * 0.01
        _, variances, directions = evalreport.pca2d(data)
        assert abs(directions[0, 0]) > 0.999
        assert directions[0, 0] > 0  # sign convention
        assert variances[0] > variances[1]

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 4))
        projection, variances, directions = evalreport.pca2d(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert variances[0] == pytest.approx(eigvals[0], abs=1e-6)
        assert variances[1] == pytest.approx(eigvals[1], abs=1e-6)

    def test_directions_unit_norm_and_orthogonal(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((40, 6))
        _, _, directions = evalreport.pca2d(data)
        assert np.linalg.norm(directions[:, 0]) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(directions[:, 1]) == pytest.approx(1.0, abs=1e-9)
        assert abs(directions[:, 0] @ directions[:, 1]) < 1e-6

    def test_rank_two_data_reconstructs(self):
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((2, 7))
        coeffs = rng.standard_normal((30, 2))
        data = coeffs @ basis
        projection, _, directions = evalreport.pca2d(data)
        rebuilt = projection @ directions.T + data.mean(axis=0)
        assert np.abs(rebuilt - data).max() < 1e-8

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            evalreport.pca2d(np.ones((5, 3)))

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            evalreport.pca2d(np.ones((1, 3)))


class TestWriters:
    def test_report_files_written(self, tmp_path):
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        names = {0: "a", 1: "b", 2: "c"}
        report = evalreport.build_report(truth, preds, [0, 1, 2])
        cm = evalreport.confusion(truth, preds, [0, 1, 2])
        evalreport.write_per_class_csv(tmp_path / "per_class.csv", report, names)
        evalreport.write_aggregates_csv(tmp_path / "aggregates.csv", report)
        evalreport.write_confusion_csv(tmp_path / "confusion.csv", cm, names)
        table = evalreport.compare({"x": report, "y": report}, "x")
        evalreport.write_comparison_csv(tmp_path / "deltas.csv", table, names)
        projection, _, _ = evalreport.pca2d(rng.standard_normal((60, 4)))
        evalreport.write_pca_csv(tmp_path / "pca.csv", projection, truth, names)
        for name in ("per_class.csv", "aggregates.csv", "confusion.csv",
                     "deltas.csv", "pca.csv"):
            assert (tmp_path / name).read_text().strip()
        summary = evalreport.render_summary(report, names)
        assert "macro" in summary and "weighted" in summary

    def test_comparison_quotes_a_run_label_that_holds_a_comma(self, tmp_path):
        names = {0: "a", 1: "b", 2: "c"}
        reports = {"base": report_from_f1([0.5, 0.5, 0.5]), "x,y": report_from_f1([0.5, 0.6, 0.4])}
        deltas, aggregates = evalreport.write_comparison(tmp_path, reports, "base", names)
        with open(aggregates, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "scope", "precision", "recall", "f_beta"]
        assert [row[:2] for row in rows[1:]] == [["base", "weighted"], ["base", "macro"],
                                                 ["x,y", "weighted"], ["x,y", "macro"]]
        assert all(len(row) == 5 for row in rows)
        assert float(rows[4][4]) == reports["x,y"].macro["f_beta"]
        with open(deltas, newline="", encoding="utf-8") as fh:
            assert {row[0] for row in csv.reader(fh) if row[1:2] == ["b"]} == {"base", "x,y"}
