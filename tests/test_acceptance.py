"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured values (run with -s to stream them)."""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from idsaug import evalreport, leveling
from idsaug.cli import main
from idsaug.nncore import (
    BatchNorm,
    Dense,
    LayerNorm,
    LeakyReLU,
    ReLU,
    Sigmoid,
    adversarial_losses,
    contrastive_loss,
    cross_entropy_loss,
    discriminator_score_grads,
    generator_score_grad,
    reconstruction_loss,
)
from idsaug.san import SanConfig, encode, train_san
from idsaug.scgan import FilterPolicy, ScganConfig, synthesize_to_target, train_scgan
from idsaug.skn import SknConfig, skn_synthesize

from _gradcheck import fd_gradient, layer_gradcheck, max_rel_err
from cicids_reference import (
    AFTER_AUGMENTATION,
    F1_S2CGAN,
    F1_SMOTE,
    FULL_COUNTS,
    PUBLISHED_IRS,
    PUBLISHED_LEVELS,
    TRAIN_COUNTS,
)
from test_skn import brute_force_synthesize

NAMES = sorted(FULL_COUNTS)
IDS = {name: i for i, name in enumerate(NAMES)}


def by_id(mapping):
    return {IDS[name]: value for name, value in mapping.items()}


def ok(line):
    print(f"PASS: {line}")


def test_c1_imbalance_ratio_reproduction():
    irs = leveling.imbalance_ratios(by_id(FULL_COUNTS))
    worst = 0.0
    for name, published in PUBLISHED_IRS.items():
        rel = abs(irs[IDS[name]] - published) / published
        worst = max(worst, rel)
        assert rel < 0.005, (name, irs[IDS[name]], published)
    ok(f"imbalance ratios match the published table, worst relative error {worst:.2e}")


def test_c2_leveling_reproduction():
    part = leveling.partition(by_id(PUBLISHED_IRS), leveling.LevelThresholds())
    for name, expected in PUBLISHED_LEVELS.items():
        assert part.levels[IDS[name]] == expected, name
    targets = leveling.augmentation_targets(part, by_id(TRAIN_COUNTS))
    for name, expected in AFTER_AUGMENTATION.items():
        assert targets[IDS[name]] == expected, name
    minority = [targets[IDS[n]] for n in
                ("Patator", "Web Attack", "Bot", "Infiltration", "Heartbleed")]
    assert minority == [127144, 127144, 127144, 1573, 1573]
    ok("default thresholds reproduce the published levels and targets "
       f"{{127144 x3, 1573 x2}}")


def test_c3_metric_engine_reproduces_headline_macro_f1():
    def macro_of(column):
        report = evalreport.aggregate(evalreport.MetricsReport(
            class_ids=list(range(len(column))),
            precision=np.array(column), recall=np.array(column),
            f_beta=np.array(column), beta=1.0,
            supports=np.ones(len(column))))
        return report.macro["f_beta"]

    ours = macro_of(F1_S2CGAN)
    smote = macro_of(F1_SMOTE)
    assert ours == pytest.approx(0.9199, abs=5e-4)
    assert smote == pytest.approx(0.8347, abs=5e-4)
    improvement = (ours - smote) / smote
    assert improvement == pytest.approx(0.102, abs=0.003)
    ok(f"macro F1 {ours:.4f} vs {smote:.4f}, relative improvement "
       f"{improvement:.1%} (target 10.2% +- 0.3pp)")


def test_c4_gradient_suite():
    factories = {
        "dense": lambda rng, d: Dense(d, d + 2, rng),
        "batchnorm": lambda rng, d: BatchNorm(d),
        "layernorm": lambda rng, d: LayerNorm(d),
        "leakyrelu": lambda rng, d: LeakyReLU(d, slope=0.01),
        "relu": lambda rng, d: ReLU(d),
        "sigmoid": lambda rng, d: Sigmoid(d),
    }
    worst = 0.0
    for kind, factory in factories.items():
        rng = np.random.default_rng(abs(hash(kind)) % (2**32))
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            rows = int(rng.integers(3, 8))
            x = rng.standard_normal((rows, dim)) * 1.5
            if kind in ("leakyrelu", "relu"):
                x = np.where(np.abs(x) < 1e-3, x + np.sign(x + 0.5) * 2e-3, x)
            if kind == "batchnorm":
                x = x * rng.uniform(2.0, 6.0, size=dim)
            err = layer_gradcheck(factory(rng, dim), x, rng)
            worst = max(worst, err)
            assert err < 1e-4, (kind, err)

    rng = np.random.default_rng(999)
    for _ in range(20):
        rows, dim = int(rng.integers(2, 7)), int(rng.integers(2, 6))

        x = rng.random((rows, dim))
        x_bar = rng.random((rows, dim))
        _, grad = reconstruction_loss(x, x_bar)
        err = max_rel_err(grad, fd_gradient(lambda: reconstruction_loss(x, x_bar)[0], x_bar))
        worst = max(worst, err)
        assert err < 1e-4, ("reconstruction", err)

        e1 = rng.standard_normal((rows, dim))
        e2 = rng.standard_normal((rows, dim))
        y = rng.integers(0, 2, size=rows).astype(float)
        dist = np.linalg.norm(e1 - e2, axis=1)
        margin = 2.0
        # nudge pairs away from the hinge kink and the zero-distance point
        if np.any(np.abs(dist - margin) < 1e-2) or np.any(dist < 1e-2):
            e2 = e2 + 0.05
            dist = np.linalg.norm(e1 - e2, axis=1)
            if np.any(np.abs(dist - margin) < 1e-2) or np.any(dist < 1e-2):
                continue
        _, g1, g2 = contrastive_loss(e1, e2, y, margin)
        err = max(
            max_rel_err(g1, fd_gradient(lambda: contrastive_loss(e1, e2, y, margin)[0], e1)),
            max_rel_err(g2, fd_gradient(lambda: contrastive_loss(e1, e2, y, margin)[0], e2)),
        )
        worst = max(worst, err)
        assert err < 1e-4, ("contrastive", err)

        d_real = rng.uniform(0.05, 0.95, size=(rows, 1))
        d_fake = rng.uniform(0.05, 0.95, size=(rows, 1))
        g_real, g_fake = discriminator_score_grads(d_real, d_fake)
        err = max(
            max_rel_err(g_real, fd_gradient(lambda: adversarial_losses(d_real, d_fake)[0], d_real)),
            max_rel_err(g_fake, fd_gradient(lambda: adversarial_losses(d_real, d_fake)[0], d_fake)),
            max_rel_err(generator_score_grad(d_fake),
                        fd_gradient(lambda: adversarial_losses(d_real, d_fake)[1], d_fake)),
        )
        worst = max(worst, err)
        assert err < 1e-4, ("adversarial", err)

        logits = rng.standard_normal((rows, dim))
        targets = np.eye(dim)[rng.integers(0, dim, size=rows)]
        _, grad = cross_entropy_loss(logits, targets)
        err = max_rel_err(grad, fd_gradient(lambda: cross_entropy_loss(logits, targets)[0],
                                            logits))
        worst = max(worst, err)
        assert err < 1e-4, ("cross_entropy", err)
    ok(f"all layer kinds and losses pass finite-difference checks, worst error {worst:.2e}")


def test_c5_skn_oracle_equivalence_and_invariants():
    rng = np.random.default_rng(1234)
    for trial in range(50):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 6))
        n_new = int(rng.integers(1, 30))
        seed = int(rng.integers(0, 2**31))
        k = int(rng.integers(1, 6))
        points = np.random.default_rng(5000 + trial).random((n, dim))
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            ours = skn_synthesize(points, n_new, SknConfig(k=k, seed=seed))
            theirs = brute_force_synthesize(points, n_new, k, seed)
        assert np.array_equal(ours, theirs), trial

    total = 0
    for block in range(5):
        points = np.random.default_rng(9000 + block).random((10, 5))
        out = skn_synthesize(points, 2000, SknConfig(k=4, seed=block))
        total += len(out)
        lo, hi = points.min(axis=0), points.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
        for t, row in enumerate(out):
            source = points[t % 10]
            on_segment = False
            for candidate in points:
                diff = candidate - source
                lam = None
                consistent = True
                for f in range(5):
                    if abs(diff[f]) > 1e-12:
                        this = (row[f] - source[f]) / diff[f]
                        if lam is None:
                            lam = this
                        elif abs(this - lam) > 1e-9:
                            consistent = False
                            break
                    elif abs(row[f] - source[f]) > 1e-9:
                        consistent = False
                        break
                if consistent and (lam is None or -1e-9 <= lam <= 1 + 1e-9):
                    on_segment = True
                    break
            assert on_segment, (block, t)
    assert total == 10000
    ok("50 instances bit-identical to the brute-force oracle; convexity and "
       "bounding box hold on 10000 synthesized points")


def _scarce_problem(seed, dim=10):
    rng = np.random.default_rng(seed)
    centers = rng.random((2, dim))
    majority = np.clip(centers[0] + 0.08 * rng.standard_normal((160, dim)), 0, 1)
    scarce = np.clip(centers[1] + 0.05 * rng.standard_normal((64, dim)), 0, 1)
    features = np.concatenate([majority, scarce])
    labels = np.concatenate([np.zeros(160, dtype=np.int64), np.ones(64, dtype=np.int64)])
    san_model, _ = train_san(features, labels, SanConfig(epochs=15, seed=seed))
    return scarce, san_model


def test_c6_filter_soundness_on_trained_toy_gan():
    scarce, san_model = _scarce_problem(seed=0)
    model, _ = train_scgan(scarce, 1, san_model, ScganConfig(epochs=150, seed=0))
    policy = FilterPolicy(eta=0.45, max_attempt_factor=50)
    result = synthesize_to_target(model, san_model, scarce, 500, policy, seed=3)
    assert result.samples.shape[0] == 500
    assert result.samples.min() >= 0.0 and result.samples.max() <= 1.0
    rescored = model.discriminator.infer(
        np.concatenate([result.samples, result.conditions], axis=1))[:, 0]
    frac = float((rescored >= policy.eta).mean())
    assert frac == 1.0
    ok(f"500/500 kept samples re-score >= 0.45 (acceptance rate "
       f"{result.acceptance_rate:.0%}); outputs within [0, 1]")


def _acceptance_blobs(seed, dim=20, n_per=(150, 100, 60)):
    rng = np.random.default_rng(seed)
    centers = rng.random((3, dim))
    blocks, labels = [], []
    for i, n in enumerate(n_per):
        blocks.append(np.clip(centers[i] + 0.08 * rng.standard_normal((n, dim)), 0, 1))
        labels.append(np.full(n, i, dtype=np.int64))
    return np.concatenate(blocks), np.concatenate(labels)


def test_c7_san_loss_drop_and_embedding_separation():
    drops, separations = [], []
    for seed in (0, 1, 2):
        features, labels = _acceptance_blobs(seed)
        model, history = train_san(features, labels, SanConfig(epochs=20, seed=seed))
        drop = (history[0] - history[-1]) / history[0]
        drops.append(drop)
        assert drop >= 0.5, (seed, drop)

        held_x, held_y = _acceptance_blobs(seed + 50)
        codes = encode(model, held_x)
        rng = np.random.default_rng(seed)
        same, cross = [], []
        for _ in range(2000):
            i, j = rng.integers(0, held_x.shape[0], size=2)
            if i == j:
                continue
            dist = float(np.linalg.norm(codes[i] - codes[j]))
            (same if held_y[i] == held_y[j] else cross).append(dist)
        separations.append(np.mean(cross) / np.mean(same))
        assert np.mean(same) < np.mean(cross), seed
    ok(f"loss drops {[f'{d:.0%}' for d in drops]} over 20 epochs (need >= 50%); "
       f"cross/same embedding distance ratios {[f'{s:.2f}' for s in separations]}")


EFFICACY_FLAGS = ["--level-mode", "auto-gap", "--san-epochs", "25",
                  "--scgan-epochs", "600", "--clf-epochs", "25"]


def _quiet_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        return main(argv)


def _macro_and_majority(run_dir):
    with open(os.path.join(run_dir, "metrics", "metrics.json")) as fh:
        metrics = json.load(fh)
    return metrics["macro"]["f_beta"], metrics["f_beta"][0]


def test_c8_desk_scale_efficacy(tmp_path):
    gaps, degradations = [], []
    for seed in range(5):
        bench = tmp_path / f"bench{seed}.csv"
        assert _quiet_main(["synthbench", "--out", str(bench),
                            "--counts", "20000,150,12", "--dim", "20",
                            "--seed", str(seed)]) == 0
        scores = {}
        for method in ("baseline", "s2cgan"):
            out = tmp_path / f"seed{seed}-{method}"
            assert _quiet_main(["run-all", "--dataset", str(bench), "--out", str(out),
                                "--method", method, "--seed", str(seed),
                                *EFFICACY_FLAGS]) == 0
            scores[method] = _macro_and_majority(out)
        gaps.append(scores["s2cgan"][0] - scores["baseline"][0])
        degradations.append(scores["baseline"][1] - scores["s2cgan"][1])
    mean_gap = float(np.mean(gaps))
    mean_degradation = float(np.mean(degradations))
    assert mean_gap >= 0.10, gaps
    assert mean_degradation <= 0.02, degradations
    ok(f"mean macro F1 gain {mean_gap:+.3f} over 5 seeds (need >= +0.100); "
       f"mean majority F1 degradation {mean_degradation:+.4f} (cap 0.020)")


def test_c9_full_run_determinism(tmp_path):
    bench = tmp_path / "bench.csv"
    assert _quiet_main(["synthbench", "--out", str(bench), "--counts", "4000,100,10",
                        "--dim", "12", "--seed", "0"]) == 0
    flags = ["--level-mode", "auto-gap", "--san-epochs", "10", "--san-pairs", "256",
             "--scgan-epochs", "120", "--clf-epochs", "10"]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert _quiet_main(["run-all", "--dataset", str(bench), "--out", str(out),
                            "--method", "s2cgan", "--seed", "7", *flags]) == 0
        outputs.append(out)
    compared = ["augmented.csv", "metrics/per_class.csv", "metrics/aggregates.csv",
                "metrics/confusion.csv", "metrics/metrics.json", "metrics/summary.txt"]
    for name in compared:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    ok(f"two identical runs agree byte-for-byte on {len(compared)} artifacts "
       "(augmented dataset and every metric report)")
