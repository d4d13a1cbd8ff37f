import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsaug import leveling
from idsaug.errors import ConfigError, DataError, PolicyError

from cicids_reference import (
    FULL_COUNTS,
    PUBLISHED_IRS,
    PUBLISHED_LEVELS,
    TRAIN_COUNTS,
)

NAMES = sorted(FULL_COUNTS)
IDS = {name: i for i, name in enumerate(NAMES)}


def by_id(mapping):
    return {IDS[name]: value for name, value in mapping.items()}


class TestImbalanceRatios:
    def test_majority_class_ratio_is_one(self):
        irs = leveling.imbalance_ratios({0: 100, 1: 10})
        assert irs[0] == 1.0

    def test_full_dataset_ratios_match_published_within_half_percent(self):
        irs = leveling.imbalance_ratios(by_id(FULL_COUNTS))
        for name, published in PUBLISHED_IRS.items():
            got = irs[IDS[name]]
            assert abs(got - published) / published < 0.005, (name, got, published)

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            leveling.imbalance_ratios({0: 10, 1: 0})

    @given(st.dictionaries(st.integers(0, 8), st.integers(1, 10**6), min_size=1))
    def test_ratios_at_least_one(self, counts):
        irs = leveling.imbalance_ratios(counts)
        assert all(v >= 1.0 for v in irs.values())


class TestPartition:
    def test_published_ratio_levels_with_default_thresholds(self):
        part = leveling.partition(by_id(PUBLISHED_IRS), leveling.LevelThresholds())
        for name, expected in PUBLISHED_LEVELS.items():
            assert part.levels[IDS[name]] == expected, name

    def test_equal_counts_are_all_ample(self):
        irs = leveling.imbalance_ratios({0: 7, 1: 7, 2: 7})
        part = leveling.partition(irs, leveling.LevelThresholds())
        assert set(part.levels.values()) == {leveling.AMPLE}

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigError):
            leveling.LevelThresholds(scarce_min_ir=100.0, rare_min_ir=100.0)

    def test_auto_gap_reproduces_published_grouping(self):
        irs = by_id(PUBLISHED_IRS)
        part = leveling.partition(irs, leveling.LevelThresholds(mode="auto-gap"))
        # oracle: brute-force scan over consecutive gaps of sorted log ratios
        logs = sorted((math.log10(v), c) for c, v in irs.items())
        gaps = [(logs[i + 1][0] - logs[i][0], i) for i in range(len(logs) - 1)]
        first, second = sorted(sorted(gaps, key=lambda g: -g[0])[:2], key=lambda g: g[1])
        expected = {}
        for pos, (_, class_id) in enumerate(logs):
            if pos <= first[1]:
                expected[class_id] = leveling.AMPLE
            elif pos <= second[1]:
                expected[class_id] = leveling.SCARCE
            else:
                expected[class_id] = leveling.RARE
        assert part.levels == expected
        for name, level in PUBLISHED_LEVELS.items():
            assert part.levels[IDS[name]] == level

    def test_auto_gap_with_two_classes_falls_back_to_ample(self):
        with pytest.warns(UserWarning, match="at least 3 classes"):
            part = leveling.partition({0: 1.0, 1: 50.0},
                                      leveling.LevelThresholds(mode="auto-gap"))
        assert set(part.levels.values()) == {leveling.AMPLE}

    def test_auto_gap_with_equal_ratios_falls_back_to_ample(self):
        with pytest.warns(UserWarning, match="equal"):
            part = leveling.partition({0: 1.0, 1: 1.0, 2: 1.0},
                                      leveling.LevelThresholds(mode="auto-gap"))
        assert set(part.levels.values()) == {leveling.AMPLE}

    def test_auto_gap_with_single_usable_gap_has_no_rare(self):
        irs = {0: 1.0, 1: 1.0, 2: 1000.0}
        with pytest.warns(UserWarning, match="single usable gap"):
            part = leveling.partition(irs, leveling.LevelThresholds(mode="auto-gap"))
        assert part.levels[0] == leveling.AMPLE
        assert part.levels[1] == leveling.AMPLE
        assert part.levels[2] == leveling.SCARCE

    @settings(max_examples=30)
    @given(st.dictionaries(st.integers(0, 6), st.integers(1, 10**6), min_size=1),
           st.integers(2, 1000))
    def test_scale_invariance(self, counts, factor):
        irs_base = leveling.imbalance_ratios(counts)
        irs_scaled = leveling.imbalance_ratios({c: n * factor for c, n in counts.items()})
        thresholds = leveling.LevelThresholds()
        assert irs_base == pytest.approx(irs_scaled)
        assert (leveling.partition(irs_base, thresholds).levels
                == leveling.partition(irs_scaled, thresholds).levels)

    @given(st.dictionaries(st.integers(0, 6), st.integers(1, 10**6), min_size=2))
    def test_monotone_severity(self, counts):
        irs = leveling.imbalance_ratios(counts)
        part = leveling.partition(irs, leveling.LevelThresholds())
        severity = {leveling.AMPLE: 0, leveling.SCARCE: 1, leveling.RARE: 2}
        items = sorted(counts.items(), key=lambda kv: kv[1])
        for (small, n_small), (big, n_big) in zip(items, items[1:]):
            assert irs[small] >= irs[big]
            assert severity[part.levels[small]] >= severity[part.levels[big]]


class TestTargets:
    def _partition(self, counts):
        irs = leveling.imbalance_ratios(counts)
        return leveling.partition(irs, leveling.LevelThresholds())

    def test_published_train_counts_give_published_targets(self):
        counts = by_id(TRAIN_COUNTS)
        part = leveling.partition(by_id(PUBLISHED_IRS), leveling.LevelThresholds())
        targets = leveling.augmentation_targets(part, counts)
        for name in ("Patator", "Web Attack", "Bot"):
            assert targets[IDS[name]] == 127144
        for name in ("Infiltration", "Heartbleed"):
            assert targets[IDS[name]] == 1573
        for name in ("BENIGN", "DoS/DDoS", "PortScan"):
            assert targets[IDS[name]] == counts[IDS[name]]

    def test_all_ample_targets_equal_counts(self):
        counts = {0: 50, 1: 40, 2: 60}
        targets = leveling.augmentation_targets(self._partition(counts), counts)
        assert targets == counts

    def test_no_ample_class_is_a_policy_error(self):
        part = leveling.LevelPartition({0: leveling.SCARCE, 1: leveling.RARE},
                                       {0: 150.0, 1: 20000.0}, 0,
                                       leveling.LevelThresholds())
        with pytest.raises(PolicyError):
            leveling.augmentation_targets(part, {0: 100, 1: 3})

    def test_rare_without_scarce_falls_back_to_min_ample(self):
        part = leveling.LevelPartition({0: leveling.AMPLE, 1: leveling.RARE},
                                       {0: 1.0, 1: 20000.0}, 0,
                                       leveling.LevelThresholds())
        with pytest.warns(UserWarning, match="no scarce class"):
            targets = leveling.augmentation_targets(part, {0: 5000, 1: 3})
        assert targets[1] == 5000

    def test_targets_never_below_counts(self):
        # a scarce class larger than the smallest ample class keeps its count
        part = leveling.LevelPartition(
            {0: leveling.AMPLE, 1: leveling.SCARCE}, {0: 1.0, 1: 120.0}, 0,
            leveling.LevelThresholds())
        targets = leveling.augmentation_targets(part, {0: 100, 1: 400})
        assert targets[1] == 400

    @settings(max_examples=30)
    @given(st.lists(st.integers(1, 10**6), min_size=2, max_size=8))
    def test_target_consistency(self, raw_counts):
        counts = dict(enumerate(raw_counts))
        part = self._partition(counts)
        targets = leveling.augmentation_targets(part, counts)
        ample = part.classes_at(leveling.AMPLE)
        scarce = part.classes_at(leveling.SCARCE)
        min_ample = min(counts[c] for c in ample)
        for c in scarce:
            assert targets[c] == max(min_ample, counts[c])
        if scarce:
            min_scarce = min(counts[c] for c in scarce)
            for c in part.classes_at(leveling.RARE):
                assert targets[c] == max(min_scarce, counts[c])
        for c, t in targets.items():
            assert t >= counts[c]


class TestReport:
    def test_report_files(self, tmp_path):
        counts = {0: 1000, 1: 8, 2: 90}
        irs = leveling.imbalance_ratios(counts)
        part = leveling.partition(irs, leveling.LevelThresholds(10, 100))
        targets = leveling.augmentation_targets(part, counts)
        rows = leveling.build_level_report(counts, part, targets,
                                           {0: "benign", 1: "rare", 2: "mid"})
        csv_path = tmp_path / "levels.csv"
        txt_path = tmp_path / "levels.txt"
        leveling.write_level_report(csv_path, txt_path, rows)
        text = csv_path.read_text()
        assert text.startswith("class,count,imbalance_ratio,level,target")
        assert "benign" in text and "rare" in text
        assert "level" in txt_path.read_text()
