import re

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from fedbias.data import (
    Dataset,
    SyntheticSpec,
    class_distribution,
    generate_synthetic,
    load_csv,
    partition,
    save_csv,
    train_test_split,
)
from fedbias.exceptions import ConfigurationError, DataFormatError


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern matching ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


def small_spec(**overrides) -> SyntheticSpec:
    base = dict(
        num_classes=3,
        num_groups=2,
        feature_dim=4,
        samples_per_group=40,
        bias_strength=0.5,
        group_shift=1.0,
        noise_sigma=1.0,
        seed=11,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def random_dataset(rng: np.random.Generator, size: int) -> Dataset:
    num_classes = int(rng.integers(2, 5))
    num_groups = int(rng.integers(1, 4))
    dim = int(rng.integers(1, 5))
    return Dataset(
        rng.normal(size=(size, dim)),
        rng.integers(0, num_classes, size),
        rng.integers(0, num_groups, size),
        num_classes,
        num_groups,
    )


class TestSyntheticSpec:
    def test_rejects_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            small_spec(bias_strength=1.5)
        with pytest.raises(ConfigurationError):
            small_spec(bias_strength=-0.1)
        with pytest.raises(ConfigurationError):
            small_spec(group_shift=-1.0)
        with pytest.raises(ConfigurationError):
            small_spec(noise_sigma=0.0)
        with pytest.raises(ConfigurationError):
            small_spec(num_classes=1)
        with pytest.raises(ConfigurationError):
            small_spec(samples_per_group=0)

    def test_class_distribution_is_a_distribution(self):
        for beta in (0.0, 0.3, 1.0):
            spec = small_spec(bias_strength=beta)
            for g in range(spec.num_groups):
                probs = class_distribution(spec, g)
                assert probs.shape == (spec.num_classes,)
                assert np.all(probs >= 0.0)
                assert np.isclose(probs.sum(), 1.0)

    def test_class_distribution_peak(self):
        # Modal mass is uniform share plus the bias: 1/N + beta * (1 - 1/N).
        spec = small_spec(bias_strength=0.6)
        n = spec.num_classes
        for g in range(spec.num_groups):
            probs = class_distribution(spec, g)
            assert probs[g % n] == pytest.approx(1.0 / n + 0.6 * (1.0 - 1.0 / n))

    def test_beta_zero_is_uniform(self):
        spec = small_spec(bias_strength=0.0)
        for g in range(spec.num_groups):
            assert np.allclose(class_distribution(spec, g), 1.0 / spec.num_classes)


class TestGenerateSynthetic:
    def test_shape_and_group_presence(self):
        spec = small_spec()
        ds = generate_synthetic(spec)
        assert len(ds) == spec.samples_per_group * spec.num_groups
        assert ds.feature_dim == spec.feature_dim
        assert set(np.unique(ds.groups)) == set(range(spec.num_groups))
        counts = np.bincount(ds.groups, minlength=spec.num_groups)
        assert np.all(counts == spec.samples_per_group)

    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.groups, b.groups)

    def test_different_seed_differs(self):
        a = generate_synthetic(small_spec(seed=1))
        b = generate_synthetic(small_spec(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_full_bias_modal_class(self):
        spec = small_spec(bias_strength=1.0, samples_per_group=100)
        ds = generate_synthetic(spec)
        for g in range(spec.num_groups):
            labels = ds.labels[ds.groups == g]
            # beta = 1 concentrates all label mass on class g mod N.
            assert np.all(labels == g % spec.num_classes)

    def test_no_bias_no_shift_group_class_independence(self):
        spec = small_spec(
            num_classes=2,
            num_groups=2,
            bias_strength=0.0,
            group_shift=0.0,
            samples_per_group=2500,
            seed=5,
        )
        ds = generate_synthetic(spec)
        table = np.zeros((spec.num_groups, spec.num_classes))
        for g in range(spec.num_groups):
            table[g] = np.bincount(ds.labels[ds.groups == g], minlength=spec.num_classes)
        result = chi2_contingency(table)
        assert result.pvalue >= 0.01


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path, ds.num_classes, ds.num_groups)
        assert np.array_equal(ds.features, loaded.features)
        assert np.array_equal(ds.labels, loaded.labels)
        assert np.array_equal(ds.groups, loaded.groups)

    def test_header_format(self, tmp_path):
        ds = generate_synthetic(small_spec(feature_dim=2))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "feature_0,feature_1,target,group"

    def test_empty_data_section_is_valid(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("feature_0,feature_1,target,group\n", encoding="utf-8")
        ds = load_csv(path, 2, 2)
        assert len(ds) == 0
        assert ds.feature_dim == 2

    def test_out_of_range_group_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "feature_0,target,group\n0.5,0,0\n0.5,0,2\n",
            encoding="utf-8",
        )
        message = f"{path}: line 3: group 2 out of range [0, 2)"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    def test_out_of_range_target_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,target,group\n0.5,5,0\n", encoding="utf-8")
        message = f"{path}: line 2: target 5 out of range [0, 2)"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,target,group\n0.5,0\n", encoding="utf-8")
        message = f"{path}: line 2: expected 3 columns, found 2"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    def test_unparseable_float_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,target,group\nabc,0,0\n", encoding="utf-8")
        message = f"{path}: line 2: could not convert string to float: 'abc'"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"feature_0,feature_1,target,group\n0.5,1,0,0\n0.5,2,1,1\n0.5,{cell},0,1\n0.5,3,0,0\n",
            encoding="utf-8",
        )
        message = f"{path}: line 4: non-finite feature value"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label,grp\n", encoding="utf-8")
        message = f"{path}: line 1: header must end with 'target,group'"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", 2, 2)


def multiset(ds: Dataset) -> list[tuple]:
    return sorted(
        (tuple(ds.features[i]), int(ds.labels[i]), int(ds.groups[i]))
        for i in range(len(ds))
    )


class TestPartition:
    def test_even_split(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 10)
        parts = partition(ds, 5, seed=3)
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]

    def test_remainder_split(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 11)
        parts = partition(ds, 5, seed=3)
        assert sorted(len(p) for p in parts) == [2, 2, 2, 2, 3]

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 23)
        parts = partition(ds, 4, seed=7)
        merged = []
        for p in parts:
            merged.extend(multiset(p))
        assert sorted(merged) == multiset(ds)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 17)
        a = partition(ds, 3, seed=9)
        b = partition(ds, 3, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.features, pb.features)

    def test_too_few_samples(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 3)
        with pytest.raises(ConfigurationError):
            partition(ds, 4, seed=0)


class TestTrainTestSplit:
    def test_80_20(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 100)
        train, test = train_test_split(ds, 0.2, seed=1)
        assert len(train) == 80
        assert len(test) == 20

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 53)
        train, test = train_test_split(ds, 0.3, seed=2)
        assert sorted(multiset(train) + multiset(test)) == multiset(ds)

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 40)
        a_train, a_test = train_test_split(ds, 0.25, seed=8)
        b_train, b_test = train_test_split(ds, 0.25, seed=8)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_fraction_bounds(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 10)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ConfigurationError):
                train_test_split(ds, bad, seed=0)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0, 3], [0, 0], 2, 2)

    def test_group_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0, 1], [0, 2], 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0], [0, 0], 2, 2)

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 1)])
    def test_features_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(shape), [0] * 5, [0] * 5, 2, 1)

    def test_non_integer_labels_or_groups_rejected(self):
        with pytest.raises(ValueError, match="labels must hold integers"):
            Dataset(np.zeros((2, 2)), [0.7, 1.9], [0, 0], 2, 1)
        with pytest.raises(ValueError, match="groups must hold integers"):
            Dataset(np.zeros((2, 2)), [0, 1], np.array([0.0, 1.0]), 2, 2)

    def test_any_integer_kind_accepted(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1], dtype=np.uint8), [1, 0], 2, 2)
        assert ds.labels.dtype == ds.groups.dtype == np.int64
