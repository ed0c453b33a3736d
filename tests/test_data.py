import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

import fedbias.data as data_module
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
from oracles import reference_generate_synthetic


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
        with pytest.raises(ConfigurationError, match="num_groups"):
            small_spec(num_groups=0)
        with pytest.raises(ConfigurationError, match="feature_dim"):
            small_spec(feature_dim=0)
        for name in ("bias_strength", "group_shift", "noise_sigma"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigurationError, match=exactly(f"{name} must be finite")):
                    small_spec(**{name: value})

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

    @pytest.mark.parametrize("name", ["group_shift", "noise_sigma"])
    def test_non_finite_draw_is_refused(self, name):
        # Each value is finite, but at seed 0 some feature it scales
        # overflows; no CSV could hold it.
        message = "the draw has non-finite features: group_shift or noise_sigma is too large"
        with pytest.raises(ConfigurationError, match=exactly(message)):
            generate_synthetic(small_spec(seed=0, **{name: 1e308}))

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            SyntheticSpec,
            num_classes=st.integers(2, 5),
            num_groups=st.integers(1, 4),
            feature_dim=st.integers(1, 6),
            samples_per_group=st.integers(1, 30),
            bias_strength=st.floats(0, 1),
            group_shift=st.one_of(st.floats(0, 4), st.just(1e308)),
            noise_sigma=st.one_of(st.floats(1e-3, 4), st.just(1e308)),
            seed=st.integers(0, 2**32),
        )
    )
    @example(small_spec(seed=0, group_shift=1e308))  # overflows
    def test_matches_the_list_and_concatenate_oracle(self, spec):
        try:
            want = reference_generate_synthetic(spec)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError, match=exactly(str(exc))):
                generate_synthetic(spec)
            return
        got = generate_synthetic(spec)
        assert got.features.flags.c_contiguous
        for name in ("features", "labels", "groups"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert (got.num_classes, got.num_groups) == (want.num_classes, want.num_groups)


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

    # A CR sends a file to the per-line reader, which range-checks each
    # line as it parses it; an LF-only file is checked from its arrays.
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_out_of_range_group_names_line(self, tmp_path, eol):
        path = tmp_path / "bad.csv"
        path.write_text(
            "feature_0,target,group\n0.5,0,0\n0.5,0,2\n",
            encoding="utf-8",
            newline=eol,
        )
        message = f"{path}: line 3: group 2 out of range [0, 2)"
        with pytest.raises(DataFormatError, match=exactly(message)):
            load_csv(path, 2, 2)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_out_of_range_target_names_line(self, tmp_path, eol):
        path = tmp_path / "bad.csv"
        path.write_text("feature_0,target,group\n0.5,5,0\n", encoding="utf-8", newline=eol)
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

    def test_no_clients(self):
        ds = random_dataset(np.random.default_rng(4), 3)
        with pytest.raises(ConfigurationError, match=exactly("num_clients must be >= 1")):
            partition(ds, 0, seed=0)


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

    @pytest.mark.parametrize("num_classes, num_groups", [(0, 1), (2, 0)])
    def test_class_and_group_counts_must_be_positive(self, num_classes, num_groups):
        with pytest.raises(ValueError, match="must be positive"):
            Dataset(np.zeros((1, 2)), [0], [0], num_classes, num_groups)

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

    @pytest.mark.parametrize(
        "build",
        [
            "constructor",
            "subset",
            "partition",
            "train_test_split",
            "generate_synthetic",
            "load_csv_fast",
            "load_csv_per_line",
        ],
    )
    def test_every_dataset_is_read_only(self, build, tmp_path, monkeypatch):
        # The constructor's range checks are the only target checks, so no
        # way of building a dataset may leave its arrays writable.
        rng = np.random.default_rng(5)
        source = (rng.normal(size=(6, 2)), rng.integers(0, 2, 6), rng.integers(0, 3, 6))
        base = Dataset(*source, 2, 3)
        path = tmp_path / "data.csv"
        save_csv(base, path)
        if build == "load_csv_per_line":
            # A CR byte sends the file to the per-line reader.
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        per_line = []
        real = data_module._parse_csv_lines
        monkeypatch.setattr(
            data_module, "_parse_csv_lines", lambda *args: per_line.append(args) or real(*args)
        )
        built = {
            "constructor": lambda: base,
            "subset": lambda: base.subset(np.arange(3)),
            "partition": lambda: partition(base, 2, seed=0)[1],
            "train_test_split": lambda: train_test_split(base, 0.5, seed=0)[0],
            "generate_synthetic": lambda: generate_synthetic(small_spec()),
            "load_csv_fast": lambda: load_csv(path, 2, 3),
            "load_csv_per_line": lambda: load_csv(path, 2, 3),
        }[build]()
        assert bool(per_line) == (build == "load_csv_per_line")
        for name in ("features", "labels", "groups"):
            array = getattr(built, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="^assignment destination is read-only$"):
                array[0] = 1
        # The caller's own arrays stay writable. The constructor takes a view
        # of the features and copies of the labels and groups, the arrays
        # its range check covers.
        for array in source:
            array[0] = 1
        assert np.shares_memory(source[0], base.features)
        assert not np.shares_memory(source[1], base.labels)
        assert not np.shares_memory(source[2], base.groups)

    def test_a_subset_keeps_its_parents_targets_without_a_copy(self):
        # The parent checked its targets and keeps them read-only, so a
        # subset need not copy or scan them again.
        base = Dataset(np.zeros((5, 2)), [0, 1, 1, 0, 1], [2, 0, 1, 1, 0], 2, 3)
        sub = base.subset(slice(1, 4))
        assert sub.labels.tolist() == [1, 1, 0] and sub.groups.tolist() == [0, 1, 1]
        assert np.shares_memory(sub.labels, base.labels)
        assert np.shares_memory(sub.groups, base.groups)
        assert not sub.labels.flags.writeable and not sub.groups.flags.writeable

    def test_targets_written_into_the_callers_arrays_do_not_reach_it(self):
        # A -1 written after the range check would otherwise train as the
        # last class on the grouped head.
        labels, groups = np.array([0, 1, 1]), np.array([1, 0, 1])
        ds = Dataset(np.zeros((3, 2)), labels, groups, 2, 2)
        labels[1], groups[0] = -1, 7
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.groups.tolist() == [1, 0, 1]


def traced_peak(fn):
    """``fn()``, and the most bytes it held at once beyond those live before
    it, as ``tracemalloc`` counts them. A first, untraced call leaves out
    one-time costs such as imports and caches."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    # 4 groups x 2000 rows x 32 features: 2 MB of features.
    SPEC = SyntheticSpec(num_classes=2, num_groups=4, feature_dim=32, samples_per_group=2000)

    def test_generate_synthetic_holds_its_features_once(self):
        # Each group's rows are written in place, so beyond the features the
        # draw holds one group's temporaries at a time.
        ds, peak = traced_peak(lambda: generate_synthetic(self.SPEC))
        assert peak <= 2 * ds.features.nbytes

    def test_load_csv_holds_its_file_one_block_at_a_time(self, tmp_path):
        # The file is checked in blocks; what is left is np.loadtxt's records
        # and the arrays copied out of them.
        path = tmp_path / "data.csv"
        save_csv(generate_synthetic(self.SPEC), path)
        ds, peak = traced_peak(lambda: load_csv(path, 2, 4))
        assert peak <= 3 * sum(a.nbytes for a in (ds.features, ds.labels, ds.groups))
