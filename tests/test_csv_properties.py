"""Property tests of the CSV readers and writer against their
one-cell-at-a-time forms in ``oracles``: the dataset reader's
``np.loadtxt`` path and its fallback, and the prediction-log reader, must
accept, return and reject exactly what the oracles do (the log reader
also checks ranges), and the writer must write the same bytes."""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbias import data as data_module
from fedbias.data import Dataset, load_csv, save_csv
from fedbias.exceptions import DataFormatError
from fedbias.metrics import load_prediction_log
from oracles import reference_load_csv, reference_load_prediction_log, reference_save_csv

# Finite doubles where repr changes form: +-0, subnormals, and the exponent
# switches at 1e16 and 1e-4.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
    0.00010000000000000002, 1.7976931348623157e308,
]

# Line breaks that str.splitlines honours besides LF.
LINE_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]

# Cells that float() or int() read differently from np.loadtxt, that
# only one of them accepts, or that are out of range as a class or group.
ODD_CELLS = [
    "-1", "9", "1_0", "\u0663", "\u0661.5", "3.0", "1e0", "99999999999999999999",
    "-9223372036854775809", "9223372036854775807", "nan", "inf", "-Infinity", "1e999",
    "", " ", "-", "+7", "007", " 1 ", "\t0", "\x1f2", "0x10", "1\x00",
]


def random_bit_floats() -> st.SearchStrategy[float]:
    """Doubles from random bit patterns (NaN and infinity included), the
    edge values above, and values near repr's exponent switches."""
    bits = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
    near_switch = st.tuples(
        st.sampled_from([1.0, -1.0]), st.sampled_from([1e16, 1e-4]), st.floats(0.5, 2.0)
    ).map(math.prod)
    return st.one_of(bits, st.sampled_from(EDGE_FLOATS), near_switch)


@st.composite
def csv_text(draw, header: list[str], cells: st.SearchStrategy) -> str:
    """``header`` and rows of drawn cells as text, with up to four of these
    mutations: rows cut off (down to the header alone), a blank line, a
    missing or extra cell, a trailing comma, an odd or padded cell; and at
    times line breaks other than LF, or no final newline."""
    rows = [list(row) for row in draw(st.lists(cells, min_size=1, max_size=6))]
    mutations = draw(st.integers(0, 4)) if draw(st.booleans()) else 0
    for _ in range(mutations):
        kind = draw(st.sampled_from(["cut", "blank", "drop", "extra", "comma", "odd", "pad"]))
        if kind == "cut":
            del rows[draw(st.integers(0, len(rows))) :]
            continue
        if kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
            continue
        filled = [r for r in rows if r]
        if not filled:
            continue
        row = draw(st.sampled_from(filled))
        j = draw(st.integers(0, len(row) - 1))
        if kind == "drop":
            del row[j]
        elif kind == "extra":
            row.insert(j, "0")
        elif kind == "comma":
            row.append("")
        elif kind == "odd":
            row[j] = draw(st.sampled_from(ODD_CELLS))
        else:
            row[j] = draw(st.sampled_from([" ", "\t", "\x1f"])) + row[j] + draw(
                st.sampled_from(["", " ", "\t"])
            )
    lines = [",".join(header)] + [",".join(row) for row in rows]
    breaks = ["\n"] * len(lines)
    if draw(st.integers(0, 3)) == 0:
        breaks = [draw(st.sampled_from(["\n", *LINE_BREAKS])) for _ in lines]
    if draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


def outcome(fn, *args):
    """The call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # of any type: the type is compared too
        return type(exc), str(exc)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "file.csv"


@st.composite
def dataset_files(draw):
    """(text, num_classes, num_groups) of a dataset CSV, mostly well formed."""
    m = draw(st.integers(1, 3))
    num_classes = draw(st.integers(1, 4))
    num_groups = draw(st.integers(1, 3))
    floats = random_bit_floats().map(repr)
    label = st.integers(0, num_classes - 1).map(str)
    group = st.integers(0, num_groups - 1).map(str)
    cells = st.tuples(*([floats] * m), label, group)
    header = [f"feature_{j}" for j in range(m)] + ["target", "group"]
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from([header[:-1], header[1:], [" " + header[0], *header[1:]]]))
    return draw(csv_text(header, cells)), num_classes, num_groups


@settings(deadline=None, max_examples=300)
@given(dataset_files())
@example(("", 2, 2))
@example(("feature_0,target,group\n\n", 2, 2))
@example(("feature_0,target,group\n0.5,0,0\n\n0.5,1,0\n", 2, 2))
@example(("feature_0,target,group\n0.5,0,0\n\r0.5,0,0\n", 2, 2))
@example(("feature_0,target,group\n0.5,0,0\x85\n", 2, 2))
@example(("feature_0,target,group\n\x1f0.5,0,0\n", 2, 2))
def test_load_csv_matches_per_line_reader(scratch, case):
    text, num_classes, num_groups = case
    scratch.write_bytes(text.encode("utf-8"))
    got = outcome(load_csv, scratch, num_classes, num_groups)
    want = outcome(reference_load_csv, scratch, num_classes, num_groups)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset), got
        assert same_bits(got.features, want.features)
        assert got.features.flags.c_contiguous
        assert same_bits(got.labels, want.labels)
        assert same_bits(got.groups, want.groups)
    else:
        assert got == want


@st.composite
def prediction_log_files(draw):
    """(text, num_classes, num_groups) of a prediction log, mostly well formed."""
    num_classes = draw(st.integers(1, 4))
    num_groups = draw(st.integers(1, 3))
    label = st.integers(0, num_classes - 1).map(str)
    group = st.integers(0, num_groups - 1).map(str)
    header = draw(
        st.sampled_from(
            [["predicted", "actual", "group"], [" predicted", "actual ", "group"], ["a", "b", "c"]]
        )
    )
    return draw(csv_text(header, st.tuples(label, label, group))), num_classes, num_groups


@settings(deadline=None, max_examples=300)
@given(prediction_log_files())
@example(("", 2, 2))
@example(("predicted,actual,group\n\n", 2, 2))
@example(("predicted,actual,group\n0,0,0\n\r0,0,0\n", 2, 2))
@example(("predicted,actual,group\n0,0,0\u2028\n", 2, 2))
@example(("predicted,actual,group\n0,\x1f1,0\n", 2, 2))
def test_load_prediction_log_matches_per_line_reader(scratch, case):
    text, num_classes, num_groups = case
    scratch.write_bytes(text.encode("utf-8"))
    got = outcome(load_prediction_log, scratch, num_classes, num_groups)
    want = outcome(reference_load_prediction_log, scratch)
    if isinstance(want[0], type):
        assert got == want
        return
    # The oracle leaves ranges to tally; the reader names the first line
    # holding a cell out of range, and the first such column in it.
    limits = {"predicted": num_classes, "actual": num_classes, "group": num_groups}
    bad = next(
        (
            (i + 2, name, int(value))
            for i, row in enumerate(zip(*want))
            for name, value in zip(limits, row)
            if not 0 <= value < limits[name]
        ),
        None,
    )
    if bad is not None:
        lineno, name, value = bad
        message = f"{scratch}: line {lineno}: {name} {value} out of range [0, {limits[name]})"
        assert got == (DataFormatError, message)
        return
    assert isinstance(got, tuple) and len(got) == 3
    for a, b in zip(got, want):
        assert same_bits(a, b)


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.tuples(*([random_bit_floats()] * m)), max_size=8)
    ),
    st.data(),
)
def test_save_csv_writes_oracle_bytes(scratch, rows, data):
    m = len(rows[0]) if rows else data.draw(st.integers(1, 4))
    n = len(rows)
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    groups = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    dataset = Dataset(np.array(rows, dtype=np.float64).reshape(n, m), labels, groups, 3, 2)
    save_csv(dataset, scratch)
    written = scratch.read_bytes()
    reference_save_csv(dataset, scratch)
    assert written == scratch.read_bytes()
    if all(math.isfinite(v) for row in rows for v in row):
        loaded = load_csv(scratch, 3, 2)
        assert same_bits(loaded.features, dataset.features)
        assert same_bits(loaded.labels, dataset.labels)
        assert same_bits(loaded.groups, dataset.groups)


def test_well_formed_dataset_takes_the_fast_path(tmp_path, monkeypatch):
    def refuse(path, *args):
        raise AssertionError(f"{path} went to the per-line reader")

    monkeypatch.setattr(data_module, "_parse_csv_lines", refuse)
    rng = np.random.default_rng(3)
    labels, groups = rng.integers(0, 2, 50), rng.integers(0, 3, 50)
    dataset = Dataset(rng.normal(size=(50, 3)), labels, groups, 2, 3)
    save_csv(dataset, tmp_path / "data.csv")
    assert same_bits(load_csv(tmp_path / "data.csv", 2, 3).features, dataset.features)


def test_int_via_float_deprecation_falls_back(tmp_path, monkeypatch):
    # NumPy releases that still parse "3.0" into an int64 column warn and
    # return 3; the per-line reader must then judge the file, as int() does.
    def old_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
        return np.zeros(1, dtype=kwargs["dtype"])

    monkeypatch.setattr(data_module.np, "loadtxt", old_loadtxt)
    path = tmp_path / "data.csv"
    path.write_text("feature_0,target,group\n0.5,3.0,0\n", encoding="utf-8")
    message = f"{path}: line 2: invalid literal for int() with base 10: '3.0'"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        load_csv(path, 4, 1)
