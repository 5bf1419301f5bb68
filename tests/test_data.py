import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabreg import data
from slabreg.data import Dataset
from slabreg.errors import DataError
from slabreg.moments import load_gram_csv


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(0, 3), d=st.integers(1, 3), labels=st.booleans())
def test_sample_sizes_follow_from_the_shapes(n, k, d, labels):
    hidden = np.zeros(k * n) if labels else None
    ds = Dataset(x=np.zeros(((k + 1) * n, d)), y=np.zeros(n), hidden_y=hidden)
    assert (ds.n_train, ds.k_test, ds.n_test) == (n, k, k * n)
    assert ds.x.shape == ((k + 1) * n, d)


@pytest.mark.parametrize(
    "x,y,hidden_y,message",
    [
        (np.zeros((4, 1)), np.empty(0), None, "nonempty vector"),
        (np.zeros((4, 1)), np.zeros((4, 1)), None, "nonempty vector"),
        (np.zeros((5, 1)), np.zeros(2), None, "not a positive multiple of N = 2"),
        (np.zeros((1, 1)), np.zeros(2), None, "not a positive multiple of N = 2"),
        (np.zeros((0, 1)), np.zeros(2), None, "not a positive multiple of N = 2"),
        (np.zeros((6, 1)), np.zeros(2), np.zeros(2), r"hidden labels must have shape \(4,\)"),
        (np.zeros((2, 1)), np.zeros(2), np.zeros(1), r"hidden labels must have shape \(0,\)"),
    ],
    ids=["empty-y", "2d-y", "not-a-multiple", "fewer-rows", "no-rows", "short-hidden", "hidden-without-test"],
)
def test_inconsistent_shapes_are_data_errors(x, y, hidden_y, message):
    with pytest.raises(DataError, match=message):
        Dataset(x=x, y=y, hidden_y=hidden_y)


def _load(tmp_path, text, labeled):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    return (data.load_labeled_csv if labeled else data.load_unlabeled_csv)(path)


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize(
    "rows,message",
    [
        ("0.1,1.0\n0.2,3.0,4.0\n", "row 3: expected {w} fields, got 3"),
        ("0.1,1.0\n0.2,nan\n", "row 3: non-finite value"),
        ("0.1,1.0\n0.2,inf\n", "row 3: non-finite value"),
        ("0.1,1.0\n0.2,-inf\n", "row 3: non-finite value"),
        ("0.1,1.0\n0.2,1e999\n", "row 3: non-finite value"),
        ("\n\n0.1,1.0\n\n0.2,nan\n", "row 6: non-finite value"),
        ("\n0.1,1.0\n\n\n0.2\n", "row 6: expected {w} fields, got 1"),
        ("0.1,inf\n0.2,abc\n", "row 2: non-finite value"),
        ("0.1,1.0\nnan,abc\n", "row 3: malformed number 'abc'"),
    ],
    ids=["field-count", "nan", "inf", "-inf", "overflow", "nan-past-blanks", "count-past-blanks",
         "non-finite-row-first", "malformed-within-row-first"],
)
def test_csv_rows_report_the_first_bad_file_line(tmp_path, labeled, rows, message):
    # header on line 1; the unlabeled header is widened to keep the rows' two fields
    header = "x1,y\n" if labeled else "x1,x2\n"
    with pytest.raises(DataError, match=message.format(w=2)):
        _load(tmp_path, header + rows, labeled)


@pytest.mark.parametrize("load", [data.load_labeled_csv, data.load_unlabeled_csv, load_gram_csv])
@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_a_path_that_cannot_be_opened_is_a_data_error_naming_it(tmp_path, load, missing):
    path = tmp_path / "rows.csv" if missing else tmp_path
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: cannot open: "):
        load(path)


def test_csv_values_are_the_doubles_float_reads(tmp_path):
    fields = ["-0.0", "4.9e-324", "2.2250738585072014e-308", "0.1", " 1e308", "-7", "3.141592653589793", "1E-5"]
    text = "x1,x2\n" + "\n".join(",".join(pair) for pair in zip(fields[::2], fields[1::2])) + "\n"
    x = _load(tmp_path, text, labeled=False)
    assert x.shape == (4, 2) and x.dtype == np.float64
    assert x.tobytes() == np.array([float(v) for v in fields]).tobytes()
    x, y = _load(tmp_path, text.replace("x1,x2", "x1,y"), labeled=True)
    assert x.shape == (4, 1) and y.shape == (4,)
    assert x[:, 0].tobytes() + y.tobytes() == np.array([float(v) for v in fields[::2] + fields[1::2]]).tobytes()
    empty = _load(tmp_path, "x1,x2\n", labeled=False)
    assert empty.shape == (0, 2)
