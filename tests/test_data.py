import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabreg.data import Dataset
from slabreg.errors import DataError


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
