import csv
import math
import tracemalloc

import numpy as np
import pytest

from slabreg import selector
from slabreg.dictionary import as_points


def write_labeled_csv(path, x, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(1, x.shape[1] + 1)] + ["y"])
        for row, label in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])


def write_unlabeled_csv(path, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(1, x.shape[1] + 1)])
        for row in x:
            writer.writerow([repr(float(v)) for v in row])


def binomial_slack(p: float, n: int, z: float = 3.0) -> float:
    return z * math.sqrt(p * (1.0 - p) / n)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the tracemalloc peak, in bytes, of one call ``fn()``."""

    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


class EvaluationLog:
    """The points of every recorded ``evaluate`` call, as (n, d) arrays."""

    def __init__(self):
        self.calls = []

    @property
    def rows(self):
        """The number of points of each call, in call order."""
        return [points.shape[0] for points in self.calls]

    def pop_sample(self, x, n_train):
        """Check that the next calls evaluate the sample ``x`` exactly once:
        its test block in one call, then its training rows in order, in as
        many blocks as they come. The checked calls are removed."""
        x = as_points(x)
        assert np.array_equal(self.calls.pop(0), x[n_train:])
        done = 0
        while done < n_train:
            block = self.calls.pop(0)
            assert block.shape[0] and np.array_equal(block, x[done : done + block.shape[0]])
            done += block.shape[0]


@pytest.fixture
def evaluations(monkeypatch):
    """``evaluations(cls)``: an ``EvaluationLog`` of the points that every
    ``cls.evaluate`` call receives from now on."""

    def record(cls):
        log = EvaluationLog()
        evaluate = cls.evaluate

        def recorded(self, points):
            log.calls.append(as_points(points).copy())
            return evaluate(self, points)

        monkeypatch.setattr(cls, "evaluate", recorded)
        return log

    return record


@pytest.fixture(scope="session")
def project():
    """``project(c, k, centers, moments, radius)``: c projected onto feature
    k's slab by the projection loop itself (one GreedyMax step with k the
    only active feature), as ``(new c, delta, gamma)`` from the step's
    record; delta is 0.0 and gamma None when c already lies in the slab,
    where the loop records no step."""

    def step(c, k, centers, moments, radius):
        active = np.arange(centers.shape[0]) == k
        c, trace = selector._iterate(centers, moments, radius, math.inf, "GreedyMax", active, 1, warm_start=c)
        return (c, trace[0].delta, trace[0].gamma) if trace else (c, 0.0, None)

    return step
