"""Dataset container and CSV ingestion.

Labeled files carry a header ``x1,...,xd,y``; unlabeled files ``x1,...,xd``;
a Gram file has no header.
Malformed numerics are hard errors with row numbers; silent coercion is how
experiments get corrupted.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Dataset:
    """Design points for all (k+1)N rows, labels observed on the first N.

    N, k and kN are read off the arrays: ``y`` holds the N training labels
    and ``x`` one row per point, so its row count is a positive multiple
    (k+1) of N. ``hidden_y`` holds the test-block labels when they are known
    (simulated data evaluated in simulation mode); None in deployment.
    """

    x: np.ndarray
    y: np.ndarray
    hidden_y: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.size == 0:
            raise DataError(f"labels must be a nonempty vector, got shape {y.shape}")
        if x.shape[0] % y.size or x.shape[0] == 0:
            raise DataError(f"dataset has {x.shape[0]} design rows, not a positive multiple of N = {y.size}")
        if not np.all(np.isfinite(y)):
            raise DataError(f"non-finite label at index {int(np.argmin(np.isfinite(y)))}")
        if self.hidden_y is not None:
            h = np.asarray(self.hidden_y, dtype=float)
            if h.shape != (self.n_test,):
                raise DataError(f"hidden labels must have shape ({self.n_test},), got {h.shape}")
            if not np.all(np.isfinite(h)):
                raise DataError(f"non-finite hidden label at index {int(np.argmin(np.isfinite(h)))}")
            object.__setattr__(self, "hidden_y", h)

    @property
    def n_train(self) -> int:
        return self.y.size

    @property
    def k_test(self) -> int:
        return self.x.shape[0] // self.y.size - 1

    @property
    def n_test(self) -> int:
        return self.x.shape[0] - self.y.size


@contextmanager
def open_csv(path):
    """A CSV file open to read as UTF-8 text, for a ``with`` block: a file
    that cannot be opened (a socket, or one removed since the config was
    read) or read, or that is not UTF-8, is a DataError naming it."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from None
        except OSError as exc:
            raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _read_rows(path, header: bool = True):
    """The header (empty without one) and the nonempty rows of a CSV file,
    with the file line of each row."""
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        head = next(reader, None) if header else []
        if head is None:
            raise DataError(f"{path}: empty file, header required")
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    return [h.strip() for h in head], rows, lines


def _check_header(path, header, labeled: bool):
    cols = header[:-1] if labeled else header
    if labeled and (not header or header[-1] != "y"):
        raise DataError(f"{path}: labeled file must end with a 'y' column, got {header}")
    if not cols or cols != [f"x{i}" for i in range(1, len(cols) + 1)]:
        raise DataError(f"{path}: expected header x1..xd{',y' if labeled else ''}, got {header}")
    return len(cols)


def _parse(path, rows, lines, width):
    """Rows of fields read from the given file lines; errors name the line of
    the first bad row. Fields become Python floats in one pass, then one array."""
    values = []
    for line, row in zip(lines, rows):
        if len(row) != width:
            raise DataError(f"{path}: row {line}: expected {width} fields, got {len(row)}")
        for value in row:
            try:
                values.append(float(value))
            except ValueError:
                raise DataError(f"{path}: row {line}: malformed number {value!r}") from None
        if not all(map(math.isfinite, values[-width:])):
            raise DataError(f"{path}: row {line}: non-finite value")
    return np.array(values, dtype=float).reshape(len(rows), width)


def load_labeled_csv(path):
    """Read x1..xd,y rows; returns (x, y)."""
    header, rows, lines = _read_rows(path)
    d = _check_header(path, header, labeled=True)
    table = _parse(path, rows, lines, d + 1)
    return table[:, :d], table[:, d]


def load_unlabeled_csv(path):
    """Read x1..xd rows; returns x (possibly with zero rows)."""
    header, rows, lines = _read_rows(path)
    d = _check_header(path, header, labeled=False)
    return _parse(path, rows, lines, d)


def load_headerless_csv(path):
    """Read rows of numbers without a header, each as wide as the first;
    returns them as one array (with zero rows for a file holding none)."""
    _, rows, lines = _read_rows(path, header=False)
    return _parse(path, rows, lines, len(rows[0]) if rows else 0)


def write_predictions_csv(path, predictions):
    predictions = np.asarray(predictions, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "prediction"])
        for i, p in enumerate(predictions):
            writer.writerow([i, repr(float(p))])
