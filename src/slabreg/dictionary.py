"""Finite feature families evaluable at design points.

A dictionary is an ordered family theta_1 .. theta_m of real functions on
the design space. Construction is deterministic; evaluation is pure. The
data-dependent kinds (Gaussian kernels centered on sample points, kernel
PCA eigen-features) are built as exchangeable functions of the design
points: permuting the input sample yields the same ordered family.

Serialized form is a JSON object {kind, m, parameters}; kernel PCA persists
its eigenvalues and eigenvectors so a saved dictionary evaluates identically
later.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from math import exp, expm1, inf, log2, pi, sqrt
from typing import Iterator, NamedTuple

import numpy as np

from .errors import LEVELS_CAP, REQUIRED, SIZE_CAP, ConfigError, DataError, NumericalError
from .errors import count, json_object, number, optional, read, read_kind

ORTHONORMAL_KINDS = ("Trigonometric", "Haar")
# The error per unit weight, before rounding, that the Gaussian gridding of
# the trigonometric sums chooses its kernel's half-width for (see Gridding).
GRID_TOLERANCE = 1e-14


def as_floats(values, name: str = "design points") -> np.ndarray:
    """``values`` as a float array; ragged or non-numeric input is a
    ConfigError naming it. Also the kind of a spec key holding points or a
    matrix."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number or a list of numbers or of equal-length lists of numbers") from None


def as_points(points) -> np.ndarray:
    """Coerce input to an (n, d) float array; 1-d input becomes a column."""
    a = as_floats(points)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DataError(f"design points must be 1-d or 2-d, got shape {a.shape}")
    if a.shape[0] and not np.all(np.isfinite(a)):
        bad = int(np.argwhere(~np.isfinite(a).all(axis=1))[0, 0])
        raise DataError(f"non-finite design point at index {bad}")
    return a


def _unit_interval(points, kind: str) -> np.ndarray:
    a = as_points(points)
    if a.shape[0] and a.shape[1] != 1:
        raise DataError(f"{kind} dictionary expects 1-d design points, got dimension {a.shape[1]}")
    x = a[:, 0] if a.shape[0] else np.empty(0)
    bad = np.nonzero((x < 0.0) | (x > 1.0))[0]
    if bad.size:
        raise DataError(f"point {int(bad[0])} = {float(x[bad[0]])!r} outside [0, 1] for {kind} dictionary")
    return x


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, p) matrix of ||a_i - b_j||^2 for (n, d) and (p, d) points.

    Coordinates are summed in order starting from zero, one (n, p) layer at
    a time, so each entry has the bits of the scalar loop ``s += d * d``
    with ``d = a_ik - b_jk``. Finite points whose distances overflow are a
    DataError.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    try:
        with np.errstate(over="raise"):
            for k in range(a.shape[1]):
                diff = np.subtract.outer(a[:, k], b[:, k])
                diff *= diff
                out += diff
    except FloatingPointError:
        raise DataError("the squared distances between points overflow the float range") from None
    return out


def as_feature_matrix(values) -> np.ndarray:
    values = as_floats(values, "feature matrix")
    if values.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got shape {values.shape}")
    return values


def require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NumericalError("feature matrix contains NaN or Inf entries")


def validate_feature_matrix(values) -> np.ndarray:
    values = as_feature_matrix(values)
    require_finite(values)
    return values


# Cells per row block: rows x m of a reduction over feature rows (the
# statistics, the test block's squared norms), angles of Trigonometric.evaluate,
# and four times a Gridding walk's kernel values. Any block size gives the
# same bits (see row_blocks; evaluate is elementwise); this one keeps 1 MB.
STATS_BLOCK_CELLS = 1 << 17


def row_blocks(rows: int, m: int, contiguous: bool, read) -> Iterator[tuple[slice, np.ndarray]]:
    """``(block, read(block))`` for row slices whose column sums can be
    carried across blocks.

    numpy reduces axis 0 of a C-contiguous (rows, m) array row by row when
    m >= 2, so adding the running sum into a block's first row before
    reducing the block continues the same sequence of additions. A single
    column (summed pairwise) or another layout is one block.
    """
    step = max(1, STATS_BLOCK_CELLS // m) if m >= 2 and contiguous else max(rows, 1)
    for a in range(0, rows, step):
        block = slice(a, min(a + step, rows))
        yield block, read(block)


def carry_sum(total, block: np.ndarray) -> np.ndarray:
    """The column sums of ``block``, a fresh array of rows from a
    ``row_blocks`` walk, carried on from ``total``, the sums of the blocks
    before it (None for the first): the running sum is added into the
    block's first row, then the block is reduced."""
    if total is not None:
        block[0] += total
    return np.add.reduce(block, axis=0)


@contextmanager
def no_overflow(side: str, rows: slice):
    """One row block's sums with overflow raised: one DataError naming the
    block, instead of a numpy warning and an infinite sum."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        what = "the powers of their feature values or labels overflow the float range"
        raise DataError(f"{side} rows {rows.start}..{rows.stop - 1}: {what}") from None


def matrix_blocks(matrix: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    return row_blocks(*matrix.shape, matrix.flags.c_contiguous, matrix.__getitem__)


class FeatureDictionary:
    """Base class: an ordered family of m feature functions.

    ``rowwise`` kinds compute each row of ``evaluate`` from its own point
    alone, elementwise, so evaluating any slice of the points gives that
    slice of the matrix bitwise; ``bounds.compute_stats`` evaluates them one
    row block at a time, or not at all where the family's ``column_sums``
    give its statistics. A kind whose rows pass through a matrix product
    (kernel PCA: its bits may change with the block size) or are tied to a
    stored sample (an explicit matrix) is not rowwise.
    """

    kind = "?"
    rowwise = False
    center_train_indices = None  # the training row each feature is anchored at, for a family built on them

    @property
    def m(self) -> int:
        raise NotImplementedError

    def check_points(self, points) -> np.ndarray:
        """The design points as ``evaluate`` reads them; a point outside the
        family's domain is a DataError naming its index."""
        return as_points(points)

    def evaluate(self, points) -> np.ndarray:
        """Feature matrix with entry (i, k) = theta_k(points[i])."""
        raise NotImplementedError

    def combine(self, coefficients: np.ndarray, points) -> np.ndarray:
        """sum_k c_k theta_k at each point; by default through ``evaluate``'s matrix."""
        return self.evaluate(points) @ coefficients

    def column_sums(self, points, y) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The column sums sum_i theta_k(x_i) y_i, sum_i theta_k(x_i)^2 and
        sum_i (theta_k(x_i) y_i)^2 over the (n, d) points, which ``check_points``
        has accepted, taken without the feature rows; None, the default,
        when ``bounds.compute_stats`` must walk the rows instead."""
        return None

    def parameters(self) -> dict:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind, "m": self.m, "parameters": self.parameters()}

    def __eq__(self, other):
        same = isinstance(other, FeatureDictionary)
        return same and json.dumps(self.spec(), sort_keys=True) == json.dumps(other.spec(), sort_keys=True)


class Trigonometric(FeatureDictionary):
    """1, sqrt(2) cos(2 pi j x), sqrt(2) sin(2 pi j x) on [0, 1], in that order.

    Besides ``evaluate``, the family sums itself without its feature
    matrix, both ways, by one Gaussian gridding (``Gridding``): ``combine``
    is sum_k c_k theta_k(x_i) for every point, and ``adjoint``, its
    transpose, sum_i w_i theta_k(x_i) for every feature (``wave_sums``,
    which ``column_sums`` also reads for the statistics of an inductive
    fit). On an equispaced grid the sum is a DFT, and ``sup_bound`` takes it
    by one inverse FFT (``equispaced_sum``). Every feature is at most
    ``feature_sup`` = sqrt 2 in modulus, reached at x = 0 for m >= 2.
    """

    kind = "Trigonometric"
    rowwise = True
    feature_sup = sqrt(2.0)

    def __init__(self, m: int):
        m = int(m)
        if m < 1:
            raise ConfigError("trigonometric dictionary needs m >= 1")
        self._m = m

    @property
    def m(self):
        return self._m

    def check_points(self, points):
        return _unit_interval(points, self.kind)

    def evaluate(self, points):
        x = self.check_points(points)
        n, m = x.shape[0], self._m
        out = np.zeros((n, m))
        out[:, 0] = 1.0
        nfreq = m // 2
        if nfreq:
            freqs = np.arange(1, nfreq + 1)
            step = max(1, STATS_BLOCK_CELLS // nfreq)
            # The angles of one block of rows at a time; each wave is written
            # into its strided columns and all are scaled in place at the end.
            for a in range(0, n, step):
                ang = 2.0 * np.pi * np.outer(x[a : a + step], freqs)
                for first, wave in ((1, np.cos), (2, np.sin)):
                    cols = out[a : a + step, first::2]
                    wave(ang[:, : cols.shape[1]], out=cols)
            out[:, 1:] *= np.sqrt(2.0)
        return out

    def combine(self, coefficients: np.ndarray, points) -> np.ndarray:
        """sum_k c_k theta_k(x) over the family, without the (n, size) feature matrix.

        a_j cos(2 pi j x) + b_j sin(2 pi j x) = Re (a_j - i b_j) e^{2 pi i j x}:
        a type 2 sum of ``Gridding``. The deconvolved coefficients give the
        grid by one inverse FFT, and each point sums its 2w cells' values,
        kernel-weighted, one fixed row block at a time, so only the output
        grows with n. Each value is within (sqrt 2 error(1) + 2u) sum |c_k|
        (``Gridding.bound``). ``adjoint``, by the same grid and kernel, is
        its transpose up to rounding.
        """
        x = self.check_points(points)
        c = coefficients
        top = c.size // 2
        if not top:
            return np.full(x.size, c[0])
        grid = Gridding.of(top)
        waves = np.zeros(grid.size // 2 + 1, dtype=complex)
        waves[1 : 1 + top] = c[1::2]
        waves[1 : c[2::2].size + 1] -= 1j * c[2::2]
        waves[: top + 1] *= grid.deconvolve
        # 2 Re sum_j D_j (a_j - i b_j) e^{2 pi i j c / G}; numpy loads numpy.fft on first use
        cells = np.fft.irfft(waves, grid.size, norm="forward")
        cells *= sqrt(0.5)
        out = np.empty(x.size)
        for rows, index, kernel, work in grid.cells(x):
            np.take(cells, index, out=work, mode="wrap")
            work *= kernel
            np.add.reduce(work, axis=0, out=out[rows])
        out += c[0]
        return out

    def adjoint(self, weights, points) -> np.ndarray:
        """sum_i w_i theta_k(x_i) for every k without the (n, m) feature
        matrix: the transpose of ``combine`` (``wave_sums`` with the weights
        as its one column). Entry 0 is sum_i w_i; every other is within
        (sqrt 2 error(n) + 3u) sum |w_i| (``Gridding.bound``)."""
        x = self.check_points(points)
        cos, sin, _, _ = wave_sums(x, [np.asarray(weights, dtype=float)], self._m // 2)
        return self._columns(cos[0], np.sqrt(2.0) * cos, np.sqrt(2.0) * sin)

    def column_sums(self, points, y):
        """One ``wave_sums`` call, with y as its first column (cosines and
        sines up to m // 2) and 1 and y^2 as its even columns (cosines of the
        double angles alone), the squares by 2 cos^2 a = 1 + cos 2a and
        2 sin^2 a = 1 - cos 2a. None when the row walk must decide instead.

        The double angle turns a column whose squares are all tiny but not all
        zero (sines at x = 0, 1/2 or 1, on a dyadic grid, or at tiny x) into a
        cancellation that may end at 0.0, where the row walk finds a positive
        sum. So every column's sum of squares D must exceed
        E = eps n (3A + n + 32) + n e, with A = 2 pi x_max 2 (m // 2) the
        largest angle, eps = 2u = 2^-52 and e the error per unit weight of the
        sums (``wave_sums``). D = n - sum_i cos 2t_i, t_i = 2 pi j x_i, is
        within n e + 2un of its value at the exact angles; ``evaluate`` rounds
        t_i to t'_i = fl(P fl(x_i j)), within 2.01u t_i of P x_i j and so
        within 2.37u t_i of t_i, and 2 sin^2 has a slope of at most 2. So
        |D - 2 sum_i sin^2 t'_i| <= n e + u n (2.37A + 2.01), and D > E leaves
        2 sum_i sin^2 t'_i > u n^2: some sin^2 t'_i is at least u / 2, which
        ``evaluate`` squares to a positive entry, and the column is active on
        both paths. A sum that is not finite is None too, and
        ``bounds.compute_stats`` walks the rows when one overflows.
        """
        x, n, nfreq = points[:, 0], y.size, self._m // 2
        cos, sin, doubles, error = wave_sums(x, [y, np.broadcast_to(1.0, n), y**2], nfreq)
        if not all(np.isfinite(sums).all() for sums in (cos, sin, doubles)):
            return None
        # doubles[p, 0] is sum_i w_ip; doubles[p, j] the double angle's sum
        squares, ysq_squares = (self._columns(c[0], c[0] + c, c[0] - c) for c in doubles)
        largest = 2.0 * np.pi * float(x.max(initial=0.0)) * 2 * nfreq
        if not np.all(squares > np.finfo(float).eps * (3.0 * largest + n + 32.0) * n + n * error):
            return None
        # (theta y)^2 = theta^2 y^2, never below zero
        return self._columns(cos[0], np.sqrt(2.0) * cos, np.sqrt(2.0) * sin), squares, np.maximum(ysq_squares, 0.0)

    def _columns(self, constant, cos, sin) -> np.ndarray:
        """The family's m entries from the constant's, ``constant``, and the
        cosines' and sines', ``cos[j]`` and ``sin[j]`` at frequency j."""
        out = np.empty(self._m)
        out[0] = constant
        out[1::2] = cos[1 : 1 + self._m // 2]
        out[2::2] = sin[1 : 1 + (self._m - 1) // 2]
        return out

    def sup_bound(self, coefficients: np.ndarray) -> float:
        """Certified upper bound on sup |sum_k c_k theta_k| over [0, 1].

        The peak of the sum on the 2^14 equispaced points i / L of [0, 1],
        L = 2^14 - 1, evaluated by ``equispaced_sum`` (the value at 1 is the
        value at 0), plus the derivative bound
        2 pi sqrt(2) sum_j j (|a_j| + |b_j|) times half the grid step
        0.5 / L: every point of [0, 1] lies within half a step of the grid.
        """
        c = coefficients
        steps = (1 << 14) - 1
        peak = float(np.abs(equispaced_sum(c, steps)).max())
        nfreq = c.size // 2
        freqs = np.arange(1, nfreq + 1, dtype=float)
        amp = np.abs(c[1::2])
        deriv = 2.0 * np.pi * sqrt(2.0) * float(freqs[: amp.size] @ amp)
        amp_sin = np.abs(c[2::2])
        deriv += 2.0 * np.pi * sqrt(2.0) * float(freqs[: amp_sin.size] @ amp_sin)
        return peak + deriv * 0.5 / steps

    def parameters(self):
        return {}


def equispaced_sum(coefficients: np.ndarray, steps: int) -> np.ndarray:
    """sum_k c_k theta_k(i / steps) of the trigonometric family for
    i = 0..steps - 1, in O(steps log steps + size).

    a_j cos(2 pi j x) + b_j sin(2 pi j x) is the real part of
    (a_j - i b_j) e^{2 pi i j x}, and at x = i / steps that wave is periodic
    in j with period steps; so every frequency folds modulo steps into one
    complex vector, exactly, and one unnormalized inverse DFT of it gives
    the sums at every point.
    """
    c = coefficients
    folded = np.bincount(np.arange(1, c[1::2].size + 1) % steps, c[1::2], steps)
    folded = folded - 1j * np.bincount(np.arange(1, c[2::2].size + 1) % steps, c[2::2], steps)
    # numpy.fft is read here: numpy loads it on first use, not with numpy
    return c[0] + np.sqrt(2.0) * np.fft.ifft(folded, norm="forward").real


class Gridding(NamedTuple):
    """The periodized Gaussian through which ``wave_sums`` (type 1: spread,
    then FFT) and ``Trigonometric.combine`` (type 2: FFT, then gather) take
    sum_i w_i e^{-2 pi i k x_i}, |k| <= top, and its transpose in
    O(n w + G log G) (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993;
    Greengard & Lee, SIAM Review 46, 2004).

    G = ``size``, the power of two at least 4 top, oversamples the 2 top + 1
    modes about twice: R = G / (2 top) is in [2, 4). A point x meets the 2w
    cells c = floor(xG) - w + 1 .. floor(xG) + w modulo G (w = ``width``)
    with the kernel e^{-b d^2}, d = c - xG, the Gaussian e^{-t^2 / 4 tau} of
    the angle t = 2 pi d / G, tau = pi^2 / (G^2 b); periodized, its Fourier
    coefficients are sqrt(tau / pi) e^{-k^2 tau}. So, with g_c the
    kernel-weighted weights at cell c and D_k = sqrt(b / pi) e^{k^2 tau}
    (``deconvolve``), the sum is D_k sum_c g_c e^{-2 pi i k c / G} but for
    two errors per unit weight: truncation, the kernel on the cells a point
    does not meet, w + j cells away or more (j >= 0) on each side, at most
    2 e^{-b w^2} / (1 - e^{-2bw}), times D_k <= sqrt(b / pi) e^{top^2 tau};
    and aliasing, the coefficients of k + qG, q != 0, which D_k makes at
    most e^{-|q| a}, a = G (G - 2 top) tau: 2 e^{-a} / (1 - e^{-a}) in all.
    With Greengard and Lee's b = pi (R - 1/2) / (R w), these are the terms
    e^{-pi w (R - 1/2) / R} and e^{-pi w (R - 1) / (R - 1/2)}, amplified by
    at most e^{top^2 tau} = e^{pi w / (4 R (R - 1/2))}. Their sum, ``error``
    = eps(R, w), chooses w: the smallest with eps(R, w) <= GRID_TOLERANCE.
    A type 2 sum, the transpose, has that error per unit of sum_k |c_k|.

    ``bound(n)`` adds rounding, u = 2^-53, for libm's exp within 4 ulp and
    each FFT output within 5u log2 G of the sum of the inputs' moduli (a
    radix-2 FFT with twiddles within an ulp; Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, ch. 24). A kernel value, rounding d, d^2
    and t = b d^2 before exp, is within u (4 + 4t) e^{-t}; a point's, as
    sum_d e^{-t} <= 1 + sqrt(pi / b) and sum_d t e^{-t} <= sqrt(pi / b) / 2
    + 2 / e (unimodal pieces sum to at most their integrals and peaks),
    within 7u (1 + sqrt(pi / b)). D_k is within 8 + 5 top^2 tau ulp. A cell
    adds at most n ceil(2w / G) products (type 1), a point 2w cells (type
    2): ``terms``. So each sum is within u e^{top^2 tau} (1 + sqrt(b / pi))
    (terms + 20 + 5 top^2 tau + 5 log2 G) more. Against the waves at the
    double 2 pi, P, add 0.36u P k x per unit weight: |2 pi - P| < 0.352u P.
    """

    size: int
    width: int
    b: float
    deconvolve: np.ndarray
    error: float

    @classmethod
    def of(cls, top: int) -> Gridding:
        """The grid of the modes |k| <= top, top >= 1."""
        size = 1 << (4 * top - 1).bit_length()
        ratio, width, error = size / (2 * top), 0, inf
        while error > GRID_TOLERANCE:
            width += 1
            b = pi * (ratio - 0.5) / (ratio * width)
            tau, a = (pi / size) ** 2 / b, pi**2 * (size - 2 * top) / (size * b)
            truncation = 2.0 * sqrt(b / pi) * exp(-b * width**2) / -expm1(-2.0 * b * width)
            error = exp(top * top * tau) * truncation + 2.0 * exp(-a) / -expm1(-a)
        deconvolve = sqrt(b / pi) * np.exp((pi / size * np.arange(top + 1)) ** 2 / b)
        return cls(size, width, b, deconvolve, error)

    def bound(self, n: int) -> float:
        """The error per unit weight of a gridded sum over n points (type 1),
        or of one point's value (type 2, n = 1), rounding included."""
        w, b, top = self.width, self.b, self.deconvolve.size - 1
        spread = (pi * top / self.size) ** 2 / b
        terms = max(2 * w, n * -(-2 * w // self.size))
        rounding = terms + 20.0 + 5.0 * (spread + log2(self.size))
        return self.error + 2.0**-53 * exp(spread) * (1.0 + sqrt(b / pi)) * rounding

    def cells(self, x: np.ndarray, turns: int = 1) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """``(rows, index, kernel, work)`` for fixed row blocks of the points
        ``turns`` x (2x for the double angles): the (2w, rows) cells that
        each point meets, the kernel's values there, and a work array of
        that shape, made once per walk and valid until the next block."""
        w, size = self.width, self.size
        step = max(1, STATS_BLOCK_CELLS // (16 * w))
        offsets = np.arange(1 - w, w + 1)[:, None]
        buffers = np.empty((2, 2 * w * step)), np.empty(2 * w * step, dtype=np.intp)
        for a in range(0, x.size, step):
            rows = slice(a, min(a + step, x.size))
            kernel, work = (buffer[: 2 * w * (rows.stop - a)].reshape(2 * w, -1) for buffer in buffers[0])
            index = buffers[1][: kernel.size].reshape(kernel.shape)
            scaled = x[rows] * (turns * size)
            floor = np.floor(scaled)
            np.add(floor.astype(np.intp), offsets, out=index)
            index &= size - 1
            # e^{-b d^2} at the distances d = c - xG, from c = floor(xG) + offset
            np.subtract(offsets, scaled - floor, out=kernel)
            kernel *= kernel
            kernel *= -self.b
            np.exp(kernel, out=kernel)
            yield rows, index, kernel, work


def wave_sums(x: np.ndarray, weights, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The adjoint non-uniform DFT of the weight columns ``weights`` (1-d,
    over the n points x), as ``(cos, sin, doubles, error)``: for the first
    column, sum_i w_i0 cos(2 pi j x_i) in ``cos[j]`` and the sines in
    ``sin[j]``, j = 0..top; for each further, "even" column p, the cosines
    of the double angles alone, sum_i w_ip cos(4 pi j x_i) in
    ``doubles[p - 1, j]``: all the sums that ``adjoint`` and ``bounds`` read.

    Each is a type 1 sum of ``Gridding``, the double angles at the points
    2x (modulo G on the grid), so both transforms have top + 1 modes and
    one grid. Frequency 0 is each column's sum, exactly; every other is
    within ``error`` (``Gridding.bound`` at n points) times sum_i |w_ip|.
    """
    first, *evens = weights
    cos, sin = np.zeros(top + 1), np.zeros(top + 1)
    doubles = np.zeros((len(evens), top + 1))
    error = 0.0
    if top:
        grid = Gridding.of(top)
        (sums,) = _spread(x, 1, [first], grid)
        cos[:], sin[:] = sums.real, -sums.imag
        for row, sums in zip(doubles, _spread(x, 2, evens, grid)):
            row[:] = sums.real
        error = grid.bound(x.size)
    cos[0], sin[0] = first.sum(), 0.0
    doubles[:, 0] = [w.sum() for w in evens]
    return cos, sin, doubles, error


def _spread(x: np.ndarray, turns: int, columns, grid: Gridding) -> Iterator[np.ndarray]:
    """sum_i w_i e^{-2 pi i k turns x_i}, k = 0..top, for each weight column
    in turn: its grid, spread one row block at a time, by one real FFT."""
    cells = np.zeros((len(columns), grid.size))
    for rows, index, kernel, work in grid.cells(x, turns):
        for cell, w in zip(cells, columns):
            np.multiply(kernel, w[rows], out=work)
            np.add.at(cell, index.ravel(), work.ravel())
    for cell in cells:
        yield np.fft.rfft(cell)[: grid.deconvolve.size] * grid.deconvolve


class Haar(FeatureDictionary):
    """Constant function plus Haar wavelets at levels 0..J on [0, 1].

    Level j holds 2**j wavelets with disjoint dyadic supports, each of unit
    norm under the uniform design, so m = 2**(J+1); the level-J ones reach
    the largest modulus of any feature, ``feature_sup`` = 2^{J/2}.
    """

    kind = "Haar"
    rowwise = True

    def __init__(self, levels: int):
        levels = int(levels)
        if levels < 0:
            raise ConfigError("haar dictionary needs levels >= 0")
        self.levels = levels

    @property
    def m(self):
        return 2 ** (self.levels + 1)

    @property
    def feature_sup(self) -> float:
        return sqrt(self.m / 2.0)

    def check_points(self, points):
        return _unit_interval(points, self.kind)

    def evaluate(self, points):
        x = self.check_points(points)
        n = x.shape[0]
        out = np.zeros((n, self.m))
        out[:, 0] = 1.0
        rows = np.arange(n)
        for j, cell, value in haar_levels(x, self.levels):
            out[rows, 2**j + cell] = value
        return out

    def combine(self, coefficients: np.ndarray, points) -> np.ndarray:
        """sum_k c_k theta_k(x) over the family, without the (n, size) feature matrix.

        Each point meets one wavelet per level (``haar_levels``), so the sum
        is c_0 plus one term per level: O(n levels).
        """
        x = self.check_points(points)
        c = coefficients
        out = np.full(x.shape[0], c[0])
        for j, cell, value in haar_levels(x, self.levels):
            out += c[2**j + cell] * value
        return out

    def sup_bound(self, coefficients: np.ndarray) -> float:
        """sup |sum_k c_k theta_k| over [0, 1], exactly: the sum is piecewise
        constant on the finest dyadic half-grid, so midpoint evaluation is exact."""
        mids = (np.arange(self.m) + 0.5) / self.m
        return float(np.abs(self.combine(coefficients, mids)).max())

    def parameters(self):
        return {"levels": self.levels}


def haar_levels(x: np.ndarray, levels: int):
    """For each level j = 0..levels, yield (j, cell, value): the index within
    level j of the one wavelet nonzero at each point of x (in [0, 1]) and its
    value there, 2^{j/2} times the sign of the point's half of that cell.
    The wavelet's column in a Haar family is 2^j + cell."""
    for j in range(levels + 1):
        width = 2**j
        pos = x * width
        cell = np.minimum(np.floor(pos).astype(int), width - 1)
        sign = np.where(pos - cell < 0.5, 1.0, -1.0)
        yield j, cell, (2.0 ** (j / 2.0)) * sign


class MultiscaleGaussian(FeatureDictionary):
    """Gaussian bumps exp(-g * ||x - c||^2 / 2) over centers c and widths g.

    Index order is scale-major (ascending scale), centers ascending in the
    lexicographic order of their coordinates, so indexation does not depend
    on the order the sample was presented in. ``center_origin`` maps each
    sorted center back to its position in the input list (a given map, as
    a spec stores it, refers to the listed order and is composed with the
    sort), and ``center_train_indices`` tiles that map over scales for
    leave-one-out bookkeeping when the centers are the training points.
    """

    kind = "MultiscaleGaussian"
    rowwise = True

    def __init__(self, centers, scales, center_origin=None):
        centers = as_points(centers)
        if centers.shape[0] == 0:
            raise ConfigError("gaussian dictionary needs at least one center")
        scales = as_floats(scales, "scales").ravel()
        if scales.size == 0 or np.any(scales <= 0) or not np.all(np.isfinite(scales)):
            raise ConfigError("gaussian dictionary needs positive finite scales")
        order = np.lexsort(centers.T[::-1])
        if center_origin is not None and sorted(center_origin) != list(range(order.size)):
            raise ConfigError(f"dictionary center_origin must be a permutation of range({order.size})")
        self.centers = centers[order]
        self.center_origin = order if center_origin is None else np.asarray(center_origin)[order]
        self.scales = np.sort(scales, kind="stable")

    @property
    def m(self):
        return self.centers.shape[0] * self.scales.size

    @property
    def center_train_indices(self) -> np.ndarray:
        return np.tile(self.center_origin, self.scales.size)

    def check_points(self, points):
        pts = as_points(points)
        if pts.shape[0] and pts.shape[1] != self.centers.shape[1]:
            raise DataError(
                f"points have dimension {pts.shape[1]}, centers have {self.centers.shape[1]}"
            )
        return pts

    def evaluate(self, points):
        pts = self.check_points(points)
        if pts.shape[0] == 0:
            return np.zeros((0, self.m))
        d2 = squared_distances(pts, self.centers)
        c = self.centers.shape[0]
        out = np.empty((pts.shape[0], self.m))
        for i, g in enumerate(self.scales):
            cols = out[:, i * c : (i + 1) * c]
            with np.errstate(over="ignore"):  # -inf, whose exp 0.0 is exact
                np.multiply(-0.5 * g, d2, out=cols)
            np.exp(cols, out=cols)
        return out

    def parameters(self):
        return {
            "centers": self.centers.tolist(),
            "scales": self.scales.tolist(),
            "center_origin": self.center_origin.tolist(),
        }


def _kernel_matrix(kernel: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kernel["kind"] == "gaussian":
        d2 = squared_distances(a, b)
        with np.errstate(over="ignore"):  # -inf, whose exp 0.0 is exact
            return np.exp(-0.5 * float(kernel["gamma"]) * d2)
    return a @ b.T


class KernelPCA(FeatureDictionary):
    """Eigen-features of the kernel matrix over a design sample.

    Diagonalizes K(X_i, X_j), keeps the ``top`` leading eigenpairs in
    descending eigenvalue order, and exposes k_l(x) = sum_i E[i, l] K(X_i, x).
    Eigenvector signs are fixed so the entry of largest magnitude is
    positive, which is invariant under permutations of the sample.
    """

    kind = "KernelPCA"

    def __init__(self, points, kernel: dict, top: int, eigenvalues=None, eigenvectors=None):
        self.points = as_points(points)
        n = self.points.shape[0]
        if n == 0:
            raise ConfigError("kernel PCA needs a nonempty design sample")
        kind, values = read_kind(kernel, KERNEL_KEYS, "dictionary kernel.")
        if kind == "gaussian" and values["gamma"] <= 0:
            raise ConfigError("gaussian kernel needs gamma > 0")
        # An explicit kernel keeps its matrix as read, a float array.
        self.kernel = {**kernel, **values} if kind == "explicit" else dict(kernel)
        top = int(top)
        if not 1 <= top <= n:
            raise ConfigError(f"top must be in 1..{n}, got {top}")
        self.top = top
        if eigenvalues is not None and eigenvectors is not None:
            self.eigenvalues = as_floats(eigenvalues, "eigenvalues")
            self.eigenvectors = as_floats(eigenvectors, "eigenvectors")
            if self.eigenvectors.shape != (n, top) or self.eigenvalues.shape != (top,):
                raise ConfigError(
                    f"kernel PCA spec needs eigenvectors of shape {(n, top)} and eigenvalues "
                    f"of shape {(top,)}, got {self.eigenvectors.shape} and {self.eigenvalues.shape}"
                )
            return
        K = self._gram()
        try:
            vals, vecs = np.linalg.eigh(K)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"kernel eigendecomposition failed: {exc}") from None
        vals, vecs = vals[::-1], vecs[:, ::-1]
        tol = 1e-8 * max(1.0, float(np.abs(vals).max()))
        if vals[-1] < -tol:
            raise NumericalError(
                f"kernel matrix is not positive semidefinite: eigenvalue {vals[-1]:.3e}"
            )
        vals = np.clip(vals, 0.0, None)
        vecs = _canonical_signs(vecs)
        self.eigenvalues = vals[:top].copy()
        self.eigenvectors = vecs[:, :top].copy()

    def _gram(self) -> np.ndarray:
        if self.kernel["kind"] == "explicit":
            K = self.kernel["matrix"]
            n = self.points.shape[0]
            if K.shape != (n, n):
                raise ConfigError(f"explicit kernel matrix must be {n}x{n}, got {K.shape}")
            if not np.allclose(K, K.T, atol=1e-10):
                raise ConfigError("explicit kernel matrix is not symmetric")
            return 0.5 * (K + K.T)
        return _kernel_matrix(self.kernel, self.points, self.points)

    @property
    def m(self):
        return self.top

    def evaluate(self, points):
        pts = as_points(points)
        if self.kernel["kind"] == "explicit":
            if pts.shape != self.points.shape or not np.array_equal(pts, self.points):
                raise DataError("explicit-kernel PCA features evaluate only at the stored sample")
            cross = self._gram()
        else:
            cross = _kernel_matrix(self.kernel, pts, self.points)
        return cross @ self.eigenvectors

    def parameters(self):
        kernel = dict(self.kernel)
        if "matrix" in kernel:
            kernel["matrix"] = kernel["matrix"].tolist()
        return {
            "points": self.points.tolist(),
            "kernel": kernel,
            "top": self.top,
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors": self.eigenvectors.tolist(),
        }


class ExplicitMatrix(FeatureDictionary):
    """A user-supplied precomputed feature matrix standing in for a dictionary.

    Rows are tied to a fixed sample; evaluation requires the same number of
    points in the same order and returns the stored values.
    """

    kind = "ExplicitMatrix"

    def __init__(self, values):
        self.values = validate_feature_matrix(np.asarray(values, dtype=float))

    @property
    def m(self):
        return self.values.shape[1]

    def evaluate(self, points):
        if points is None:
            return self.values.copy()
        pts = as_points(points)
        if pts.shape[0] != self.values.shape[0]:
            raise DataError(
                f"explicit feature matrix has {self.values.shape[0]} rows, got {pts.shape[0]} points"
            )
        return self.values.copy()

    def parameters(self):
        return {"values": self.values.tolist()}


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    if vectors.size == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _origin(value, name: str) -> list:
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ConfigError(f"{name} must be a permutation of range(n), got {value!r}")
    return value


# The keys of each kernel of KernelPCA.
KERNEL_KEYS = {"gaussian": {"gamma": (number, REQUIRED)}, "linear": {}, "explicit": {"matrix": (as_floats, REQUIRED)}}


def _parameters(**table):
    """The (kind, default) of a dictionary spec's ``parameters``: an object
    read through ``table``, required unless the table is empty."""
    return (lambda value, name: read(value, table, "dictionary parameters."), REQUIRED if table else {})


# The keys of each dictionary kind's spec: its ``m``, which the Trigonometric
# family takes and ``spec()`` restates for every other kind, and its
# ``parameters``.
RESTATED_M = (count(SIZE_CAP), None)
DICTIONARY_KEYS = {
    "Trigonometric": {"m": (count(SIZE_CAP), REQUIRED), "parameters": _parameters()},
    "Haar": {"m": RESTATED_M, "parameters": _parameters(levels=(count(LEVELS_CAP, low=0), REQUIRED))},
    "MultiscaleGaussian": {"m": RESTATED_M, "parameters": _parameters(
        centers=(as_floats, REQUIRED), center_origin=(optional(_origin), None), scales=(as_floats, REQUIRED),
    )},
    "KernelPCA": {"m": RESTATED_M, "parameters": _parameters(
        points=(as_floats, REQUIRED), kernel=(json_object, REQUIRED), top=(count(SIZE_CAP), REQUIRED),
        eigenvalues=(optional(as_floats), None), eigenvectors=(optional(as_floats), None),
    )},
    "ExplicitMatrix": {"m": RESTATED_M, "parameters": _parameters(values=(as_floats, REQUIRED))},
}
DICTIONARY_CLASSES = {
    cls.kind: cls for cls in (Trigonometric, Haar, MultiscaleGaussian, KernelPCA, ExplicitMatrix)
}


def from_spec(spec: dict) -> FeatureDictionary:
    """Rebuild a dictionary from its serialized {kind, m, parameters} form;
    a restated ``m`` must be the family's."""
    kind, values = read_kind(spec, DICTIONARY_KEYS, "dictionary ")
    if kind == "Trigonometric":
        return Trigonometric(values["m"])
    family = DICTIONARY_CLASSES[kind](**values["parameters"])
    if values["m"] not in (None, family.m):
        raise ConfigError(f"dictionary m must be {family.m}, the size of its {kind} family, got {values['m']}")
    return family
