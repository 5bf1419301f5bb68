"""Design second moments: the Gram matrix G[j, k] = mean of theta_j * theta_k.

The inductive engine needs moments under the design distribution (exact for
orthonormal families, Monte Carlo or a user-supplied Gram otherwise); the
transductive engine uses the empirical moments of the unlabeled test design,
normalized by 1/(kN) so that the diagonal matches the squared empirical norm.
Both are carried by the same immutable ``DesignMoments`` and everything
downstream is agnostic to which one it got. The projection loop reads only
``diag`` and a ``sweep`` per pass (a GreedyMax step is a one-visit pass).
Exact moments are the identity (``IdentityMoments``), answered from that
structure without an m x m matrix; the empirical test moments
(``EmpiricalTestMoments``) answer through the test block itself, so neither
forms its Gram unless something reads ``gram``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import load_headerless_csv
from .dictionary import ORTHONORMAL_KINDS, FeatureDictionary, as_feature_matrix, carry_sum, matrix_blocks
from .dictionary import no_overflow, validate_feature_matrix
from .errors import ConfigError, DataError, NumericalError

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-8
# Sampler draws per Monte Carlo batch; fixed so the accumulation order is too.
MC_BATCH = 100_000
# Test-block columns per product of a RoundRobin pass (BlockSweep).
SWEEP_COLUMNS = 32


@dataclass(frozen=True, eq=False)
class DesignMoments:
    """Symmetric PSD Gram matrix with provenance and a degeneracy mask; the
    projection loop reads ``diag`` and ``sweep`` alone. Moments compare and
    hash by identity: a field-wise ``==`` would compare Gram arrays."""

    gram: np.ndarray = field(repr=False)
    provenance: str

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ConfigError(f"gram matrix must be square, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalError("gram matrix contains NaN or Inf")
        object.__setattr__(self, "gram", g)

    @property
    def m(self) -> int:
        return self.gram.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.gram)

    @property
    def degenerate(self) -> np.ndarray:
        return self.diag <= 0.0

    @cached_property
    def identity(self) -> bool:
        """Whether the Gram is exactly the identity: every diagonal entry is
        exactly 1.0 and the matrix has exactly m nonzero entries. Derived
        from the matrix once, whatever its provenance, so an identity loaded
        from a user file counts too."""
        return bool(np.all(self.diag == 1.0) and np.count_nonzero(self.gram) == self.m)

    def sweep(self, c: np.ndarray) -> "GramSweep":
        """The Gram products of one pass of the projection loop from the
        point c on (see ``GramSweep``): the loop's only view of the Gram."""
        return IdentitySweep(c) if self.identity else GramSweep(c, self.gram)


class GramSweep:
    """One pass's Gram products: ``interactions()`` is c @ G at the pass's
    start and ``interaction(k)`` is G[:, k] @ c at the current c, which the
    pass moves in place, one coordinate at a time, and reports through
    ``move``. Read here from the dense Gram. The loop reads
    ``interaction(k)`` only from sweeps that are not ``elementwise``; an
    elementwise sweep answers every feature from ``interactions()``."""

    # Whether each feature's product reads its own coefficient alone, so
    # that ``interactions()`` answers every feature of the pass.
    elementwise = False

    def __init__(self, c: np.ndarray, gram: np.ndarray):
        self.c, self.gram = c, gram

    def interactions(self) -> np.ndarray:
        return self.c @ self.gram

    def interaction(self, k: int):
        return self.gram[:, k] @ self.c

    def move(self, k: int, step: float) -> None:
        """Coordinate k of c has just moved by ``step``."""


class IdentitySweep(GramSweep):
    """Under the identity c @ G has one nonzero term of weight exactly 1.0
    per feature, so c gives its bits (soft thresholding)."""

    elementwise = True

    def __init__(self, c: np.ndarray):
        self.c = c

    def interactions(self) -> np.ndarray:
        return self.c


class BlockSweep(GramSweep):
    """The test Gram's products through the test block T, c @ G = r @ T / kN
    and G[:, k] @ c = r @ T[:, k] / kN with r = T c: r is computed exactly at
    the pass's start, then moved with c (coordinate descent's naive update).

    A column of a C-contiguous T touches every row's page, so the products
    are taken for ``SWEEP_COLUMNS`` features from k on at once, and kept
    until c moves."""

    def __init__(self, c: np.ndarray, block: np.ndarray):
        self.block = block
        self.r = block @ c
        self.start = self.stop = 0  # the features [start, stop) of ``products``

    def interactions(self) -> np.ndarray:
        return self.r @ self.block / self.block.shape[0]

    def interaction(self, k: int):
        if not self.start <= k < self.stop:
            self.start, self.stop = k, min(k + SWEEP_COLUMNS, self.block.shape[1])
            self.products = (self.r @ self.block[:, self.start : self.stop]) / self.block.shape[0]
        return self.products[k - self.start]

    def move(self, k: int, step: float) -> None:
        self.r += step * self.block[:, k]
        self.stop = self.start


class IdentityMoments(DesignMoments):
    """The m x m identity Gram, stored as its size: ``m``, ``diag``,
    ``identity`` and the sweep come from the structure, and ``gram``
    is built only if something reads it (the projection loop does not)."""

    identity = True

    def __init__(self, m: int, provenance: str):
        object.__setattr__(self, "size", int(m))
        object.__setattr__(self, "provenance", provenance)

    @property
    def m(self) -> int:
        return self.size

    @cached_property
    def diag(self) -> np.ndarray:
        return np.ones(self.size)

    @cached_property
    def gram(self) -> np.ndarray:
        return np.eye(self.size)


class EmpiricalTestMoments(DesignMoments):
    """The empirical test Gram G = T^T T / kN, stored as the (kN, m) test
    block T itself (not a copy): ``diag`` is the columns' squared norms over
    kN, and the products go through T, so the m x m ``gram`` is built only
    if something reads it (the projection loop does not). ``identity``
    reads the Gram only once every diagonal entry is exactly 1.0 and the
    block has at least m rows, so that Gram is no larger than the block."""

    def __init__(self, block: np.ndarray):
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "provenance", "EmpiricalTest")
        if not np.all(np.isfinite(self.diag)):
            raise NumericalError("gram matrix contains NaN or Inf")

    @property
    def m(self) -> int:
        return self.block.shape[1]

    @cached_property
    def sum_squares(self) -> np.ndarray:
        """The columns' sums of squares (``diag`` times kN), in row blocks
        carried as compute_stats carries its sums, so no temporary is as
        large as the block."""
        total = None
        for rows, t in matrix_blocks(self.block):
            with no_overflow("test", rows):
                total = carry_sum(total, t**2)
        return total

    @cached_property
    def diag(self) -> np.ndarray:
        return self.sum_squares / self.block.shape[0]

    @cached_property
    def identity(self) -> bool:
        # a block of fewer than m rows has rank below m: no identity Gram
        return self.block.shape[0] >= self.m and super().identity

    @cached_property
    def gram(self) -> np.ndarray:
        # One BLAS syrk of the C-contiguous block, which fills one triangle
        # and copies it onto the other: exactly symmetric by construction.
        g = self.block.T @ self.block
        g /= self.block.shape[0]
        return g

    def sweep(self, c: np.ndarray) -> GramSweep:
        return IdentitySweep(c) if self.identity else BlockSweep(c, self.block)


def _symmetrize(g: np.ndarray) -> np.ndarray:
    if np.max(np.abs(g - g.T), initial=0.0) > SYMMETRY_TOL * max(1.0, np.abs(g).max(initial=0.0)):
        raise ConfigError("gram matrix is not symmetric")
    return 0.5 * (g + g.T)


def _repair_psd(g: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in (PSD_TOL, 0) to zero; reject anything lower."""
    vals, vecs = np.linalg.eigh(g)
    scale = max(1.0, float(np.abs(vals).max()))
    if vals[0] < PSD_TOL * scale:
        raise NumericalError(f"gram matrix is indefinite: eigenvalue {vals[0]:.3e}")
    if vals[0] >= 0.0:
        return g
    vals = np.clip(vals, 0.0, None)
    return 0.5 * ((vecs * vals) @ vecs.T + ((vecs * vals) @ vecs.T).T)


def exact_moments(dictionary: FeatureDictionary) -> DesignMoments:
    """Closed-form Gram for orthonormal kinds under the uniform design: identity."""
    if dictionary.kind not in ORTHONORMAL_KINDS:
        raise ConfigError(
            f"exact moments are only available for orthonormal kinds {ORTHONORMAL_KINDS}; "
            f"use monte_carlo_moments or a user Gram for kind {dictionary.kind!r}"
        )
    return IdentityMoments(dictionary.m, "Exact")


def monte_carlo_moments(dictionary: FeatureDictionary, sampler, n_samples: int, seed: int) -> DesignMoments:
    """Gram estimated as (1/M) sum phi(x_s) phi(x_s)^T over sampler draws.

    ``sampler(rng, size)`` must return design points. Deterministic given the
    seed; the fixed batch size ``MC_BATCH`` pins the accumulation order.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ConfigError("monte carlo moments need n_samples >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = dictionary.m
    acc = np.zeros((m, m))
    done = 0
    while done < n_samples:
        take = min(MC_BATCH, n_samples - done)
        pts = sampler(rng, take)
        feats = validate_feature_matrix(dictionary.evaluate(pts))
        acc += feats.T @ feats  # one syrk: exactly symmetric
        done += take
    return DesignMoments(acc / n_samples, "MonteCarlo")


def empirical_test_moments(test: np.ndarray) -> EmpiricalTestMoments:
    """Empirical Gram of the test design block, normalized by 1/(kN).

    ``test`` is the (kN, m) test block alone (``bounds.split_features``);
    the training rows never enter the test geometry. The moments hold the
    block, as a C-contiguous array (a dictionary's block is one already, and
    is held as it is), and never form the m x m Gram for a fit. A NaN or an
    infinity in a column leaves one on the diagonal, which is rejected.
    """
    test = np.ascontiguousarray(as_feature_matrix(test))
    if test.shape[0] == 0:
        raise ConfigError("empirical test moments need a nonempty test block")
    return EmpiricalTestMoments(test)


def load_gram_csv(path) -> DesignMoments:
    """User-supplied Gram: a headerless CSV of m rows by m columns, read as
    every CSV file is (``data.load_headerless_csv``)."""
    g = load_headerless_csv(path)
    if g.shape[0] == 0:
        raise DataError(f"{path}: empty gram file")
    if g.shape[0] != g.shape[1]:
        raise DataError(f"{path}: gram file must be square, got {g.shape[0]} rows of {g.shape[1]} fields")
    return DesignMoments(_repair_psd(_symmetrize(g)), "UserSupplied")


def uniform_sampler(low: float = 0.0, high: float = 1.0, dim: int = 1):
    """Uniform design sampler factory for monte_carlo_moments."""
    low, high = float(low), float(high)
    if not high > low:
        raise ConfigError("uniform sampler needs high > low")

    def sample(rng, size):
        return rng.uniform(low, high, size=(size, dim))

    return sample
