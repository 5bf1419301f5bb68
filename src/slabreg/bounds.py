"""Per-feature confidence radii from finite-sample deviation inequalities.

Each variant produces, for every feature k, a radius beta[k] such that with
probability at least 1 - epsilon, simultaneously over k, the excess risk of
the recentred one-feature least squares fit over the best one-feature
predictor is at most beta[k]. In coefficient units the corresponding slab
half-width is tau[k] = sqrt(beta[k] / v[k]) with v[k] the design second
moment of the feature.

Inductive variants measure risk under the design distribution and take v
from exact / Monte Carlo / user-supplied moments; transductive variants
measure risk on the unlabeled test block and take v from its empirical
moments. Variants that would need hidden test labels run in "simulation"
mode when those labels are available (synthetic data) and otherwise fall
back to the documented observable majorants ("deployment" mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import inf, log, sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .data import Dataset
from .dictionary import FeatureDictionary, as_feature_matrix, carry_sum, matrix_blocks, no_overflow, require_finite
from .dictionary import row_blocks
from .errors import GRAM_BYTES_CAP, REQUIRED, ConfigError, NumericalError, dense_block, json_object, list_of, number
from .errors import optional, read, text
from . import moments as design
from .moments import DesignMoments

@dataclass(frozen=True)
class BoundSpec:
    """Configuration for one bound variant.

    B bounds |f| (IndExact) or |Y| (TrBasicBounded, TrVariance deployment);
    sigma2 is the noise second moment (IndExact); subexp holds per-feature
    (rate, bound) pairs with P exp(rate * |theta(X) Y|) <= bound (TrGeneralK);
    y_subexp = (b_y, B_y) with P exp(b_y |Y|) <= B_y (TrFirstOrder deployment).
    The constants a variant reads in every mode are its row's ``constants``
    in ``VARIANT_TABLE``, which ``compute_radius`` checks are set; one read
    in a single mode is checked by the formula of that mode.
    """

    variant: str
    epsilon: float
    B: float | None = None
    sigma2: float | None = None
    subexp: tuple | None = None
    y_subexp: tuple | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown bound variant {self.variant!r}; choose from {VARIANTS}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.B is not None and not 0.0 <= self.B < inf:
            raise ConfigError(f"B must be finite and >= 0, got {self.B}")
        if self.sigma2 is not None and not 0.0 <= self.sigma2 < inf:
            raise ConfigError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if self.subexp is not None:
            pairs = tuple((float(a), float(b)) for a, b in self.subexp)
            for rate, bound in pairs:
                if not 0.0 < rate < inf:
                    raise ConfigError(f"subexp rate must be finite and > 0, got {rate}")
                if not 1.0 <= bound < inf:
                    raise ConfigError(f"subexp bound must be finite and >= 1, got {bound}")
            object.__setattr__(self, "subexp", pairs)
        if self.y_subexp is not None:
            b_y, big = (float(v) for v in self.y_subexp)
            if not (0.0 < b_y < inf and 1.0 <= big < inf):
                raise ConfigError(f"y_subexp needs finite b_y > 0 and B_y >= 1, got {self.y_subexp}")
            object.__setattr__(self, "y_subexp", (b_y, big))

    @property
    def transductive(self) -> bool:
        return VARIANT_TABLE[self.variant].transductive

    def to_json_dict(self) -> dict:
        out = {"variant": self.variant, "epsilon": self.epsilon}
        if self.B is not None:
            out["B"] = self.B
        if self.sigma2 is not None:
            out["sigma2"] = self.sigma2
        if self.subexp is not None:
            out["subexp"] = [{"beta_h": a, "B_h": b} for a, b in self.subexp]
        if self.y_subexp is not None:
            out["y_subexp"] = {"b_y": self.y_subexp[0], "B_y": self.y_subexp[1]}
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoundSpec":
        values = read(obj, BOUND_KEYS, "bound ")
        if values["subexp"] is not None:
            values["subexp"] = [tuple(read(p, SUBEXP_KEYS, "bound subexp ").values()) for p in values["subexp"]]
        if values["y_subexp"] is not None:
            values["y_subexp"] = tuple(read(values["y_subexp"], Y_SUBEXP_KEYS, "bound y_subexp ").values())
        return cls(**values)


# A bound spec's keys, and those of its subexp pairs, each read in this
# order; BoundSpec checks their domains.
BOUND_KEYS = {
    "variant": (text, REQUIRED),
    "epsilon": (number, REQUIRED),
    "B": (optional(number), None),
    "sigma2": (optional(number), None),
    "subexp": (optional(list_of(json_object)), None),
    "y_subexp": (optional(json_object), None),
}
SUBEXP_KEYS = {"beta_h": (number, REQUIRED), "B_h": (number, REQUIRED)}
Y_SUBEXP_KEYS = {"b_y": (number, REQUIRED), "B_y": (number, REQUIRED)}


@dataclass(frozen=True, eq=False)
class FeatureStats:
    """Per-feature sample statistics feeding the bound formulas.

    Train-side quantities are means over the N labeled rows; test-side
    fourth moments are sums over the kN unlabeled rows (normalized inside
    the formulas, which divide by N). The leave-one-out fields are the
    column sums of theta_k(X_i) Y_i and its square over the training rows
    but feature k's anchor row, and ``features_per_point`` is m', the
    largest number of features on one anchor row. The fields after
    ``train_mean_ty`` are None unless a variant the statistics were
    computed for reads them (see ``compute_stats``).
    """

    n_train: int
    k_test: int
    has_test_labels: bool
    train_mean_sq: np.ndarray
    train_mean_ty: np.ndarray
    train_mean_sq_ysq: np.ndarray | None = None
    train_var_ty: np.ndarray | None = None
    train_mean_t4y4: np.ndarray | None = None
    train_mean_t4: np.ndarray | None = None
    test_sum_t4: np.ndarray | None = None
    test_sum_t4y4: np.ndarray | None = None
    train_loo_sum_ty: np.ndarray | None = None
    train_loo_sum_ty2: np.ndarray | None = None
    features_per_point: int | None = None

    @property
    def m(self) -> int:
        return self.train_mean_sq.shape[0]

    @property
    def train_degenerate(self) -> np.ndarray:
        return self.train_mean_sq <= 0.0


@dataclass(frozen=True, eq=False)
class ConfidenceRadius:
    """Radii beta (risk units) and thresholds tau (coefficient units)."""

    beta: np.ndarray
    tau: np.ndarray
    observables: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.beta.shape[0]


def _radius(beta, moments, observables) -> ConfidenceRadius:
    beta = np.asarray(beta, dtype=float)
    v = moments.diag
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = np.where(v > 0.0, np.sqrt(np.maximum(beta, 0.0) / np.where(v > 0.0, v, 1.0)), np.inf)
    tau = np.where(np.isnan(tau), np.inf, tau)
    return ConfidenceRadius(beta=beta, tau=tau, observables=observables)


def _safe_ratio(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    return np.where((num == 0.0) & (den <= 0.0), 0.0, out)


def _require_geometry(entry, spec: BoundSpec, stats: FeatureStats, moments: DesignMoments):
    """Check the moments and the test block against the variant's entry in
    ``VARIANT_TABLE``: transductive variants need the empirical test Gram and
    a test block of k >= 1 (k = 1 where flagged), inductive ones design
    moments."""
    if entry.transductive != (moments.provenance == "EmpiricalTest"):
        needs = "EmpiricalTest moments" if entry.transductive else "design moments (Exact, MonteCarlo or UserSupplied)"
        raise ConfigError(
            f"bound variant {spec.variant} needs {needs}, got {moments.provenance} "
            "moments: they disagree about the ambient geometry"
        )
    if entry.transductive and stats.k_test < 1:
        raise ConfigError(f"{spec.variant} needs a test block (k_test >= 1)")
    if entry.k_one and stats.k_test != 1:
        raise ConfigError(f"{spec.variant} is stated for k_test = 1; use TrGeneralK otherwise")


def ind_exact(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """beta_k = (4 (1 + log(2m/eps)) / N) (mean theta_k^2 Y^2 / v_k + B^2 + sigma^2)."""
    m, n = stats.m, stats.n_train
    lead = 4.0 * (1.0 + log(2.0 * m / spec.epsilon)) / n
    ratio = _safe_ratio(stats.train_mean_sq_ysq, moments.diag)
    beta = lead * (ratio + spec.B**2 + spec.sigma2)
    return _radius(beta, moments, {"mean_sq_ysq": stats.train_mean_sq_ysq, "mode": "observable"})


def ind_var_first_order(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """beta_k = (2 log(4m/eps) / N) vhat_k / v_k, with vhat the empirical
    variance of theta_k(X_i) Y_i over the training sample."""
    if stats.n_train < 2:
        raise ConfigError("IndVarFirstOrder needs N >= 2")
    m, n = stats.m, stats.n_train
    beta = (2.0 * log(4.0 * m / spec.epsilon) / n) * _safe_ratio(stats.train_var_ty, moments.diag)
    return _radius(beta, moments, {"vhat": stats.train_var_ty, "mode": "observable"})


def ind_svm(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """Leave-one-out variant for dictionaries built on the training points.

    Feature k is anchored at training point i = loo_index[k]; its statistics
    use the other N-1 rows. beta_k = (2 log(2 N m' / eps) / (N-1)) vhat_k / v_k
    with m' the largest number of features on one anchor point (m / anchors
    for an even map; N m' >= m bounds the union either way). The sums and
    m' come from ``compute_stats``, which read the map.
    """
    n = stats.n_train
    if n < 2:
        raise ConfigError("IndSvm needs N >= 2 for a leave-one-out sample")
    features_per_point = stats.features_per_point
    loo_mean = stats.train_loo_sum_ty / (n - 1)
    loo_sq = stats.train_loo_sum_ty2 / (n - 1)
    vhat = np.maximum(loo_sq - loo_mean**2, 0.0)
    lead = 2.0 * log(2.0 * n * features_per_point / spec.epsilon) / (n - 1)
    beta = lead * _safe_ratio(vhat, moments.diag)
    observables = {"vhat_loo": vhat, "features_per_point": features_per_point, "mode": "observable"}
    return _radius(beta, moments, observables)


def tr_basic_bounded(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """beta_h = 4 (B^2 + mean_train theta_h^2 Y^2 / mean_test theta_h^2) log(2m/eps) / N.

    The declared label bound B stands in for the hidden test-label term.
    """
    m, n = stats.m, stats.n_train
    ratio = _safe_ratio(stats.train_mean_sq_ysq, moments.diag)
    beta = 4.0 * (spec.B**2 + ratio) * log(2.0 * m / spec.epsilon) / n
    return _radius(beta, moments, {"mean_sq_ysq": stats.train_mean_sq_ysq, "mode": "deployment"})


def tr_first_order(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """First-order transductive bound (k_test = 1) with a fourth-moment term.

    Simulation mode (test labels known):
      beta_h = (8 log(4m/eps)/N) [ratio_h + sqrt(q4_h log(2m/eps) / (2N))]
    with q4_h = (1/N) sum over all 2N rows of theta_h^4 Y^4.

    Deployment mode substitutes the sub-exponential label majorant
    sup_i |Y_i| <= (1/b_y) log(2 N B_y / eps), giving
      beta_h = (8 log(8m/eps)/N) [ratio_h +
               sqrt(t4_h log(4m/eps) log(4 N B_y/eps)^4 / (2 N b_y^4))]
    with t4_h = (1/N) sum over all 2N rows of theta_h^4.
    """
    m, n = stats.m, stats.n_train
    eps = spec.epsilon
    ratio = _safe_ratio(stats.train_mean_sq_ysq, moments.diag)
    if stats.has_test_labels:
        q4 = stats.train_mean_t4y4 + stats.test_sum_t4y4 / n
        beta = (8.0 * log(4.0 * m / eps) / n) * (ratio + np.sqrt(q4 * log(2.0 * m / eps) / (2.0 * n)))
        mode = "simulation"
    elif spec.y_subexp is not None:
        b_y, big_y = spec.y_subexp
        t4 = stats.train_mean_t4 + stats.test_sum_t4 / n
        # log(4 N B_y / eps) as a sum stays finite for any finite B_y; a
        # fourth power past the float range raises OverflowError
        inner = t4 * log(4.0 * m / eps) * ((log(4.0 * n / eps) + log(big_y)) / b_y) ** 4 / (2.0 * n)
        beta = (8.0 * log(8.0 * m / eps) / n) * (ratio + np.sqrt(inner))
        mode = "deployment"
    else:
        raise ConfigError(
            "TrFirstOrder needs test labels (simulation) or sub-exponential label "
            "constants y_subexp = (b_y, B_y)"
        )
    return _radius(beta, moments, {"mean_sq_ysq": stats.train_mean_sq_ysq, "mode": mode})


def tr_variance(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """Variance-based transductive bound (k_test = 1).

    beta_h = pref * (4 log(4m/eps)/N) * V1_h / mean_test theta_h^2
             + pref * 2 (2 + sqrt 2) (log(6m/eps)/N)^{3/2} * sqrt(q4_h) / mean_test theta_h^2
    with pref = 1 / (1 - 2 log(4m/eps)/N), V1 the training variance of
    theta_h(X_i) Y_i, and q4_h the 1/N-normalized fourth moment over all 2N
    rows (hidden test labels majorized by B^4 in deployment mode).
    """
    m, n = stats.m, stats.n_train
    eps = spec.epsilon
    log4 = log(4.0 * m / eps)
    if n <= 2.0 * log4:
        raise ConfigError(
            f"variance bound inapplicable at this N/epsilon: need N > 2 log(4m/eps) = {2.0 * log4:.3f}"
        )
    if stats.has_test_labels:
        q4 = stats.train_mean_t4y4 + stats.test_sum_t4y4 / n
        mode = "simulation"
    elif spec.B is not None:
        q4 = stats.train_mean_t4y4 + (spec.B**4) * stats.test_sum_t4 / n
        mode = "deployment"
    else:
        raise ConfigError("TrVariance needs test labels (simulation) or the label bound 'B'")
    pref = 1.0 / (1.0 - 2.0 * log4 / n)
    lead = pref * (4.0 * log4 / n) * _safe_ratio(stats.train_var_ty, moments.diag)
    tail = pref * 2.0 * (2.0 + sqrt(2.0)) * (log(6.0 * m / eps) / n) ** 1.5
    beta = lead + tail * _safe_ratio(np.sqrt(q4), moments.diag)
    return _radius(beta, moments, {"v1": stats.train_var_ty, "prefactor": pref, "mode": mode})


def _general_k_bracket(vhat, log4, big_log, rate, n):
    """Bracket of the general-k bound: 2 vhat log4 / N + T3 + T4.

    T3 and T4 carry vhat in the denominator; zero numerators short-circuit
    to zero, otherwise vhat = 0 yields an infinite bracket.
    """
    lead = 2.0 * vhat * log4 / n
    num3 = 16.0 * log4**1.5 * big_log**3 / (3.0 * rate**3 * n**1.5)
    num4 = 64.0 * log4**2 * big_log**6 / (9.0 * rate**6 * n**2)
    t3 = _safe_ratio(num3, np.sqrt(vhat))
    t4 = _safe_ratio(num4, vhat**2)
    return lead + t3 + t4


def tr_general_k(stats: FeatureStats, moments: DesignMoments, spec: BoundSpec) -> ConfidenceRadius:
    """Transductive bound for a test block of k N points, any k >= 1.

    beta_h = (1 + 1/k)^2 / v_h * [2 vhat_h log(4m/eps)/N + T3 + T4], where
    vhat is the training variance of theta_h(X_i) Y_i substituted for the
    pooled variance, v_h the empirical test second moment, and T3, T4 the
    higher-order terms driven by log(4 (k+1) m N B_h / eps) and the
    sub-exponential rates beta_h.
    """
    m, n, k = stats.m, stats.n_train, stats.k_test
    pairs = spec.subexp
    if len(pairs) == 1:
        pairs = pairs * m
    if len(pairs) != m:
        raise ConfigError(f"subexp needs 1 or {m} (rate, bound) pairs, got {len(pairs)}")
    rates = np.array([p[0] for p in pairs])
    bigs = np.array([p[1] for p in pairs])
    log4 = log(4.0 * m / spec.epsilon)
    big_log = np.log(4.0 * (k + 1) * m * n * bigs / spec.epsilon)
    bracket = _general_k_bracket(stats.train_var_ty, log4, big_log, rates, n)
    pref = (1.0 + 1.0 / k) ** 2
    beta = pref * _safe_ratio(bracket, moments.diag)
    return _radius(beta, moments, {"vhat": stats.train_var_ty, "prefactor": pref, "mode": "observable"})


class VariantEntry(NamedTuple):
    """The declaration of one bound variant: its radius function, the
    ``FeatureStats`` fields it reads beyond ``train_mean_sq`` and
    ``train_mean_ty``, and the ``BoundSpec`` constants it reads in every
    mode. A train-side fourth moment brings its test-block sum along.
    ``transductive`` variants measure risk on the kN test points and
    project in the empirical test Gram; ``k_one`` ones are stated for k = 1
    only. Every radius takes ``(stats, moments, spec)`` and holds only its
    formula: ``compute_radius`` checks the row first."""

    radius: Callable[[FeatureStats, DesignMoments, BoundSpec], ConfidenceRadius]
    reads: tuple[str, ...]
    constants: tuple[str, ...] = ()
    transductive: bool = False
    k_one: bool = False


FOURTH_MOMENTS = ("train_mean_t4y4", "train_mean_t4")
LEAVE_ONE_OUT_SUMS = ("train_loo_sum_ty", "train_loo_sum_ty2")
VARIANT_TABLE = {
    "IndExact": VariantEntry(ind_exact, ("train_mean_sq_ysq",), ("B", "sigma2")),
    "IndVarFirstOrder": VariantEntry(ind_var_first_order, ("train_var_ty",)),
    "IndSvm": VariantEntry(ind_svm, LEAVE_ONE_OUT_SUMS),
    "TrBasicBounded": VariantEntry(tr_basic_bounded, ("train_mean_sq_ysq",), ("B",), transductive=True, k_one=True),
    "TrFirstOrder": VariantEntry(
        tr_first_order, ("train_mean_sq_ysq", *FOURTH_MOMENTS), transductive=True, k_one=True
    ),
    "TrVariance": VariantEntry(tr_variance, ("train_var_ty", *FOURTH_MOMENTS), transductive=True, k_one=True),
    "TrGeneralK": VariantEntry(tr_general_k, ("train_var_ty",), ("subexp",), transductive=True),
}
VARIANTS = tuple(VARIANT_TABLE)


class FeatureBlocks(NamedTuple):
    """A sample's features split at its N training rows (``split_features``).

    ``train()`` reads the (N, m) training features as ``row_blocks`` pairs:
    a rowwise dictionary evaluated one row block at a time, or the row views
    of a matrix evaluated once; ``test`` is the (kN, m) test block (no rows
    when it was left unevaluated); ``family`` is their dictionary, or None.
    """

    train: Callable[[], Iterator[tuple[slice, np.ndarray]]]
    test: np.ndarray
    family: FeatureDictionary | None


def feature_family(features) -> FeatureDictionary | None:
    """The dictionary ``features`` (one, its split or a feature matrix) reads; None for a matrix."""
    family = features.family if isinstance(features, FeatureBlocks) else features
    return family if isinstance(family, FeatureDictionary) else None


def split_features(features, data: Dataset, with_test: bool = True) -> FeatureBlocks:
    """The features of ``data.x`` split into their training and test sides.

    ``features`` is the dictionary or the ((k+1)N, m) feature matrix of
    ``data.x`` (a split is returned as it is); this is where the training
    rows' reader is chosen. A rowwise dictionary is evaluated on the test
    points alone, in one call, and on the training points, checked here with
    the sample, one row block at a time, so no (k+1)N x m array exists;
    without ``with_test`` its test block is left empty instead. Any other
    dictionary, like a given matrix, is evaluated once and read as row views.
    """
    if isinstance(features, FeatureBlocks):
        return features
    family, n = feature_family(features), data.n_train
    if family is not None and family.rowwise:
        if data.k_test and with_test:
            kn, cap = data.x.shape[0] - n, f"a kN x m test block must take at most {GRAM_BYTES_CAP / 2**30:g} GiB"
            dense_block(kn, family.m, f"{cap}; with kN = {kn} and dictionary m = {family.m} it")
        # Points are checked whole, so an error names the row in the sample.
        points = family.check_points(data.x)
        test = family.evaluate(points[n:]) if data.k_test and with_test else np.empty((0, family.m))
        read = partial(row_blocks, n, family.m, True, lambda rows: family.evaluate(points[rows]))
        return FeatureBlocks(read, test, family)
    matrix = as_feature_matrix(features if family is None else family.evaluate(data.x))
    if matrix.shape[0] != data.x.shape[0]:
        raise ConfigError(f"feature matrix has {matrix.shape[0]} rows, dataset expects {data.x.shape[0]}")
    return FeatureBlocks(partial(matrix_blocks, matrix[:n]), matrix[n:], family)


def sample_geometry(
    family: FeatureDictionary, data: Dataset, transductive: bool, design_moments: Callable[[], DesignMoments]
):
    """A fit's features and moments, as ``(features, moments)``: the two
    geometries of one estimator. A transductive fit projects in the test
    block's empirical Gram, so it gets the split of the sample
    (``split_features``) and the moments of its test block, which predict
    as ``moments.block @ c``; an inductive one gets the family and
    ``design_moments()``, which is called for an inductive fit alone."""
    if transductive:
        split = split_features(family, data)
        return split, design.empirical_test_moments(split.test)
    return family, design_moments()


# The reads beyond the first moments that a family's ``column_sums`` give on
# a sample without a test block.
ADJOINT_READS = frozenset({"train_mean_sq_ysq", "train_var_ty"})


def compute_stats(features, data: Dataset, variants=VARIANTS, loo_index=None) -> FeatureStats:
    """Accumulate the statistics that the given bound variants read from the
    features of ``data.x``: means over the N training rows, sums over the
    kN test rows.

    ``features`` is a ``FeatureBlocks`` split, or the dictionary or
    ((k+1)N, m) matrix for ``split_features`` to split, whose ``train()``
    reads the training rows (a rowwise dictionary's never exist as an N x m
    array); the test rows of a rowwise dictionary are evaluated only for the
    fourth moments, the one statistic summed over them.

    The training means of theta_k^2 and theta_k Y are always computed (slab
    centers, alpha_hat and the degeneracy mask read them). Beyond those,
    each variant reads its entry of ``VARIANT_TABLE``:

    - IndExact, TrBasicBounded: ``train_mean_sq_ysq``;
    - IndVarFirstOrder, TrGeneralK: ``train_var_ty``;
    - IndSvm: the leave-one-out sums and m' (``features_per_point``), for
      the anchor map ``loo_index`` (None without one);
    - TrFirstOrder: ``train_mean_sq_ysq`` and the fourth moments;
    - TrVariance: ``train_var_ty`` and the fourth moments.

    The fourth moments are those of both modes: ``train_mean_t4`` with
    ``test_sum_t4`` (deployment; the test sum when there is a test block),
    and ``train_mean_t4y4`` with ``test_sum_t4y4`` (simulation; the test sum
    when the hidden test labels are known). Statistics no given variant
    reads are None; the default computes them all.

    On a sample without a test block, for variants that read nothing
    beyond ``ADJOINT_READS``, the family's ``column_sums`` give the sums
    without its feature rows. Otherwise, or where they are None or
    overflow, both sides are walked in row blocks (``row_blocks``), the
    test block as a matrix's rows, so no temporary is as large as either of
    them, and every statistic is bitwise that of reducing the whole matrix
    at once. The leave-one-out sums subtract each anchor's own product,
    gathered from the block that holds its row, from the column sums.
    """
    reads = set()
    for variant in variants:
        if variant not in VARIANT_TABLE:
            raise ConfigError(f"unknown bound variant {variant!r}; choose from {VARIANTS}")
        reads.update(VARIANT_TABLE[variant].reads)
    split = split_features(features, data, with_test=not reads.isdisjoint(FOURTH_MOMENTS))
    n, m = data.n_train, split.test.shape[1]
    has_test_labels = data.k_test > 0 and data.hidden_y is not None
    anchors = None
    if "train_loo_sum_ty" in reads and loo_index is not None:
        anchors = np.asarray(loo_index, dtype=int)
        if anchors.shape != (m,):
            raise ConfigError(f"loo_index must map each of the {m} features to a training row")
        if anchors.min(initial=0) < 0 or anchors.max(initial=0) >= n:
            raise ConfigError("loo_index entries must be valid training rows")
    column_sums = own = None
    if split.family is not None and data.k_test == 0 and reads <= ADJOINT_READS:
        # the split has checked the points; on an overflow the row walk decides
        try:
            with np.errstate(over="raise"):
                column_sums = split.family.column_sums(data.x, data.y)
        except FloatingPointError:
            pass
    if column_sums is None:
        sums, own = _row_block_sums(split.train, split.test, data, reads, anchors, has_test_labels)
    else:
        ty, squares, ty2 = column_sums  # (theta y)^2 = theta^2 y^2, for both reads
        sums = {"train_mean_sq": squares, "train_mean_ty": ty}
        if "train_mean_sq_ysq" in reads:
            sums["train_mean_sq_ysq"] = ty2
        if "train_var_ty" in reads:
            sums["train_mean_ty2"] = ty2
    out = {}
    if anchors is not None:
        out["train_loo_sum_ty"] = sums["train_mean_ty"] - own
        out["train_loo_sum_ty2"] = sums["train_mean_ty2"] - own**2
        out["features_per_point"] = int(np.bincount(anchors).max())
    # training statistics are means over the N rows; the test ones stay sums
    for name, total in sums.items():
        out[name] = total if name.startswith("test_") else total / n
    mean_ty2 = out.pop("train_mean_ty2", None)
    if "train_var_ty" in reads:
        out["train_var_ty"] = np.maximum(mean_ty2 - out["train_mean_ty"] ** 2, 0.0)
    return FeatureStats(n_train=n, k_test=data.k_test, has_test_labels=has_test_labels, **out)


def _row_block_sums(train, test, data: Dataset, reads, anchors, has_test_labels) -> tuple[dict, np.ndarray | None]:
    """``compute_stats``' column sums from the row blocks of the training
    rows and of the test block, and, with ``anchors``, each feature's
    product on its anchor row (else None). An overflow in a block is a
    DataError (``no_overflow``)."""
    sums, own = {}, None

    def add(name, values):
        sums[name] = carry_sum(sums.get(name), values)

    if anchors is not None:
        own = np.empty(anchors.size)
        cols = np.arange(anchors.size)
    for rows, t in train():
        require_finite(t)
        with no_overflow("training", rows):
            y = data.y[rows, None]
            ty = t * y
            t2 = t**2
            if "train_mean_sq_ysq" in reads:
                add("train_mean_sq_ysq", t2 * y**2)
            if "train_mean_t4" in reads:
                add("train_mean_t4", t2**2)
            add("train_mean_sq", t2)
            if "train_var_ty" in reads or anchors is not None:
                add("train_mean_ty2", ty**2)
            if "train_mean_t4y4" in reads:
                add("train_mean_t4y4", ty**4)
            if anchors is not None:
                held = (anchors >= rows.start) & (anchors < rows.stop)
                own[held] = ty[anchors[held] - rows.start, cols[held]]
            add("train_mean_ty", ty)
    for rows, t in matrix_blocks(test):
        require_finite(t)
        with no_overflow("test", rows):
            if "train_mean_t4" in reads:
                add("test_sum_t4", t**4)
            if "train_mean_t4y4" in reads and has_test_labels:
                add("test_sum_t4y4", (t * data.hidden_y[rows, None]) ** 4)
    return sums, own


def compute_radius(spec: BoundSpec, stats: FeatureStats, moments: DesignMoments) -> ConfidenceRadius:
    """The radii of the variant's row of ``VARIANT_TABLE``, behind the one
    gate of every formula, which checks in order: the same m in statistics
    and moments, the statistics the row reads, its geometry, its constants.
    A radius past the float range, or not finite for an active feature (a
    degenerate one's infinity is deliberate), is a NumericalError."""
    entry = VARIANT_TABLE[spec.variant]
    if stats.m != moments.m:
        raise ConfigError(f"dictionary has {stats.m} features but moments cover {moments.m}")
    missing = [name for name in entry.reads if getattr(stats, name) is None]
    if missing:
        also = ", which needs loo_index mapping features to training rows" if entry.reads == LEAVE_ONE_OUT_SUMS else ""
        raise ConfigError(
            f"{spec.variant} reads {', '.join(missing)}, which these statistics lack; "
            f"compute them with compute_stats for variant {spec.variant!r}{also}"
        )
    _require_geometry(entry, spec, stats, moments)
    for name in entry.constants:
        if getattr(spec, name) is None:
            raise ConfigError(f"{spec.variant} needs the bound constant {name!r}")
    try:
        with np.errstate(over="raise"):
            radius = entry.radius(stats, moments, spec)
    except (OverflowError, FloatingPointError):  # finite constants whose radius is past the float range
        raise NumericalError(f"{spec.variant} radius overflows with bound constants {spec.to_json_dict()}") from None
    bad = np.flatnonzero(~moments.degenerate & ~stats.train_degenerate & ~np.isfinite(radius.beta))
    if bad.size:
        raise NumericalError(f"{spec.variant} radius is not finite for {bad.size} active feature(s) (first index {bad[0] + 1})")
    return radius


def alpha_hat(stats: FeatureStats) -> np.ndarray:
    """Training least squares coefficient per feature (NaN where degenerate)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(stats.train_mean_sq > 0.0, stats.train_mean_ty / stats.train_mean_sq, np.nan)


def normalization_ratio(stats: FeatureStats, moments: DesignMoments) -> np.ndarray:
    """Ratio of the training second moment to the design second moment."""
    return _safe_ratio(stats.train_mean_sq, moments.diag)


def slab_centers(stats: FeatureStats, moments: DesignMoments) -> np.ndarray:
    """Recentred coefficient C_k * alpha_hat_k = (mean theta_k Y) / v_k.

    Degenerate features (zero design moment) get a zero center; they are
    excluded from selection anyway.
    """
    v = moments.diag
    return np.where(v > 0.0, stats.train_mean_ty / np.where(v > 0.0, v, 1.0), 0.0)


class Slabs(NamedTuple):
    """One fit's confidence slabs: radii, centers, and the mask of features
    with nonzero design and training second moments."""

    radius: ConfidenceRadius
    centers: np.ndarray
    active: np.ndarray


def slab_setup(features, data: Dataset, moments: DesignMoments, spec: BoundSpec, loo_index=None) -> Slabs:
    """Build every feature's slab from the statistics the variant reads (not
    kept), once features, moments and variant are checked to agree.
    ``features`` is the dictionary, the feature matrix of ``data.x`` or
    their ``FeatureBlocks`` split, as in ``compute_stats``."""
    stats = compute_stats(features, data, (spec.variant,), loo_index=loo_index)
    radius = compute_radius(spec, stats, moments)
    centers = slab_centers(stats, moments)
    return Slabs(radius, centers, ~moments.degenerate & ~stats.train_degenerate)
