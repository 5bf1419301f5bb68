"""Synthetic data, exact risk evaluation, coverage studies and rate harnesses.

Truths are finite coefficient vectors in an orthonormal family (trigonometric
or Haar) on the uniform design over [0, 1], so excess risks are exact
Parseval sums and no quadrature enters the oracles. All randomness flows
through one seeded generator per replicate with derived integer sub-seeds;
replicates are independent and reports are bit-reproducible given (seed,
config) at any thread count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from .bounds import VARIANT_TABLE, BoundSpec, sample_geometry, slab_setup
from .data import Dataset
from .dictionary import ORTHONORMAL_KINDS, Haar, Trigonometric, carry_sum, matrix_blocks
from .errors import LEVELS_CAP, REQUIRED, SIZE_CAP, ConfigError, count, list_of, number, optional, read, read_kind, text
from .errors import seed as seed_kind
from .moments import exact_moments
from .selector import SelectionModel, clip_coefficients, run_selection

NOISE_KINDS = ("gaussian", "uniform", "rademacher", "none")
# A noise spec's keys; NoiseSpec checks their domains.
NOISE_KEYS = {"kind": (text, "gaussian"), "scale": (number, 0.0)}


@dataclass(frozen=True)
class NoiseSpec:
    """Centered noise: gaussian(scale), uniform(+-scale) or rademacher(+-scale)."""

    kind: str = "gaussian"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.scale < 0:
            raise ConfigError(f"noise scale must be >= 0, got {self.scale}")
        try:
            self.second_moment
        except OverflowError:
            raise ConfigError(f"noise scale must be small enough to square, got {self.scale}") from None

    @property
    def second_moment(self) -> float:
        if self.kind == "gaussian":
            return self.scale**2
        if self.kind == "uniform":
            return self.scale**2 / 3.0
        if self.kind == "rademacher":
            return self.scale**2
        return 0.0

    @property
    def bound(self) -> float | None:
        """Almost-sure bound on |noise|, None when unbounded."""
        if self.kind == "gaussian" and self.scale > 0:
            return None
        return 0.0 if self.kind == "none" else self.scale

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.scale, size=n)
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, size=n)
        if self.kind == "rademacher":
            return self.scale * (2.0 * rng.integers(0, 2, size=n) - 1.0)
        return np.zeros(n)

    @classmethod
    def from_spec(cls, obj):
        return cls(**read(obj, NOISE_KEYS, "noise."))


@dataclass(frozen=True, eq=False)
class SyntheticModel:
    """Regression truth Y = f(X) + noise with f a finite expansion.

    ``coefficients[k-1]`` multiplies the k-th member of the orthonormal
    family named by ``basis``; the design is uniform on [0, 1].
    """

    coefficients: np.ndarray
    basis: str = "Trigonometric"
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.ndim != 1 or coefs.size < 1 or not np.all(np.isfinite(coefs)):
            raise ConfigError("truth coefficients must be a finite 1-d vector")
        object.__setattr__(self, "coefficients", coefs)
        self.family()

    @property
    def size(self) -> int:
        return self.coefficients.size

    def family(self, m: int | None = None) -> Trigonometric | Haar:
        """The orthonormal family named by ``basis``, with m members (the
        truth's size by default)."""
        m = self.size if m is None else int(m)
        if self.basis == "Trigonometric":
            return Trigonometric(m)
        if self.basis != "Haar":
            raise ConfigError(f"truth basis must be one of {ORTHONORMAL_KINDS}, got {self.basis!r}")
        if m & (m - 1) or m < 2:
            raise ConfigError("haar family sizes must be powers of two >= 2")
        return Haar(int(np.log2(m)) - 1)

    def f_values(self, x) -> np.ndarray:
        return self.family().combine(self.coefficients, x)

    def sup_bound(self) -> float:
        """Certified upper bound on sup |f| over [0, 1] (the family's ``sup_bound``);
        a ConfigError when finite coefficients give no finite bound."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self.family().sup_bound(self.coefficients)
        if not np.isfinite(bound):
            raise ConfigError(f"model.coefficients must be small enough for a finite sup bound, got {bound}")
        return bound

    def label_bound(self) -> float | None:
        """Almost-sure bound on |Y|, None when the noise is unbounded."""
        nb = self.noise.bound
        return None if nb is None else self.sup_bound() + nb

    @classmethod
    def from_spec(cls, obj):
        values = read(obj, MODEL_KEYS, "model.")
        del values["regularity"]  # a reporting tag, which only the config echo carries
        return cls(**values)


def _noise(value, name):  # a noise spec's errors name ``noise`` as a key of its own
    return NoiseSpec.from_spec(value)


# The keys of a truth given by its coefficients, and of each truth given by
# its family (whose noise defaults to the family's, uniform 0.05).
MODEL_KEYS = {
    "coefficients": (list_of(number), REQUIRED),
    "basis": (text, "Trigonometric"),
    "regularity": (optional(number), None),
    "noise": (_noise, NoiseSpec()),
}
FAMILY_KEYS = {"smoothness": (number, 1.0), "scale": (number, 1.0)}
TRUTH_KEYS = {
    "sobolev": {**FAMILY_KEYS, "size": (count(SIZE_CAP), None), "noise": (_noise, None)},
    "besov": {**FAMILY_KEYS, "levels": (count(LEVELS_CAP), 11), "seed": (seed_kind, 0), "noise": (_noise, None)},
}


def truth(spec: dict | None, size: int) -> SyntheticModel:
    """The truth a ``model`` spec names: one given by its coefficients, or a
    ``sobolev`` (the default) or ``besov`` family; a sobolev truth whose
    spec gives no ``size`` has ``size`` coefficients."""
    if spec is None:
        return sobolev_model(size=size)
    if "coefficients" in spec:
        return SyntheticModel.from_spec(spec)
    kind, values = read_kind(spec, TRUTH_KEYS, "model.", "sobolev")
    if kind == "besov":
        return besov_spike_model(**values)
    return sobolev_model(**{**values, "size": values["size"] or size})


def sobolev_model(
    smoothness: float = 1.0,
    size: int = 4096,
    scale: float = 1.0,
    noise: NoiseSpec | None = None,
) -> SyntheticModel:
    """Alternating-sign coefficient decay scale * (-1)^(k+1) k^(-(s + 1/2) - 0.01).

    The squared tail beyond m is O(m^{-2s}), the smoothness-s regularity the
    rate experiment targets.
    """
    if smoothness <= 0 or size < 1:
        raise ConfigError("sobolev model needs smoothness > 0 and size >= 1")
    k = np.arange(1, size + 1, dtype=float)
    coefs = scale * ((-1.0) ** (k + 1)) * k ** (-(smoothness + 0.5) - 0.01)
    return SyntheticModel(
        coefficients=coefs,
        basis="Trigonometric",
        noise=noise if noise is not None else NoiseSpec("uniform", 0.05),
    )


def besov_spike_model(
    smoothness: float = 1.0,
    levels: int = 11,
    scale: float = 1.0,
    noise: NoiseSpec | None = None,
    seed: int = 0,
) -> SyntheticModel:
    """Sparse Haar truth: one spike per level with magnitude scale * 2^{-j(s+1/2)}.

    Spike positions are drawn once from the seed, kept fixed across the
    experiment. The truth is a sparse member of the sup-type (q = infinity)
    Besov ball B^s_{inf,inf}, not its least favourable function, so a rate
    run on it shows the estimator at least as fast as the minimax rate.
    """
    if smoothness <= 0 or levels < 1:
        raise ConfigError("besov model needs smoothness > 0 and levels >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    coefs = np.zeros(2**levels)
    coefs[0] = scale
    col = 1
    for j in range(levels - 1):
        width = 2**j
        pos = int(rng.integers(0, width))
        coefs[col + pos] = scale * 2.0 ** (-j * (smoothness + 0.5))
        col += width
    return SyntheticModel(
        coefficients=coefs,
        basis="Haar",
        noise=noise if noise is not None else NoiseSpec("uniform", 0.05),
    )


def generate(model: SyntheticModel, n_train: int, k_test: int = 0, seed: int = 0) -> Dataset:
    """Draw (k+1)N i.i.d. pairs; test labels are stored as hidden_y."""
    if n_train < 1 or k_test < 0:
        raise ConfigError("generate needs n_train >= 1 and k_test >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = (k_test + 1) * n_train
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = model.f_values(x) + model.noise.draw(rng, n)
    return Dataset(x=x, y=y[:n_train], hidden_y=y[n_train:] if k_test > 0 else None)


def exact_excess_risk(model: SyntheticModel, coefficients) -> float:
    """||theta_c - f||^2 under the design, as an exact Parseval sum over
    coefficients in the truth's orthonormal family."""
    c = np.asarray(coefficients, dtype=float)
    f = model.coefficients
    width = max(c.size, f.size)
    cc = np.zeros(width)
    cc[: c.size] = c
    ff = np.zeros(width)
    ff[: f.size] = f
    return float(((cc - ff) ** 2).sum())


@dataclass
class ExperimentReport:
    """Flat replicate rows plus the aggregates the experiment defines: its
    results alone, for its inputs are the caller's to record (the CLI
    echoes its resolved config). No timing, so identical (config, seed)
    runs produce identical bytes."""

    rows: list
    medians: dict | None = None
    slope: float | None = None
    slope_stderr: float | None = None
    coverage: float | None = None
    extras: dict = field(default_factory=dict)
    partial: bool = False

    def to_json_dict(self) -> dict:
        out = {"rows": self.rows, "partial": self.partial}
        if self.medians is not None:
            out["medians"] = {str(k): v for k, v in sorted(self.medians.items())}
        if self.slope is not None:
            out["slope"] = self.slope
            out["slope_stderr"] = self.slope_stderr
        if self.coverage is not None:
            out["coverage"] = self.coverage
        if self.extras:
            out["extras"] = self.extras
        return out

    def csv_text(self) -> str:
        lines = ["N,replicate,mse,coverage_event,seed"]
        for row in self.rows:
            event = row.get("coverage_event")
            event_txt = "" if event is None else str(int(event))
            mse = row.get("mse")
            mse_txt = "" if mse is None else repr(mse)
            lines.append(f"{row['N']},{row['replicate']},{mse_txt},{event_txt},{row['seed']}")
        return "\n".join(lines) + "\n"


def _ols_loglog(ns, medians):
    x = np.log(np.asarray(ns, dtype=float) / np.log(np.asarray(ns, dtype=float)))
    y = np.log(np.asarray(medians, dtype=float))
    xd = x - x.mean()
    sxx = float(xd @ xd)
    slope = float(xd @ (y - y.mean())) / sxx
    resid = y - (y.mean() + slope * xd)
    dof = max(len(x) - 2, 1)
    stderr = sqrt(float(resid @ resid) / dof / sxx)
    return slope, stderr


def _per_feature_excess_inductive(model: SyntheticModel, centers: np.ndarray) -> np.ndarray:
    """Excess risk of each recentred one-feature fit over its best predictor.

    Under orthonormal moments this is (center_k - f_k)^2, with the truth f
    padded or truncated to the m features.
    """
    m = centers.shape[0]
    truth = np.zeros(m)
    upto = min(m, model.size)
    truth[:upto] = model.coefficients[:upto]
    return (centers - truth) ** 2


def _per_feature_excess_transductive(hidden_y, centers, moments) -> np.ndarray:
    """Test-risk excess of each recentred one-feature fit, from the test
    moments (their block and its column sums of squares) and the block's
    hidden labels. The label sums are carried over the block's rows
    (``matrix_blocks``), so no temporary is as large as the block, with the
    bits of reducing the whole block at once."""
    num = None
    for rows, t in matrix_blocks(moments.block):
        num = carry_sum(num, t * hidden_y[rows, None])
    den = moments.sum_squares
    alpha2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return moments.diag * (centers - alpha2) ** 2


def _covered(model: SyntheticModel, data: Dataset, moments, spec: BoundSpec, slabs) -> bool:
    """Whether every feature's excess is within its radius: the test-risk
    excess for a transductive spec, else the exact one."""
    if spec.transductive:
        excess = _per_feature_excess_transductive(data.hidden_y, slabs.centers, moments)
    else:
        excess = _per_feature_excess_inductive(model, slabs.centers)
    return bool(np.all(excess <= slabs.radius.beta * (1 + 1e-12) + 1e-15))


def _replicate(model: SyntheticModel, family, spec: BoundSpec, n_train: int, k_test: int, seed: int):
    """One replicate's sample and the spec's geometry (``sample_geometry``),
    as ``(data, features, moments)``; an inductive replicate's moments are
    the family's exact ones."""
    data = generate(model, n_train, k_test, seed=seed)
    return (data, *sample_geometry(family, data, spec.transductive, lambda: exact_moments(family)))


def _study(model: SyntheticModel, sizes, replicates, seed, threads, setup, columns, budget_seconds=None):
    """The one replicate loop of every experiment, as ``(rows, partial)``.

    Every child seed is drawn first, so a bad count fails before any
    replicate runs. ``setup(n)`` gives a size's ``(family, spec, k_test)``;
    a replicate is a sample with the spec's geometry (``_replicate``) and the
    row ``{N, replicate, seed, **columns(data, features, moments, spec)}``.
    The budget is checked between sizes, and one size's replicates run as a
    block (threaded when threads > 1), so rows never depend on timing or
    thread count."""
    if replicates < 1:
        raise ConfigError(f"replicates must be at least 1, got {replicates}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    seeds = rng.integers(0, 2**63 - 1, size=len(sizes) * replicates, dtype=np.int64).tolist()
    start = time.monotonic()
    rows = []
    for i, n in enumerate(sizes):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            return rows, True
        family, spec, k_test = setup(n)
        size_seeds = seeds[i * replicates : (i + 1) * replicates]

        def one(r):
            replicate = _replicate(model, family, spec, n, k_test, size_seeds[r])
            return {"N": n, "replicate": r, "seed": size_seeds[r], **columns(*replicate, spec)}

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor  # only threaded studies pay its import

            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows.extend(pool.map(one, range(replicates)))
        else:
            rows.extend(map(one, range(replicates)))
    return rows, False


def _study_spec(spec, variant, model, epsilon, family_m):
    """The given bound spec, which must be the ``variant`` at ``epsilon``
    that the report records, or else the honest one for the model."""
    if spec is None:
        return _auto_bound_spec(variant, model, epsilon, family_m=family_m)
    if (spec.variant, spec.epsilon) != (variant, epsilon):
        raise ConfigError(
            f"bound spec is for {spec.variant} at epsilon {spec.epsilon}, "
            f"the study for {variant} at epsilon {epsilon}"
        )
    return spec


def _auto_bound_spec(variant, model, epsilon, family_m=None):
    """Honest BoundSpec for a synthetic model, or ConfigError on mismatch:
    the constants of the variant's row of ``VARIANT_TABLE``, each computed
    only then. B is sup |f| in the inductive geometry and the label bound in
    the transductive one; replicates keep their hidden labels, so constants
    of deployment mode alone are never set."""
    entry = VARIANT_TABLE.get(variant)
    if entry is None:
        raise ConfigError(f"studies derive no bound spec for variant {variant!r}")
    if entry.transductive and entry.constants:  # each derives from the label bound
        label_bound = model.label_bound()
        if label_bound is None:
            raise ConfigError(f"{variant} needs bounded labels; the model's noise is unbounded")

    def subexp():
        theta_ty = model.family(max(model.size, family_m or 0)).feature_sup * label_bound
        if not isfinite(theta_ty):
            raise ConfigError(f"model.coefficients must be small enough for a finite sup |theta Y|, got {theta_ty}")
        # P exp(rate |theta Y|) <= e when rate = 1 / sup|theta Y|
        return ((1.0 / max(theta_ty, 1e-12), float(np.e)),)

    derive = {
        "B": lambda: label_bound if entry.transductive else model.sup_bound(),
        "sigma2": lambda: model.noise.second_moment,
        "subexp": subexp,
    }
    return BoundSpec(variant, epsilon, **{name: derive[name]() for name in entry.constants})


def _one_size_study(model, spec, n_train, m, replicates, seed, k_test, threads, columns) -> ExperimentReport:
    """A coverage or transductive study: ``_study`` at the one size N with
    the family of m members; k_test defaults to 1 for a transductive spec
    and 0 otherwise."""
    if k_test is None:
        k_test = 1 if spec.transductive else 0
    if spec.transductive and k_test < 1:
        raise ConfigError(f"k_test must be at least 1 for the transductive variant {spec.variant}, got {k_test}")
    family = model.family(m)
    rows, _ = _study(model, [n_train], replicates, seed, threads, lambda n: (family, spec, k_test), columns)
    return ExperimentReport(rows=rows, coverage=float(np.mean([row["coverage_event"] for row in rows])))


def coverage_study(
    variant: str,
    model: SyntheticModel,
    n_train: int,
    m: int,
    epsilon: float,
    replicates: int,
    seed: int = 0,
    k_test: int | None = None,
    threads: int = 1,
    spec: BoundSpec | None = None,
) -> ExperimentReport:
    """Fraction of replicates on which the bound event holds for all features.

    Inductive variants check the exact excess risk against beta via the risk
    oracle; transductive variants check the test-risk excess using the
    retained hidden labels.
    """
    if replicates < 100:
        raise ConfigError("coverage studies need at least 100 replicates")
    if variant == "IndSvm":
        raise ConfigError(
            "coverage study does not support IndSvm: its population projections "
            "are not available in closed form for data-dependent dictionaries"
        )
    spec = _study_spec(spec, variant, model, epsilon, m)

    def columns(data, features, moments, spec):
        slabs = slab_setup(features, data, moments, spec)
        return {"mse": None, "coverage_event": _covered(model, data, moments, spec, slabs)}

    return _one_size_study(model, spec, n_train, m, replicates, seed, k_test, threads, columns)


def rate_experiment(
    model: SyntheticModel,
    grid,
    replicates: int,
    seed: int = 0,
    sigma_scale: float = 1.0,
    threads: int = 1,
    budget_seconds: float | None = None,
) -> ExperimentReport:
    """Risk decay of the one-pass estimator over a grid of sample sizes.

    Follows the adaptive-rate recipe: epsilon = N^-2; m = N for the
    trigonometric family, the largest power of two <= N for Haar. Each
    replicate fits with the exact-hypothesis bound, clips coefficients at the
    truth's sup bound, and scores the exact excess risk. The fitted slope is
    OLS of log median risk against log(N / log N). ``sigma_scale`` misdeclares
    the noise level to the bound for sensitivity runs (data are unchanged).
    """
    grid = sorted({int(n) for n in grid})
    if len(grid) < 4 or any(n < 32 for n in grid):
        raise ConfigError("rate experiments need a grid of at least 4 distinct sizes, each >= 32")
    if budget_seconds is not None and not budget_seconds > 0.0:
        raise ConfigError(f"budget_seconds must be positive, got {budget_seconds}")
    sup = model.sup_bound()
    try:
        sigma2 = model.noise.second_moment * sigma_scale**2
    except OverflowError:
        raise ConfigError(f"sigma_scale must be small enough to square, got {sigma_scale}") from None

    def setup(n):
        family = model.family(n if model.basis == "Trigonometric" else 2 ** int(np.log2(n)))
        return family, BoundSpec("IndExact", float(n) ** -2, B=sup, sigma2=sigma2), 0

    def columns(data, features, moments, spec):
        fit = clip_coefficients(run_selection(data, features, moments, spec, schedule="RoundRobin"), sup)
        return {"mse": exact_excess_risk(model, fit.coefficients), "coverage_event": None}

    rows, partial = _study(model, grid, replicates, seed, threads, setup, columns, budget_seconds)
    done = grid[: len(rows) // replicates]
    medians = {n: float(np.median([row["mse"] for row in rows if row["N"] == n])) for n in done}
    slope, stderr = _ols_loglog(done, list(medians.values())) if len(done) >= 3 else (None, None)
    return ExperimentReport(
        rows=rows,
        medians=medians or None,
        slope=slope,
        slope_stderr=stderr,
        partial=partial,
    )


def transductive_experiment(
    model: SyntheticModel,
    n_train: int,
    k_test: int,
    m: int,
    variant: str = "TrBasicBounded",
    epsilon: float = 0.1,
    replicates: int = 100,
    seed: int = 0,
    threads: int = 1,
    spec: BoundSpec | None = None,
) -> ExperimentReport:
    """End-to-end transductive fits scored on the hidden test labels.

    Reports per-replicate test mse, the frequency of the per-step risk
    decrease chain r2(new) <= r2(old) - d2^2(new, old), and bound coverage.
    """
    entry = VARIANT_TABLE.get(variant)
    if entry is None or not entry.transductive:
        raise ConfigError(f"transductive experiments need a transductive variant, got {variant}")
    spec = _study_spec(spec, variant, model, epsilon, m)

    def columns(data, features, moments, spec):
        fit = run_selection(data, features, moments, spec, schedule="GreedyMax")
        hidden = data.hidden_y
        return {
            "mse": float(np.mean((hidden - moments.block @ fit.coefficients) ** 2)),
            "coverage_event": _covered(model, data, moments, spec, fit.slabs),
            "chain_ok": _chain_holds(fit, moments.block, hidden),
            "zero_mse": float(np.mean(hidden**2)),
            "steps": fit.stopped_at,
        }

    report = _one_size_study(model, spec, n_train, m, replicates, seed, k_test, threads, columns)
    rows = report.rows
    report.extras = {
        "chain_fraction": float(np.mean([row["chain_ok"] for row in rows])),
        "beats_zero_fraction": float(np.mean([row["mse"] < row["zero_mse"] for row in rows])),
        "mean_steps": float(np.mean([row["steps"] for row in rows])),
    }
    return report


def _chain_holds(fit: SelectionModel, test_feats: np.ndarray, hidden: np.ndarray, slack: float = 1e-9) -> bool:
    """Replay the trace and verify r2 drops by at least each step's delta."""
    preds = np.zeros(test_feats.shape[0])
    r2 = float(np.mean((hidden - preds) ** 2))
    for record in fit.trace:
        preds = preds + record.update * test_feats[:, record.feature - 1]
        r2_next = float(np.mean((hidden - preds) ** 2))
        if r2_next > r2 - record.delta + slack:
            return False
        r2 = r2_next
    return True

