"""Iterative feature selection by projection onto per-feature confidence slabs.

The state is a coefficient vector c over the dictionary. For feature k the
signed residual in coefficient units is

    gamma_k = center_k - (1/v_k) sum_j c_j G[j, k],

the distance from the current point to the slab center along theta_k in the
geometry of the active Gram matrix G. Projecting onto the slab soft
thresholds gamma at tau_k = sqrt(beta_k / v_k): the coefficient moves by
sgn(gamma) (|gamma| - tau)_+ and the squared ambient movement is
delta_k = v_k (|gamma_k| - tau_k)_+^2. The loop greedily applies the best
projection (or cycles round robin) until the best available improvement
drops below kappa.

GreedyMax applies that last, sub-kappa projection before it stops, so the
trace's last record may have delta < kappa. The stop certificate (every
active feature's movement below kappa) holds at the point before that
record; on a dense Gram the final projection can raise another feature's
movement above kappa at the returned coefficients.

The same engine serves the inductive setting (design moments) and the
transductive one (empirical test moments); only the Gram differs, and
``bounds.sample_geometry`` builds either from a sample.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .bounds import VARIANTS, BoundSpec, Slabs, feature_family, slab_setup
from .data import Dataset
from .dictionary import FeatureDictionary, from_spec as dictionary_from_spec
from .errors import REQUIRED, ConfigError, NumericalError, boolean, choice, count, json_object, list_of, number
from .errors import nonnegative, optional, probability, read, seed, spec_of, text
from .moments import DesignMoments

SCHEDULES = ("GreedyMax", "RoundRobin")
DEFAULT_MAX_ITERATIONS = 1_000_000


@dataclass(frozen=True)
class IterationRecord:
    """One applied projection: step index, 1-based feature, residual, threshold,
    squared movement and the signed coefficient increment."""

    n: int
    feature: int
    gamma: float
    tau: float
    delta: float
    update: float

    def to_json_dict(self):
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj):
        return cls(**read(obj, RECORD_KEYS, "model trace "))


@dataclass(frozen=True, eq=False)
class SelectionModel:
    """Fitted coefficients plus the full projection trace and run metadata.
    ``slabs`` are the slabs the fit projected onto, in memory only: never
    serialized, and None on a model read back from JSON. Models compare and
    hash by identity, like every record that holds arrays."""

    coefficients: np.ndarray
    trace: tuple
    bound_variant: str
    epsilon: float
    kappa: float
    schedule: str
    dictionary: FeatureDictionary | None = None
    moments_provenance: str = "?"
    orthonormal_design: bool = False
    clip_bound: float | None = None
    seed: int | None = None
    slabs: Slabs | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def stopped_at(self) -> int:
        return len(self.trace)

    @property
    def m(self) -> int:
        return self.coefficients.shape[0]

    @property
    def selected(self) -> np.ndarray:
        return np.nonzero(self.coefficients != 0.0)[0] + 1

    def to_json_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "dictionary": None if self.dictionary is None else self.dictionary.spec(),
            "coefficients": self.coefficients.tolist(),
            "bound_variant": self.bound_variant,
            "epsilon": self.epsilon,
            "kappa": self.kappa,
            "schedule": self.schedule,
            "moments_provenance": self.moments_provenance,
            "orthonormal_design": self.orthonormal_design,
            "clip_bound": self.clip_bound,
            "seed": self.seed,
            "stopped_at": self.stopped_at,
            "trace": [r.to_json_dict() for r in self.trace],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SelectionModel":
        """The model a ``to_json_dict`` object describes, read through
        ``SAVED_MODEL_KEYS``: a missing, unknown or malformed key, or
        coefficients, ``stopped_at`` or a trace feature that disagree with
        the dictionary's m or the trace, is a ConfigError naming it."""
        values = read(obj, SAVED_MODEL_KEYS, "model ")
        stopped_at = values.pop("stopped_at")
        del values["tool_version"], values["config"]
        model = cls(**values)
        if model.dictionary is not None and model.m != model.dictionary.m:
            raise ConfigError(f"model coefficients must number {model.dictionary.m}, the dictionary's m, got {model.m}")
        if stopped_at not in (None, model.stopped_at):
            raise ConfigError(f"model stopped_at must be the trace length {model.stopped_at}, got {stopped_at}")
        outside = [record.feature for record in model.trace if record.feature > model.m]
        if outside:
            raise ConfigError(f"model trace feature must be in 1..{model.m}, got {outside[0]}")
        return model


# The keys of a saved trace record and of a saved model: those that
# ``to_json_dict`` writes, and the ``config`` the CLI echoes, which is not
# kept. Counts are read uncapped: no count here sizes an allocation.
RECORD_KEYS = {
    "n": (count(sys.maxsize), REQUIRED),
    "feature": (count(sys.maxsize), REQUIRED),
    "gamma": (number, REQUIRED),
    "tau": (number, REQUIRED),
    "delta": (number, REQUIRED),
    "update": (number, REQUIRED),
}
SAVED_MODEL_KEYS = {
    "tool_version": (text, None),
    "config": (json_object, None),
    "dictionary": (optional(spec_of(dictionary_from_spec)), None),
    "coefficients": (list_of(number), REQUIRED),
    "bound_variant": (choice(*VARIANTS), REQUIRED),
    "epsilon": (probability, REQUIRED),
    "kappa": (probability, REQUIRED),
    "schedule": (choice(*SCHEDULES), REQUIRED),
    "moments_provenance": (text, "?"),
    "orthonormal_design": (boolean, False),
    "clip_bound": (optional(nonnegative), None),
    "seed": (optional(seed), None),
    "stopped_at": (optional(count(sys.maxsize, low=0)), None),
    "trace": (list_of(spec_of(IterationRecord.from_json_dict)), ()),
}


def _project(c, k: int, gamma: float, tau: float, v: float, trace: list, center: float | None = None):
    """The projection step: soft threshold coordinate k of c in place.

    gamma is feature k's residual at c, computed by the caller. The
    coefficient moves by sgn(gamma) (|gamma| - tau)_+; the step's record,
    numbered on from the trace, carries the squared movement
    v (|gamma| - tau)_+^2 and the step applied, and is appended to
    ``trace`` and returned. None when c already lies in the slab.

    Under the identity the loop reads feature k's residual off c[k] alone,
    as center - c[k] / v, and the caller passes the ``center``: the step
    is then raised by 1, 2, 4, ... ulp of itself until that residual is
    inside the slab, so the loop, and a re-run from its result, sees the
    projection land. A slab narrower than the rounding of c[k], which no
    step lands in, keeps the plain step.
    """
    over = abs(gamma) - tau
    if over <= 0.0:
        return None
    delta = v * over * over
    if center is not None:
        raised, bump = over, math.ulp(over)
        while abs(center - (c[k] + math.copysign(raised, gamma)) / v) - tau > 0.0:
            if raised > abs(gamma) + tau:
                break
            raised, bump = raised + bump, 2.0 * bump
        else:
            over = raised
    step = math.copysign(over, gamma)
    c[k] += step
    record = IterationRecord(n=len(trace) + 1, feature=k + 1, gamma=gamma, tau=tau, delta=delta, update=step)
    trace.append(record)
    return record


def _iterate(centers, moments, radius, kappa, schedule, active, max_iterations, warm_start=None):
    """The projection loop; of the moments it reads ``diag`` and ``sweep``
    (the Gram products of one pass, from its start on)."""
    v = moments.diag
    tau = radius.tau
    m = centers.shape[0]
    c = np.zeros(m) if warm_start is None else np.array(warm_start, dtype=float, copy=True)
    trace = []
    if not np.any(active):
        return c, trace
    features = np.flatnonzero(active)
    v_a, tau_a, centers_a = v[features], tau[features], centers[features]
    greedy = schedule == "GreedyMax"
    # A GreedyMax step is a pass that visits the feature with the largest
    # movement alone. A RoundRobin pass visits the features in index order;
    # max_iterations counts its feature visits, m to a pass. The loop stops
    # after a pass whose best movement is below kappa.
    passes, unit = (max_iterations, "iterations") if greedy else (max_iterations // m, "feature visits")
    for _ in range(passes):
        sweep = moments.sweep(c)
        if greedy or sweep.elementwise:
            # The residuals at the pass's start: a visit's own when the pass
            # visits one feature, or when each reads its own coefficient alone.
            gamma = centers_a - sweep.interactions()[features] / v_a
            over = np.abs(gamma) - tau_a
            delta = np.where(over > 0.0, v_a * over * over, 0.0)
            best = int(np.argmax(delta))
            pick = ([best] if delta[best] > 0.0 else []) if greedy else over > 0.0
            visits = zip(features[pick].tolist(), gamma[pick].tolist())
        else:
            visits = ((k, None) for k in features.tolist())
        pass_best = 0.0
        for k, gamma in visits:
            if gamma is None:
                gamma = float(centers[k]) - float(sweep.interaction(k)) / float(v[k])
            center = float(centers[k]) if sweep.elementwise else None
            record = _project(c, k, gamma, float(tau[k]), float(v[k]), trace, center)
            if record is not None:
                sweep.move(k, record.update)
                pass_best = max(pass_best, record.delta)
        if pass_best < kappa:
            return c, trace
    raise NumericalError(f"selection did not terminate within {max_iterations} {unit}")


def run_selection(
    data: Dataset,
    features,
    moments: DesignMoments,
    spec: BoundSpec,
    kappa: float | None = None,
    schedule: str = "GreedyMax",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    warm_start=None,
    loo_index=None,
    seed: int | None = None,
) -> SelectionModel:
    """Fit the selection model end to end.

    Sets up the slabs (``bounds.slab_setup``), which the model keeps, from
    ``features``: the dictionary at ``data.x`` (the training rows of a rowwise
    dictionary one row block at a time), its split of the sample that
    ``bounds.sample_geometry`` gives a transductive fit, or a feature matrix,
    whose dictionary the model records. Then runs the projection loop.
    kappa defaults to 1/(2N), the midpoint of the admissible interval
    (0, 1/N). Deterministic given inputs.
    """
    if schedule not in SCHEDULES:
        raise ConfigError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    n = data.n_train
    kappa = 1.0 / (2.0 * n) if kappa is None else float(kappa)
    if not 0.0 < kappa < 1.0 / n:
        raise ConfigError(f"kappa must lie in (0, 1/N) = (0, {1.0 / n}), got {kappa}")
    slabs = slab_setup(features, data, moments, spec, loo_index=loo_index)
    dropped = np.flatnonzero(~slabs.active)
    if dropped.size:
        warnings.warn(
            f"excluding {dropped.size} degenerate feature(s) from selection (first index {dropped[0] + 1}): "
            "zero design or training second moment",
            stacklevel=2,
        )
    coeffs, trace = _iterate(
        slabs.centers, moments, slabs.radius, kappa, schedule, slabs.active, max_iterations, warm_start
    )
    return SelectionModel(
        coefficients=coeffs,
        trace=tuple(trace),
        bound_variant=spec.variant,
        epsilon=spec.epsilon,
        kappa=kappa,
        schedule=schedule,
        dictionary=feature_family(features),
        moments_provenance=moments.provenance,
        orthonormal_design=moments.identity,
        seed=seed,
        slabs=slabs,
    )


def predict(model: SelectionModel, points) -> np.ndarray:
    """The fitted combination sum_k c_k theta_k at the given points, by the dictionary's ``combine``."""
    if model.dictionary is None:
        raise ConfigError("model carries no dictionary; predictions are unavailable")
    return model.dictionary.combine(model.coefficients, points)


def clip_coefficients(model: SelectionModel, bound: float) -> SelectionModel:
    """Clamp every coefficient into [-bound, bound].

    Valid only under orthonormal moments, where the per-coordinate boxes are
    orthogonal directions and the clamp is the exact projection onto their
    intersection (projection order is irrelevant because the constraints are
    separable).
    """
    if bound < 0:
        raise ConfigError(f"clip bound must be >= 0, got {bound}")
    if not model.orthonormal_design:
        raise ConfigError("coefficient clipping requires orthonormal design moments")
    clipped = np.clip(model.coefficients, -bound, bound)
    return replace(model, coefficients=clipped, clip_bound=float(bound))
