"""Regression estimation by iterative projection onto per-feature confidence slabs.

The estimator is a linear combination over a finite feature dictionary.
Deviation inequalities turn each feature into a confidence slab for the
target; the fit is a sequence of projections onto those slabs (soft
thresholding in coefficient space) that provably never increases the risk
while the slabs cover. The inductive engine works in the geometry of a known
design distribution; the transductive engine replaces it with the empirical
geometry of the unlabeled test points.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundSpec,
    ConfidenceRadius,
    FeatureBlocks,
    FeatureStats,
    Slabs,
    alpha_hat,
    compute_radius,
    compute_stats,
    normalization_ratio,
    sample_geometry,
    slab_centers,
    slab_setup,
    split_features,
)
from .data import Dataset, load_labeled_csv, load_unlabeled_csv
from .dictionary import (
    ExplicitMatrix,
    Haar,
    KernelPCA,
    MultiscaleGaussian,
    Trigonometric,
    from_spec as dictionary_from_spec,
)
from .errors import BudgetError, ConfigError, DataError, NumericalError, SlabregError
from .experiments import (
    ExperimentReport,
    NoiseSpec,
    SyntheticModel,
    besov_spike_model,
    coverage_study,
    exact_excess_risk,
    generate,
    rate_experiment,
    sobolev_model,
    transductive_experiment,
)
from .moments import (
    DesignMoments,
    empirical_test_moments,
    exact_moments,
    load_gram_csv,
    monte_carlo_moments,
    uniform_sampler,
)
from .selector import (
    IterationRecord,
    SelectionModel,
    clip_coefficients,
    predict,
    run_selection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
