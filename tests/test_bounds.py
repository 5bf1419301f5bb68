import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabreg import bounds
from slabreg import dictionary as fd
from slabreg.data import Dataset
from slabreg.errors import ConfigError, DataError, NumericalError
from slabreg.dictionary import ORTHONORMAL_KINDS
from slabreg.moments import DesignMoments, empirical_test_moments, exact_moments, monte_carlo_moments, uniform_sampler


def make_stats(train_feats, y, test_feats=None, y_test=None, loo_index=None):
    train_feats = np.asarray(train_feats, dtype=float)
    y = np.asarray(y, dtype=float)
    n = train_feats.shape[0]
    if test_feats is None:
        ds = Dataset(x=np.zeros((n, 1)), y=y)
        feats = train_feats
    else:
        test_feats = np.asarray(test_feats, dtype=float)
        ds = Dataset(
            x=np.zeros((n + test_feats.shape[0], 1)),
            y=y,
            hidden_y=None if y_test is None else np.asarray(y_test, dtype=float),
        )
        feats = np.vstack([train_feats, test_feats])
    return bounds.compute_stats(feats, ds, loo_index=loo_index), feats


def design_moments(diag):
    return DesignMoments(np.diag(np.asarray(diag, dtype=float)), "UserSupplied")


def test_ind_exact_frozen_value():
    # N=4, m=1, eps=2/e so log(2m/eps)=1; y=0 so the data term vanishes;
    # B=0, sigma2=1 -> beta = (4*2/4)*1 = 2
    stats, _ = make_stats(np.ones((4, 1)), np.zeros(4))
    spec = bounds.BoundSpec("IndExact", 2.0 / math.e, B=0.0, sigma2=1.0)
    radius = bounds.ind_exact(stats, design_moments([1.0]), spec)
    assert radius.beta[0] == pytest.approx(2.0, abs=1e-12)
    assert radius.tau[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_ind_exact_zero_data_zero_radius():
    stats, _ = make_stats(np.ones((4, 1)), np.zeros(4))
    spec = bounds.BoundSpec("IndExact", 0.5, B=0.0, sigma2=0.0)
    assert bounds.ind_exact(stats, design_moments([1.0]), spec).beta[0] == 0.0


def test_ind_exact_halves_when_n_doubles():
    spec = bounds.BoundSpec("IndExact", 0.3, B=1.0, sigma2=2.0)
    s4, _ = make_stats(np.ones((4, 1)), np.zeros(4))
    s8, _ = make_stats(np.ones((8, 1)), np.zeros(8))
    b4 = bounds.ind_exact(s4, design_moments([1.0]), spec).beta[0]
    b8 = bounds.ind_exact(s8, design_moments([1.0]), spec).beta[0]
    assert b8 == pytest.approx(b4 / 2.0, rel=1e-12)


def test_ind_exact_requires_constants():
    stats, _ = make_stats(np.ones((4, 1)), np.zeros(4))
    with pytest.raises(ConfigError, match="sigma2"):
        bounds.compute_radius(bounds.BoundSpec("IndExact", 0.1, B=1.0), stats, design_moments([1.0]))
    with pytest.raises(ConfigError, match="B"):
        bounds.compute_radius(bounds.BoundSpec("IndExact", 0.1, sigma2=1.0), stats, design_moments([1.0]))


def test_ind_var_zero_empirical_variance():
    stats, _ = make_stats(np.ones((5, 1)), np.full(5, 3.0))
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.2)
    assert bounds.ind_var_first_order(stats, design_moments([1.0]), spec).beta[0] == 0.0


def test_ind_var_frozen_value():
    # N=2, products {0, 2} -> vhat = 1; eps=4/e^2 so log(4m/eps)=2 -> beta = 2*2/2 = 2
    stats, _ = make_stats(np.ones((2, 1)), np.array([0.0, 2.0]))
    spec = bounds.BoundSpec("IndVarFirstOrder", 4.0 / math.e**2)
    radius = bounds.ind_var_first_order(stats, design_moments([1.0]), spec)
    assert stats.train_var_ty[0] == pytest.approx(1.0, abs=1e-15)
    assert radius.beta[0] == pytest.approx(2.0, abs=1e-12)


def test_ind_var_linear_in_vhat():
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.2)
    s1, _ = make_stats(np.ones((4, 1)), np.array([0.0, 2.0, 0.0, 2.0]))
    s3, _ = make_stats(np.ones((4, 1)), 3.0 * np.array([0.0, 2.0, 0.0, 2.0]))
    b1 = bounds.ind_var_first_order(s1, design_moments([1.0]), spec).beta[0]
    b3 = bounds.ind_var_first_order(s3, design_moments([1.0]), spec).beta[0]
    assert b3 == pytest.approx(9.0 * b1, rel=1e-12)


def test_ind_svm_zero_responses():
    stats, _ = make_stats(np.ones((3, 1)), np.zeros(3), loo_index=[0])
    spec = bounds.BoundSpec("IndSvm", 0.1)
    radius = bounds.ind_svm(stats, design_moments([1.0]), spec)
    assert radius.beta[0] == 0.0


def test_ind_svm_loo_variance_oracle():
    # leave out i=1 on y = (1, 2, 3), theta == 1: variance of {2, 3} is 0.25
    stats, _ = make_stats(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]), loo_index=[0])
    spec = bounds.BoundSpec("IndSvm", 0.1)
    radius = bounds.ind_svm(stats, design_moments([1.0]), spec)
    assert radius.observables["vhat_loo"][0] == pytest.approx(0.25, abs=1e-15)
    expected = 2.0 * math.log(2.0 * 3 * 1 / 0.1) / 2.0 * 0.25
    assert radius.beta[0] == pytest.approx(expected, rel=1e-12)


def test_ind_svm_log_grows_with_features_per_point():
    eps = 0.1
    stats, _ = make_stats(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]), loo_index=[0, 0])
    spec = bounds.BoundSpec("IndSvm", eps)
    both = bounds.ind_svm(stats, design_moments([1.0, 1.0]), spec)
    single, _ = make_stats(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]), loo_index=[0])
    one = bounds.ind_svm(single, design_moments([1.0]), spec)
    assert both.beta[0] / one.beta[0] == pytest.approx(
        math.log(12.0 / eps) / math.log(6.0 / eps), rel=1e-12
    )


def test_ind_svm_needs_two_points():
    stats, _ = make_stats(np.ones((1, 1)), np.array([1.0]), loo_index=[0])
    with pytest.raises(ConfigError, match="N >= 2"):
        bounds.ind_svm(stats, design_moments([1.0]), bounds.BoundSpec("IndSvm", 0.1))


def tr_setup(train_feats, y, test_feats, y_test=None):
    stats, feats = make_stats(train_feats, y, test_feats, y_test)
    mom = empirical_test_moments(feats[stats.n_train :])
    return stats, mom


def test_tr_basic_zero_data():
    stats, mom = tr_setup(np.ones((4, 1)), np.zeros(4), np.ones((4, 1)))
    spec = bounds.BoundSpec("TrBasicBounded", 0.5, B=0.0)
    assert bounds.tr_basic_bounded(stats, mom, spec).beta[0] == 0.0


def test_tr_basic_frozen_value():
    # theta == 1, y^2 == 1 on train, B=1, N=4, m=1, eps=2/e -> beta = 4*(1+1)/4 = 2
    y = np.array([1.0, -1.0, 1.0, -1.0])
    stats, mom = tr_setup(np.ones((4, 1)), y, np.ones((4, 1)))
    spec = bounds.BoundSpec("TrBasicBounded", 2.0 / math.e, B=1.0)
    assert bounds.tr_basic_bounded(stats, mom, spec).beta[0] == pytest.approx(2.0, abs=1e-12)


def test_tr_basic_invariant_under_train_permutation():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(6, 2))
    test = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    spec = bounds.BoundSpec("TrBasicBounded", 0.2, B=2.0)
    stats, mom = tr_setup(train, y, test)
    beta = bounds.tr_basic_bounded(stats, mom, spec).beta
    perm = rng.permutation(6)
    stats2, mom2 = tr_setup(train[perm], y[perm], test)
    beta2 = bounds.tr_basic_bounded(stats2, mom2, spec).beta
    np.testing.assert_allclose(beta, beta2, rtol=1e-12)


PERMUTED_FAMILIES = {
    "Trigonometric": lambda x: fd.Trigonometric(7),
    "Haar": lambda x: fd.Haar(3),
    "MultiscaleGaussian": lambda x: fd.MultiscaleGaussian([[0.8], [0.1], [0.4]], [2.0, 8.0]),
    "TrainingGaussian": lambda x: fd.MultiscaleGaussian(x, [4.0]),  # centred on the training points
    "KernelPCA": lambda x: fd.KernelPCA([[0.1], [0.3], [0.5], [0.9]], {"kind": "gaussian", "gamma": 2.0}, 3),
}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(PERMUTED_FAMILIES)),
    n=st.integers(12, 32),
    seed=st.integers(0, 2**32 - 1),
    hidden=st.booleans(),
)
def test_slab_setup_is_invariant_under_permuted_training_rows(kind, n, seed, hidden):
    # Every variant's slabs read the training rows through means and sums,
    # which a permutation reorders: equal up to rounding. A center is a signed
    # mean, so its tolerance is relative to the largest center. IndSvm's
    # anchors are the training Gaussian's centres, so its map moves with the rows.
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(size=(2 * n, 1)), rng.uniform(-1, 1, n)
    hidden_y = rng.uniform(-1, 1, n) if hidden else None  # TrFirstOrder's simulation mode, else deployment
    perm = rng.permutation(n)
    family = PERMUTED_FAMILIES[kind](x[:n])
    loo = family.center_train_indices if kind == "TrainingGaussian" else None
    design = exact_moments(family) if kind in ORTHONORMAL_KINDS else monte_carlo_moments(family, uniform_sampler(), 200, 0)
    samples = [(x, y, loo), (np.vstack([x[:n][perm], x[n:]]), y[perm], None if loo is None else np.argsort(perm)[loo])]
    for variant, entry in bounds.VARIANT_TABLE.items():
        if variant == "IndSvm" and loo is None:
            continue
        spec = bounds.BoundSpec(variant, 0.5, B=2.0, sigma2=0.1, subexp=((1.0, math.e),), y_subexp=(1.0, 3.0))
        slabs = []
        for points, labels, anchors in samples:
            if entry.transductive:
                data = Dataset(points, labels, hidden_y)
                features, mom = bounds.sample_geometry(family, data, True, None)
                slabs.append(bounds.slab_setup(features, data, mom, spec))
            else:
                slabs.append(bounds.slab_setup(family, Dataset(points[:n], labels), design, spec, anchors))
        a, b = slabs
        np.testing.assert_allclose(b.radius.beta, a.radius.beta, rtol=1e-12, err_msg=variant)
        np.testing.assert_allclose(b.radius.tau, a.radius.tau, rtol=1e-12, err_msg=variant)
        scale = np.abs(a.centers).max()
        np.testing.assert_allclose(b.centers, a.centers, rtol=1e-12, atol=1e-12 * scale, err_msg=variant)
        assert np.array_equal(b.active, a.active), variant


def test_tr_basic_rejects_general_k():
    stats, mom = tr_setup(np.ones((2, 1)), np.zeros(2), np.ones((4, 1)))
    with pytest.raises(ConfigError, match="TrGeneralK"):
        bounds.compute_radius(bounds.BoundSpec("TrBasicBounded", 0.1, B=1.0), stats, mom)


def test_tr_first_order_zero_data():
    stats, mom = tr_setup(np.ones((4, 1)), np.zeros(4), np.ones((4, 1)), np.zeros(4))
    spec = bounds.BoundSpec("TrFirstOrder", 0.5)
    assert bounds.tr_first_order(stats, mom, spec).beta[0] == 0.0


def test_tr_first_order_simulation_formula_oracle():
    eps = 0.37
    n, m = 4, 1
    stats, mom = tr_setup(np.ones((4, 1)), np.ones(4), np.ones((4, 1)), np.ones(4))
    spec = bounds.BoundSpec("TrFirstOrder", eps)
    radius = bounds.tr_first_order(stats, mom, spec)
    # independent re-evaluation: ratio = 1, fourth-moment sum over all 2N rows = 2N/N = 2
    expected = (8.0 * math.log(4 * m / eps) / n) * (
        1.0 + math.sqrt(2.0 * math.log(2 * m / eps) / (2.0 * n))
    )
    assert radius.beta[0] == pytest.approx(expected, rel=1e-12)
    assert radius.observables["mode"] == "simulation"


def test_tr_first_order_deployment_formula_oracle():
    eps = 0.2
    n, m = 4, 1
    b_y, big_y = 0.7, 3.0
    stats, mom = tr_setup(np.ones((4, 1)), np.ones(4), np.ones((4, 1)))
    spec = bounds.BoundSpec("TrFirstOrder", eps, y_subexp=(b_y, big_y))
    radius = bounds.tr_first_order(stats, mom, spec)
    inner = 2.0 * math.log(4 * m / eps) * math.log(4 * n * big_y / eps) ** 4 / (2.0 * n * b_y**4)
    expected = (8.0 * math.log(8 * m / eps) / n) * (1.0 + math.sqrt(inner))
    assert radius.beta[0] == pytest.approx(expected, rel=1e-12)
    assert radius.observables["mode"] == "deployment"


def test_tr_first_order_requires_labels_or_constants():
    stats, mom = tr_setup(np.ones((4, 1)), np.ones(4), np.ones((4, 1)))
    with pytest.raises(ConfigError, match="y_subexp"):
        bounds.tr_first_order(stats, mom, bounds.BoundSpec("TrFirstOrder", 0.1))


def test_tr_variance_zero_when_constant_products_and_zero_majorant():
    stats, mom = tr_setup(np.ones((40, 1)), np.ones(40), np.ones((40, 1)), np.zeros(40))
    spec = bounds.BoundSpec("TrVariance", 0.5)
    radius = bounds.tr_variance(stats, mom, spec)
    # V1 = 0; simulation fourth moment: train contributes 1 per row
    assert radius.observables["v1"][0] == 0.0
    assert radius.beta[0] > 0.0
    zero_stats, zero_mom = tr_setup(np.ones((40, 1)), np.zeros(40), np.ones((40, 1)), np.zeros(40))
    assert bounds.tr_variance(zero_stats, zero_mom, spec).beta[0] == 0.0


def test_tr_variance_prefactor_frozen_value():
    # N=100, m=1, eps=0.05: 1 / (1 - 2 log 80 / 100) = 1.09606
    stats, mom = tr_setup(np.ones((100, 1)), np.ones(100), np.ones((100, 1)), np.ones(100))
    radius = bounds.tr_variance(stats, mom, bounds.BoundSpec("TrVariance", 0.05))
    assert radius.observables["prefactor"] == pytest.approx(1.0960592133188587, abs=1e-12)


def test_tr_variance_inapplicable_at_small_n():
    stats, mom = tr_setup(np.ones((4, 1)), np.ones(4), np.ones((4, 1)), np.ones(4))
    with pytest.raises(ConfigError, match="inapplicable"):
        bounds.tr_variance(stats, mom, bounds.BoundSpec("TrVariance", 0.01))


def test_tr_variance_beats_basic_on_low_variance_data():
    rng = np.random.default_rng(42)
    n = 256
    train = 0.9 + 0.05 * rng.uniform(size=(n, 3))
    test = 0.9 + 0.05 * rng.uniform(size=(n, 3))
    y = np.ones(n)
    stats, mom = tr_setup(train, y, test, np.ones(n))
    basic = bounds.tr_basic_bounded(stats, mom, bounds.BoundSpec("TrBasicBounded", 0.1, B=1.0))
    varb = bounds.tr_variance(stats, mom, bounds.BoundSpec("TrVariance", 0.1, B=1.0))
    assert np.all(varb.beta < basic.beta)


def test_tr_general_k_prefactor_and_reduction():
    stats, mom = tr_setup(
        np.ones((8, 1)), np.arange(8.0), np.ones((8, 1)), np.zeros(8)
    )
    spec = bounds.BoundSpec("TrGeneralK", 0.1, subexp=((1.0, 2.0),))
    radius = bounds.tr_general_k(stats, mom, spec)
    assert radius.observables["prefactor"] == 4.0


def test_tr_general_k_bracket_zero_shortcircuit():
    out = bounds._general_k_bracket(np.array([0.0]), 1.0, np.array([0.0]), np.array([1.0]), 8)
    assert out[0] == 0.0
    blown = bounds._general_k_bracket(np.array([0.0]), 1.0, np.array([1.0]), np.array([1.0]), 8)
    assert np.isinf(blown[0])


def test_tr_general_k_decreases_in_k():
    # regime where the prefactor (1 + 1/k)^2 drives the sweep: the k-growth of
    # the higher-order log factors is an order of magnitude weaker
    rng = np.random.default_rng(5)
    n = 256
    train = rng.uniform(0.5, 1.5, size=(n, 2))
    y = 1.0 + 0.5 * rng.normal(size=n)
    spec = bounds.BoundSpec("TrGeneralK", 0.1, subexp=((10.0, 1.0),))
    medians = []
    for k in (1, 2, 4, 8):
        test = rng.uniform(0.5, 1.5, size=(k * n, 2))
        stats, mom = tr_setup(train, y, test)
        radius = bounds.tr_general_k(stats, mom, spec)
        medians.append(float(np.median(radius.beta)))
    assert medians == sorted(medians, reverse=True)


def test_tr_general_k_needs_subexp():
    stats, mom = tr_setup(np.ones((4, 1)), np.ones(4), np.ones((4, 1)))
    with pytest.raises(ConfigError, match="subexp"):
        bounds.compute_radius(bounds.BoundSpec("TrGeneralK", 0.1), stats, mom)


@pytest.mark.parametrize("variant", ["IndExact", "IndVarFirstOrder"])
@settings(max_examples=30, deadline=None)
@given(eps=st.tuples(st.floats(0.01, 0.98), st.floats(0.001, 0.9)))
def test_beta_monotone_nonincreasing_in_epsilon_inductive(variant, eps):
    lo, hi = min(eps), max(eps)
    rng = np.random.default_rng(17)
    stats, _ = make_stats(rng.normal(size=(6, 2)), rng.normal(size=6))
    mom = design_moments([1.0, 2.0])
    kwargs = {"B": 1.0, "sigma2": 0.5} if variant == "IndExact" else {}
    b_lo = bounds.compute_radius(bounds.BoundSpec(variant, lo, **kwargs), stats, mom).beta
    b_hi = bounds.compute_radius(bounds.BoundSpec(variant, hi, **kwargs), stats, mom).beta
    assert np.all(b_hi <= b_lo + 1e-15)


@pytest.mark.parametrize("variant", ["TrBasicBounded", "TrFirstOrder", "TrVariance", "TrGeneralK"])
def test_beta_monotone_nonincreasing_in_epsilon_transductive(variant):
    rng = np.random.default_rng(3)
    stats, mom = tr_setup(
        rng.normal(size=(64, 2)), rng.normal(size=64), rng.normal(size=(64, 2)), rng.normal(size=64)
    )
    kwargs = {}
    if variant in ("TrBasicBounded", "TrVariance"):
        kwargs["B"] = 2.0
    if variant == "TrGeneralK":
        kwargs["subexp"] = ((1.0, 3.0),)
    last = None
    for eps in (0.05, 0.2, 0.5, 0.9):
        beta = bounds.compute_radius(bounds.BoundSpec(variant, eps, **kwargs), stats, mom).beta
        if last is not None:
            assert np.all(beta <= last + 1e-15)
        last = beta


def test_beta_nonincreasing_in_n_with_statistics_fixed():
    spec = bounds.BoundSpec("IndExact", 0.1, B=1.0, sigma2=1.0)
    mom = design_moments([1.0])
    betas = []
    for n in (4, 8, 16):
        stats, _ = make_stats(np.ones((n, 1)), np.ones(n))
        betas.append(bounds.ind_exact(stats, mom, spec).beta[0])
    assert betas[0] > betas[1] > betas[2]


def scaled_pair(variant, scale):
    """Radii for theta and for scale*theta with covariantly transformed constants."""
    rng = np.random.default_rng(11)
    n = 64
    train = rng.uniform(0.2, 1.0, size=(n, 2))
    test = rng.uniform(0.2, 1.0, size=(n, 2))
    y = rng.normal(1.0, 0.3, size=n)
    kwargs = {}
    if variant in ("TrBasicBounded", "TrVariance"):
        kwargs["B"] = 3.0
    if variant == "IndExact":
        kwargs["B"] = 3.0
        kwargs["sigma2"] = 0.5
    out = []
    for s in (1.0, scale):
        kw = dict(kwargs)
        if variant == "TrGeneralK":
            kw["subexp"] = ((1.0 / s, 5.0),)
        stats, feats = make_stats(train * s, y, test * s, y_test=y[:n])
        if variant.startswith("Tr"):
            mom = empirical_test_moments(feats[n:])
        else:
            base = np.cov(train.T, bias=True) + np.outer(train.mean(0), train.mean(0))
            mom = DesignMoments(base * s * s, "UserSupplied")
        out.append(bounds.compute_radius(bounds.BoundSpec(variant, 0.1, **kw), stats, mom))
    return out


@pytest.mark.parametrize("scale", [0.5, 3.0])
@pytest.mark.parametrize(
    "variant", ["IndExact", "IndVarFirstOrder", "TrBasicBounded", "TrVariance", "TrGeneralK"]
)
def test_scaling_covariance(variant, scale):
    base, scaled = scaled_pair(variant, scale)
    np.testing.assert_allclose(scaled.beta, base.beta, rtol=1e-9)
    np.testing.assert_allclose(scaled.tau * scale, base.tau, rtol=1e-9)


def test_radius_nonnegative_everywhere():
    rng = np.random.default_rng(8)
    stats, mom = tr_setup(
        rng.normal(size=(64, 3)), rng.normal(size=64), rng.normal(size=(64, 3)), rng.normal(size=64)
    )
    for variant, kwargs in [
        ("TrBasicBounded", {"B": 2.0}),
        ("TrFirstOrder", {}),
        ("TrVariance", {"B": 2.0}),
        ("TrGeneralK", {"subexp": ((1.0, 3.0),)}),
    ]:
        beta = bounds.compute_radius(bounds.BoundSpec(variant, 0.2, **kwargs), stats, mom).beta
        assert np.all(beta >= 0.0)


def test_variant_moments_pairing_enforced():
    rng = np.random.default_rng(2)
    stats, mom = tr_setup(rng.normal(size=(8, 1)), rng.normal(size=8), rng.normal(size=(8, 1)))
    with pytest.raises(ConfigError, match="geometry|EmpiricalTest|design moments"):
        bounds.compute_radius(
            bounds.BoundSpec("IndExact", 0.1, B=1.0, sigma2=1.0), stats, mom
        )
    ind_stats, _ = make_stats(np.ones((4, 1)), np.ones(4))
    with pytest.raises(ConfigError):
        bounds.compute_radius(
            bounds.BoundSpec("TrBasicBounded", 0.1, B=1.0), ind_stats, design_moments([1.0])
        )


def test_bound_spec_validation():
    with pytest.raises(ConfigError):
        bounds.BoundSpec("IndExact", 0.0, B=1.0, sigma2=1.0)
    with pytest.raises(ConfigError):
        bounds.BoundSpec("IndExact", 1.5, B=1.0, sigma2=1.0)
    with pytest.raises(ConfigError):
        bounds.BoundSpec("NoSuchVariant", 0.1)
    with pytest.raises(ConfigError):
        bounds.BoundSpec("TrGeneralK", 0.1, subexp=((0.0, 2.0),))
    with pytest.raises(ConfigError):
        bounds.BoundSpec("TrGeneralK", 0.1, subexp=((1.0, 0.5),))


@pytest.mark.parametrize(
    "variant,constants",
    [
        ("IndExact", {"B": math.inf, "sigma2": 1.0}),
        ("IndExact", {"B": math.nan, "sigma2": 1.0}),
        ("IndExact", {"B": 1.0, "sigma2": math.inf}),
        ("TrGeneralK", {"subexp": ((math.inf, 2.0),)}),
        ("TrGeneralK", {"subexp": ((1.0, math.inf),)}),
        ("TrFirstOrder", {"y_subexp": (math.inf, 2.0)}),
        ("TrFirstOrder", {"y_subexp": (1.0, math.inf)}),
    ],
)
def test_bound_spec_rejects_infinite_constants(variant, constants):
    with pytest.raises(ConfigError, match="finite"):
        bounds.BoundSpec(variant, 0.1, **constants)


def test_bound_spec_json_roundtrip():
    spec = bounds.BoundSpec(
        "TrGeneralK", 0.25, B=1.5, subexp=((1.0, 2.0), (0.5, 4.0)), y_subexp=(0.3, 2.0)
    )
    again = bounds.BoundSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_alpha_hat_and_centers():
    stats, _ = make_stats(np.array([[1.0], [1.0], [1.0], [1.0]]), np.array([0.0, 2.0, 0.0, 2.0]))
    mom = design_moments([2.0])
    assert bounds.alpha_hat(stats)[0] == pytest.approx(1.0)
    assert bounds.normalization_ratio(stats, mom)[0] == pytest.approx(0.5)
    # center = C * alpha_hat = mean(theta y) / v = 1 / 2
    assert bounds.slab_centers(stats, mom)[0] == pytest.approx(0.5)


ALL_CONSTANTS = {"B": 3.0, "sigma2": 0.5, "subexp": ((1.0, 3.0),), "y_subexp": (0.5, 2.0)}


def radius_case(variant, k_test, labels, seed=21):
    """Data, moments and radius arguments for one variant, with every constant set."""
    rng = np.random.default_rng(seed)
    n, m = 64, 4
    feats = rng.normal(size=((k_test + 1) * n, m))
    y_all = rng.normal(size=(k_test + 1) * n)
    ds = Dataset(x=np.zeros((feats.shape[0], 1)), y=y_all[:n], hidden_y=y_all[n:] if labels else None)
    spec = bounds.BoundSpec(variant, 0.1, **ALL_CONSTANTS)
    if spec.transductive:
        mom = empirical_test_moments(feats[n:])
    else:
        mom = DesignMoments(feats[:n].T @ feats[:n] / n, "EmpiricalAll")
    loo = {"loo_index": np.arange(m)} if variant == "IndSvm" else {}
    return feats, ds, spec, mom, loo


RADIUS_CASES = [
    (variant, k_test, labels)
    for variant in bounds.VARIANTS
    for k_test in ((1, 2) if variant == "TrGeneralK" else (1,) if variant.startswith("Tr") else (0, 1, 2))
    for labels in ((False, True) if k_test else (False,))
]


@pytest.mark.parametrize("variant,k_test,labels", RADIUS_CASES)
def test_declared_needs_radius_equals_all_variants_radius(variant, k_test, labels):
    feats, ds, spec, mom, loo = radius_case(variant, k_test, labels)
    full = bounds.compute_radius(spec, bounds.compute_stats(feats, ds, **loo), mom)
    own_stats = bounds.compute_stats(feats, ds, (variant,), **loo)
    own = bounds.compute_radius(spec, own_stats, mom)
    assert own.beta.tobytes() == full.beta.tobytes()
    assert own.tau.tobytes() == full.tau.tobytes()
    assert own.observables["mode"] == full.observables["mode"]
    assert own_stats.has_test_labels == labels
    unread = {"train_mean_sq_ysq", "train_var_ty", *bounds.LEAVE_ONE_OUT_SUMS, *bounds.FOURTH_MOMENTS}
    unread -= set(bounds.VARIANT_TABLE[variant].reads)
    assert all(getattr(own_stats, name) is None for name in unread)


def test_transductive_modes_follow_hidden_labels_not_computed_fields():
    feats, ds, spec, mom, _ = radius_case("TrGeneralK", 1, labels=True)
    stats = bounds.compute_stats(feats, ds, ("TrGeneralK",))
    assert stats.has_test_labels and stats.test_sum_t4y4 is None
    feats, ds, spec, mom, _ = radius_case("TrFirstOrder", 1, labels=False)
    stats = bounds.compute_stats(feats, ds, ("TrFirstOrder",))
    assert not stats.has_test_labels
    assert bounds.compute_radius(spec, stats, mom).observables["mode"] == "deployment"


# For each variant, a variant whose statistics lack at least one of its inputs.
LACKING = {
    "IndExact": "IndVarFirstOrder",
    "IndVarFirstOrder": "IndExact",
    "IndSvm": "IndExact",
    "TrBasicBounded": "TrGeneralK",
    "TrFirstOrder": "TrBasicBounded",
    "TrVariance": "TrGeneralK",
    "TrGeneralK": "TrBasicBounded",
}


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_radius_without_its_statistics_is_config_error(variant):
    feats, ds, spec, mom, loo = radius_case(variant, 0 if variant.startswith("Ind") else 1, labels=True)
    for computed_for in ((LACKING[variant],), ()):
        stats = bounds.compute_stats(feats, ds, computed_for)
        missing = [name for name in bounds.VARIANT_TABLE[variant].reads if getattr(stats, name) is None]
        assert missing
        with pytest.raises(ConfigError, match=f"{variant} reads {missing[0]}"):
            bounds.compute_radius(spec, stats, mom)


def radius_with(entry, value, feature):
    """The row ``entry`` with ``value`` in place of one feature's beta."""

    def radius(stats, moments, spec):
        out = entry.radius(stats, moments, spec)
        beta = out.beta.copy()
        beta[feature] = value
        return dataclasses.replace(out, beta=beta)

    return entry._replace(radius=radius)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_radius_of_an_active_feature_is_numerical_error(monkeypatch, value):
    # Feature 3 (index 2) is degenerate: its slab's infinity is deliberate,
    # and its beta is not checked.
    feats, ds, spec, _, _ = radius_case("IndExact", 0, labels=False)
    feats[:, 2] = 0.0
    mom = DesignMoments(feats.T @ feats / feats.shape[0], "EmpiricalAll")
    stats = bounds.compute_stats(feats, ds, ("IndExact",))
    valid = bounds.compute_radius(spec, stats, mom)
    assert np.isfinite(valid.beta).all() and valid.tau[2] == np.inf
    entry = bounds.VARIANT_TABLE["IndExact"]
    monkeypatch.setitem(bounds.VARIANT_TABLE, "IndExact", radius_with(entry, value, 1))
    with pytest.raises(NumericalError, match=r"^IndExact radius is not finite for 1 active feature\(s\) \(first index 2\)$"):
        bounds.compute_radius(spec, stats, mom)
    monkeypatch.setitem(bounds.VARIANT_TABLE, "IndExact", radius_with(entry, value, 2))
    radius = bounds.compute_radius(spec, stats, mom)
    assert np.array_equal(radius.beta, np.r_[valid.beta[:2], value, valid.beta[3:]], equal_nan=True)


def test_compute_stats_rejects_unknown_variant():
    feats, ds, _, _, _ = radius_case("IndExact", 0, labels=False)
    with pytest.raises(ConfigError, match="unknown bound variant"):
        bounds.compute_stats(feats, ds, ("IndExcat",))


def dense_compute_stats(features, data, variants=bounds.VARIANTS, loo_index=None):
    """The former compute_stats: every statistic reduced over the whole
    stacked matrix at once, the leave-one-out sums from the raw N x m
    products. The oracle for the row-block walk and the split."""
    reads = {name for variant in variants for name in bounds.VARIANT_TABLE[variant].reads}
    has_test_labels = data.k_test > 0 and data.hidden_y is not None
    n = data.n_train
    train, test, y = features[:n], features[n:], data.y
    ty = train * y[:, None]
    mean_ty = ty.mean(axis=0)
    t2 = train**2
    out = {}
    if "train_mean_sq_ysq" in reads:
        out["train_mean_sq_ysq"] = (t2 * (y**2)[:, None]).mean(axis=0)
    if "train_mean_t4" in reads:
        out["train_mean_t4"] = (t2**2).mean(axis=0)
        if data.k_test > 0:
            out["test_sum_t4"] = (test**4).sum(axis=0)
    if "train_var_ty" in reads:
        out["train_var_ty"] = np.maximum((ty**2).mean(axis=0) - mean_ty**2, 0.0)
    if "train_mean_t4y4" in reads:
        out["train_mean_t4y4"] = (ty**4).mean(axis=0)
        if has_test_labels:
            out["test_sum_t4y4"] = ((test * data.hidden_y[:, None]) ** 4).sum(axis=0)
    if "train_loo_sum_ty" in reads and loo_index is not None:
        own = ty[loo_index, np.arange(ty.shape[1])]
        out["train_loo_sum_ty"] = ty.sum(axis=0) - own
        out["train_loo_sum_ty2"] = (ty**2).sum(axis=0) - own**2
        out["features_per_point"] = int(np.unique(loo_index, return_counts=True)[1].max())
    return bounds.FeatureStats(
        n_train=n, k_test=data.k_test, has_test_labels=has_test_labels,
        train_mean_sq=t2.mean(axis=0), train_mean_ty=mean_ty, **out,
    )


def assert_stats_identical(got, want, context=None):
    for name in bounds.FeatureStats.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.shape == b.shape and np.array_equal(a, b), (context, name)
            assert a.tobytes() == b.tobytes(), (context, name)
        else:
            assert a == b, (context, name)


def takes_adjoint(family, data, variants):
    """Whether ``compute_stats`` may take the family's statistics from the
    adjoint sums rather than from its feature rows."""
    reads = {name for variant in variants for name in bounds.VARIANT_TABLE[variant].reads}
    return isinstance(family, fd.Trigonometric) and data.k_test == 0 and reads <= bounds.ADJOINT_READS


# The weights whose mean scales each statistic of a trigonometric family
# (|theta_k|^2 <= 2), and the differential gate's tolerance in those units.
STAT_WEIGHTS = {
    "train_mean_sq": lambda y: np.ones_like(y),
    "train_mean_ty": np.abs,
    "train_mean_sq_ysq": np.square,
    "train_var_ty": np.square,
}
ADJOINT_TOLERANCE = 1e-12


def assert_stats_close(got, want, y, context=None):
    """The differential gate of the adjoint statistics: every statistic
    within ``ADJOINT_TOLERANCE`` of its scale, 2 mean |w|, the same fields
    present, and the same degeneracy mask."""
    for name in bounds.FeatureStats.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if name in STAT_WEIGHTS and b is not None:
            scale = 2.0 * STAT_WEIGHTS[name](y).mean()
            assert a.shape == b.shape and np.abs(a - b).max() <= ADJOINT_TOLERANCE * scale, (context, name)
        else:
            assert (a is None) == (b is None) and (a is None or a == b), (context, name)
    assert got.train_degenerate.tolist() == want.train_degenerate.tolist(), context


CELLS = fd.STATS_BLOCK_CELLS
MANY = 3 * (CELLS // 257) + 11
# (N, m, k, hidden labels): a single column longer than one block would be,
# two columns over one block and a remainder, 257 columns over three blocks
# and a remainder, and N below one block; every k, labels on and off.
STATS_CASES = [
    (CELLS + 3, 1, 0, False),
    (CELLS + 3, 1, 2, True),
    (CELLS // 2 + 7, 2, 1, True),
    (CELLS // 2 + 7, 2, 2, False),
    (MANY, 257, 0, False),
    (MANY, 257, 1, True),
    (MANY, 257, 2, False),
    *((5, 257, k, labels) for k, labels in ((0, False), (1, False), (1, True), (2, False), (2, True))),
]


@pytest.mark.parametrize("n,m,k_test,labels", STATS_CASES)
def test_row_block_stats_equal_dense_stats_bitwise(n, m, k_test, labels):
    rng = np.random.default_rng(n + m + k_test)
    rows = (k_test + 1) * n
    feats = rng.normal(size=(rows, m)) * rng.uniform(0.1, 10.0, size=m)
    y_all = 3.0 * rng.normal(size=rows)
    ds = Dataset(x=np.zeros((rows, 1)), y=y_all[:n], hidden_y=y_all[n:] if labels else None)
    loo = rng.integers(0, n, size=m)
    for variants in [bounds.VARIANTS, *((v,) for v in bounds.VARIANTS)]:
        got = bounds.compute_stats(feats, ds, variants, loo_index=loo)
        assert_stats_identical(got, dense_compute_stats(feats, ds, variants, loo), variants)


@pytest.mark.parametrize(
    "n,m,k_test,labels", [(CELLS // 2 + 7, 2, 1, True), (MANY, 257, 0, False), (MANY, 257, 2, True)]
)
def test_fortran_order_stats_equal_dense_stats_bitwise(n, m, k_test, labels):
    # A matrix that is not C-contiguous is read as one block (dictionary.row_blocks).
    rng = np.random.default_rng(n + 3 * m + k_test)
    rows = (k_test + 1) * n
    feats = np.asfortranarray(rng.normal(size=(rows, m)) * rng.uniform(0.1, 10.0, size=m))
    assert not feats.flags.c_contiguous
    y_all = 3.0 * rng.normal(size=rows)
    ds = Dataset(x=np.zeros((rows, 1)), y=y_all[:n], hidden_y=y_all[n:] if labels else None)
    loo = rng.integers(0, n, size=m)
    for variants in [bounds.VARIANTS, *((v,) for v in bounds.VARIANTS)]:
        got = bounds.compute_stats(feats, ds, variants, loo_index=loo)
        assert_stats_identical(got, dense_compute_stats(feats, ds, variants, loo), variants)


def test_row_block_stats_reject_nonfinite_in_any_block():
    n, m = 3 * (CELLS // 8), 8
    for row in (0, n - 1, n + 5):
        feats = np.ones((2 * n, m))
        feats[row, 3] = np.nan
        ds = Dataset(x=np.zeros((2 * n, 1)), y=np.ones(n))
        with pytest.raises(NumericalError, match="NaN or Inf"):
            bounds.compute_stats(feats, ds, ("TrBasicBounded",))


def test_row_block_stats_stay_small_in_memory(peak_bytes):
    rng = np.random.default_rng(5)
    n = m = 2048
    feats = rng.uniform(-1.0, 1.0, size=(n, m))
    ds = Dataset(x=np.zeros((n, 1)), y=rng.normal(size=n))
    peak = peak_bytes(lambda: bounds.compute_stats(feats, ds, ("IndExact",)))
    # the dense reduction held three 32 MB temporaries at once
    assert peak < 8 * 2**20


def rowwise_family(kind, m):
    """A rowwise dictionary of the given kind with m features (Haar: m a
    power of two; MultiscaleGaussian: two scales, one when m = 1;
    OneScaleGaussian: m centers at one scale)."""
    if kind == "Trigonometric":
        return fd.Trigonometric(m)
    if kind == "Haar":
        return fd.Haar(m.bit_length() - 2)
    if kind == "OneScaleGaussian":
        return fd.MultiscaleGaussian(np.linspace(0.03, 0.97, m)[:, None], [40.0])
    scales = [9.0, 300.0] if m > 1 else [9.0]
    return fd.MultiscaleGaussian(np.linspace(0.03, 0.97, m // len(scales))[:, None], scales)


def stream_points(rows, seed):
    """0, 0.5, 1, a dyadic grid, then uniform points."""
    dyadic = np.arange(65) / 64.0
    x = np.concatenate([[0.0, 0.5, 1.0], dyadic, np.random.default_rng(seed).uniform(size=rows)])
    return x[:rows, None]


# m = 1, 2, 3 (even m for Haar and MultiscaleGaussian) and one m over three
# blocks plus a remainder.
STREAM_MANY = 3 * (CELLS // 256) + 9
STREAM_SIZES = {
    "Trigonometric": (1, 2, 3, 256),
    "Haar": (2, 4, 256),
    "MultiscaleGaussian": (2, 4, 256),
    "OneScaleGaussian": (1, 2, 3, 256),
}
STREAM_CASES = [
    (kind, m, STREAM_MANY if m == 256 else 70) for kind, sizes in STREAM_SIZES.items() for m in sizes
]


@pytest.mark.parametrize("kind,m,n", STREAM_CASES)
@pytest.mark.parametrize("k_test,labels", [(0, False), (1, False), (1, True)])
def test_dictionary_stats_equal_matrix_stats_bitwise(kind, m, n, k_test, labels):
    family = rowwise_family(kind, m)
    assert family.rowwise and family.m == m
    rows = (k_test + 1) * n
    x = stream_points(rows, seed=m + n)
    y_all = 3.0 * np.random.default_rng(m).normal(size=rows)
    ds = Dataset(x=x, y=y_all[:n], hidden_y=y_all[n:] if labels else None)
    features = family.evaluate(x)
    loo = np.arange(m) * 7 % n
    for variants in [bounds.VARIANTS, *((v,) for v in bounds.VARIANTS)]:
        got = bounds.compute_stats(family, ds, variants, loo_index=loo)
        matrix = bounds.compute_stats(features, ds, variants, loo_index=loo)
        assert_stats_identical(matrix, dense_compute_stats(features, ds, variants, loo), variants)
        if takes_adjoint(family, ds, variants):
            assert_stats_close(got, matrix, ds.y, variants)
        else:
            assert_stats_identical(got, matrix, variants)
    spec = bounds.BoundSpec("IndSvm", 0.1)
    mom = DesignMoments(np.eye(m), "Exact")
    radius = bounds.compute_radius(spec, bounds.compute_stats(family, ds, ("IndSvm",), loo_index=loo), mom)
    vhat, beta = reference_ind_svm(features[:n] * ds.y[:, None], loo, spec.epsilon)
    assert radius.observables["vhat_loo"].tobytes() == vhat.tobytes()
    assert radius.beta.tobytes() == beta.tobytes()


ADJOINT_VARIANTS = [("IndExact",), ("IndVarFirstOrder",), ("IndExact", "IndVarFirstOrder")]


@pytest.mark.parametrize("m,n", [(1, 300), (2, 300), (3, 300), (257, 1100), (4096, 1100)])
def test_adjoint_stats_match_the_row_block_walk(m, n, evaluations):
    rng = np.random.default_rng(m + n)
    x = rng.uniform(size=(n, 1))
    ds = Dataset(x=x, y=3.0 * rng.normal(size=n))
    family = fd.Trigonometric(m)
    features = family.evaluate(x)
    log = evaluations(fd.Trigonometric)
    for variants in ADJOINT_VARIANTS:
        assert takes_adjoint(family, ds, variants)
        got = bounds.compute_stats(family, ds, variants)
        assert_stats_close(got, bounds.compute_stats(features, ds, variants), ds.y, variants)
    assert log.rows == []  # no feature row was evaluated


# Sizes at which m // 2, the last frequency of the first weight column, and
# 2 (m // 2), the last double angle of the even ones, fall in different
# 64-frequency q blocks, or at the edge of one.
BLOCK_EDGE_SIZES = [1, 2, 3, 127, 128, 129, 130, 255, 256, 257, 4096]


@pytest.mark.parametrize("m", BLOCK_EDGE_SIZES)
def test_adjoint_sums_match_the_row_walk_at_the_frequency_block_edges(m, evaluations):
    n = 300
    rng = np.random.default_rng(m)
    x = rng.uniform(size=(n, 1))
    ds = Dataset(x=x, y=3.0 * rng.normal(size=n))
    family = fd.Trigonometric(m)
    features = family.evaluate(x)
    w = rng.normal(size=n)
    assert np.abs(family.adjoint(w, x[:, 0]) - w @ features).max() <= 1e-12 * np.abs(w).sum()
    log = evaluations(fd.Trigonometric)
    for variants in ADJOINT_VARIANTS:
        got = bounds.compute_stats(family, ds, variants)
        assert_stats_close(got, bounds.compute_stats(features, ds, variants), ds.y, variants)
    assert log.rows == []  # no feature row was evaluated


def test_adjoint_stats_peak_under_one_and_a_half_mb(peak_bytes, evaluations):
    # N = m = 4096, the size of fit-trig-4096: the row blocks' tables hold
    # about 1 MB together, and no array grows with N or m beyond the sums
    n = m = 4096
    rng = np.random.default_rng(5)
    ds = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
    family = fd.Trigonometric(m)
    log = evaluations(fd.Trigonometric)
    peak = peak_bytes(lambda: bounds.compute_stats(family, ds, ("IndVarFirstOrder",)))
    assert log.rows == []
    assert peak < 1.5 * 2**20


def test_adjoint_stats_peak_under_four_mb_at_two_to_the_fifteen(peak_bytes, evaluations):
    # N = m = 2^15: the grids of 2^16 cells and the row blocks' kernels,
    # where the feature matrix would take 8 GB
    n = m = 1 << 15
    rng = np.random.default_rng(6)
    ds = Dataset(x=rng.uniform(size=(n, 1)), y=rng.normal(size=n))
    log = evaluations(fd.Trigonometric)
    peak = peak_bytes(lambda: bounds.compute_stats(fd.Trigonometric(m), ds, ("IndExact",)))
    assert log.rows == []
    assert peak < 4 * 2**20


@pytest.mark.parametrize("scale", [1e150, 1e153])
def test_adjoint_stats_whose_sums_overflow_walk_the_rows(scale, evaluations):
    # Labels whose squares are finite: at 1e150 their sums are too, and the
    # gridded path answers; at 1e153 the sums of y^2 overflow, so the row
    # walk decides, with its one DataError and no numpy warning.
    n = m = 4096
    rng = np.random.default_rng(8)
    ds = Dataset(x=rng.uniform(size=(n, 1)), y=scale * rng.normal(size=n))
    assert np.isfinite(ds.y**2).all()
    log = evaluations(fd.Trigonometric)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if scale == 1e153:
            with pytest.raises(DataError, match=r"training rows [0-9]+\.\.[0-9]+: the powers .* overflow the float range"):
                bounds.compute_stats(fd.Trigonometric(m), ds, ADJOINT_VARIANTS[2])
            assert log.rows  # the row walk raised it
        else:
            stats = bounds.compute_stats(fd.Trigonometric(m), ds, ADJOINT_VARIANTS[2])
            assert np.isfinite(stats.train_mean_sq_ysq).all() and np.isfinite(stats.train_var_ty).all()
            assert log.rows == []


def adversarial_points(kind, n, rng):
    """Points on which some column's squares are all tiny but not all zero
    (or all zero), so that the double angle cancels."""
    if kind == "zeros plus one":
        return np.concatenate([np.zeros(n - 1), [0.5]])
    return {
        "zeros": np.zeros(n),
        "halves": np.full(n, 0.5),
        "ones": np.ones(n),
        "zeros and ones": rng.integers(0, 2, size=n).astype(float),
        "dyadic": rng.integers(0, 9, size=n) / 8.0,
        "near halves": 0.5 + rng.uniform(size=n) * 1e-8,
        "small": rng.uniform(size=n) * 1e-8,
        "tiny": rng.uniform(0.5, 2.0, size=n) * 1e-170,
    }[kind]


# m = 3 has one sine, sin(2 pi x); the dyadic grid's tiny columns start at
# sin(16 pi x). Near 1/2 and near 0 no sum of squares cancels to 0.0, but
# some are positive and within their rounding bound of zero.
CANCELLING = [
    *((kind, m) for kind in ("zeros", "halves", "ones", "zeros and ones", "zeros plus one", "tiny") for m in (3, 257)),
    *((kind, 257) for kind in ("dyadic", "near halves", "small")),
]


@pytest.mark.parametrize("kind,m", CANCELLING)
def test_adjoint_stats_fall_back_where_the_double_angle_cancels(kind, m, evaluations):
    n = 300
    rng = np.random.default_rng(m)
    x = adversarial_points(kind, n, rng)[:, None]
    ds = Dataset(x=x, y=3.0 * rng.normal(size=n))
    family = fd.Trigonometric(m)
    features = family.evaluate(x)
    log = evaluations(fd.Trigonometric)
    for variants in ADJOINT_VARIANTS:
        got = bounds.compute_stats(family, ds, variants)
        # the fallback walks the rows: bitwise today's, with today's mask
        assert_stats_identical(got, bounds.compute_stats(features, ds, variants), variants)
    assert log.rows == [n] * len(ADJOINT_VARIANTS)


TRANSDUCTIVE = tuple(v for v in bounds.VARIANTS if bounds.VARIANT_TABLE[v].transductive)
# Haar has no m = 1 family: its sizes are powers of two from 2.
SPLIT_CASES = [
    (kind, m) for kind in ("Trigonometric", "Haar", "MultiscaleGaussian") for m in (1, 2, 256)
    if (kind, m) != ("Haar", 1)
]


@pytest.mark.parametrize("kind,m", SPLIT_CASES)
@pytest.mark.parametrize("k_test", [1, 2])
@pytest.mark.parametrize("labels", [False, True])
def test_streamed_training_rows_and_test_block_equal_dense_stats_bitwise(kind, m, k_test, labels):
    family = rowwise_family(kind, m)
    assert family.m == m
    n = STREAM_MANY if m == 256 else 70
    rows = (k_test + 1) * n
    x = stream_points(rows, seed=m + k_test)
    y_all = 3.0 * np.random.default_rng(m + 1).normal(size=rows)
    ds = Dataset(x=x, y=y_all[:n], hidden_y=y_all[n:] if labels else None)
    blocks = bounds.split_features(family, ds)
    assert np.vstack([t for _, t in blocks.train()]).tobytes() == family.evaluate(x[:n]).tobytes()
    assert blocks.test.shape == (k_test * n, m)
    stacked = family.evaluate(x)
    for variants in [TRANSDUCTIVE, *((v,) for v in TRANSDUCTIVE)]:
        got = bounds.compute_stats(blocks, ds, variants)
        assert_stats_identical(got, dense_compute_stats(stacked, ds, variants), variants)
    mom = empirical_test_moments(blocks.test)
    assert mom.gram.tobytes() == empirical_test_moments(stacked[n:]).gram.tobytes()


def test_split_of_other_dictionaries_is_two_views_of_one_matrix(evaluations):
    n, m = 40, 8
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(2 * n, 1))
    family = fd.KernelPCA(x[:30], {"kind": "gaussian", "gamma": 30.0}, top=m)
    log = evaluations(fd.KernelPCA)
    blocks = bounds.split_features(family, Dataset(x=x, y=np.ones(n)))
    assert log.rows == [2 * n]
    train = [t for _, t in blocks.train()]
    assert all(t.base is blocks.test.base is not None for t in train)
    assert sum(t.shape[0] for t in train) == n and blocks.test.shape == (n, m)


def reference_ind_svm(ty, loo_index, epsilon):
    """IndSvm's leave-one-out variance and radius under unit moments, as
    first computed from the raw N x m products ty."""
    n, m = ty.shape
    own = ty[loo_index, np.arange(m)]
    loo_mean = (ty.sum(axis=0) - own) / (n - 1)
    loo_sq = ((ty**2).sum(axis=0) - own**2) / (n - 1)
    vhat = np.maximum(loo_sq - loo_mean**2, 0.0)
    lead = 2.0 * math.log(2.0 * n * int(np.bincount(loo_index).max()) / epsilon) / (n - 1)
    return vhat, lead * bounds._safe_ratio(vhat, np.ones(m))


def test_rowwise_dictionary_is_evaluated_one_row_block_at_a_time(evaluations):
    n, m = STREAM_MANY, 256
    log = evaluations(fd.Trigonometric)
    x = stream_points(2 * n, seed=3)
    ds = Dataset(x=x, y=np.ones(n))
    bounds.compute_stats(fd.Trigonometric(m), ds)
    step = CELLS // m
    # the test block in one call, then the training rows block by block
    assert log.rows == [n] + [step] * 3 + [n - 3 * step]


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_rowwise_test_rows_are_evaluated_only_for_the_fourth_moments(variant, evaluations):
    n, m = 300, 8
    log = evaluations(fd.Trigonometric)
    ds = Dataset(x=stream_points(2 * n, seed=5), y=np.ones(n))
    stats = bounds.compute_stats(fd.Trigonometric(m), ds, (variant,), loo_index=np.arange(m))
    sums_test_rows = not set(bounds.VARIANT_TABLE[variant].reads).isdisjoint(bounds.FOURTH_MOMENTS)
    assert log.rows == ([n] if sums_test_rows else []) + [n]
    assert stats.k_test == 1


@pytest.mark.parametrize("kind", ["KernelPCA", "ExplicitMatrix"])
def test_other_dictionaries_are_evaluated_once_as_a_matrix(kind, evaluations, monkeypatch):
    n, m = STREAM_MANY, 256
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(n, 1))
    if kind == "KernelPCA":
        family = fd.KernelPCA(x[:300], {"kind": "gaussian", "gamma": 30.0}, top=m)
    else:
        family = fd.ExplicitMatrix(rng.normal(size=(n, m)))
    assert not family.rowwise
    log = evaluations(type(family))
    ds = Dataset(x=x, y=rng.normal(size=n))
    got = bounds.compute_stats(family, ds)
    assert log.rows == [n]
    monkeypatch.undo()
    assert_stats_identical(got, bounds.compute_stats(family.evaluate(x), ds))


@pytest.mark.parametrize(
    "kind,bad,message",
    [
        ("Trigonometric", 1.5, "point 100 = 1.5 outside"),
        ("Haar", 1.5, "point 100 = 1.5 outside"),
        ("Trigonometric", np.nan, "non-finite design point at index 100"),
        ("Haar", np.nan, "non-finite design point at index 100"),
        ("MultiscaleGaussian", np.nan, "non-finite design point at index 100"),
    ],
)
def test_streamed_bad_point_names_its_row_in_the_sample(kind, bad, message):
    n, m = 300, 2048
    assert CELLS // m < 100  # the point lies past the first block
    x = stream_points(n, seed=4)
    x[100, 0] = bad
    ds = Dataset(x=x, y=np.ones(n))
    family = rowwise_family(kind, m)
    with pytest.raises(DataError, match=message):
        family.evaluate(x)
    with pytest.raises(DataError, match=message):
        bounds.compute_stats(family, ds)


# The bounds stated for a test block of exactly k = 1 (TrGeneralK covers any k).
K_ONE_VARIANTS = {"TrBasicBounded", "TrFirstOrder", "TrVariance"}


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_wrong_geometry_is_one_config_error_from_every_entry_point(variant):
    from slabreg import selector
    from slabreg.dictionary import ExplicitMatrix

    # the variant's data with the moments of the other geometry
    feats, ds, spec, _, loo = radius_case(variant, 1, labels=True)
    if spec.transductive:
        mom = DesignMoments(np.eye(feats.shape[1]), "Exact")
    else:
        mom = empirical_test_moments(feats[ds.n_train :])
    with pytest.raises(ConfigError, match="geometry"):
        bounds.compute_radius(spec, bounds.compute_stats(feats, ds, **loo), mom)
    with pytest.raises(ConfigError, match="geometry"):
        selector.run_selection(ds, ExplicitMatrix(feats), mom, spec, **loo)


@pytest.mark.parametrize("variant", bounds.VARIANTS)
def test_test_block_of_two_rejected_exactly_for_k_one_variants(variant):
    feats, ds, spec, mom, loo = radius_case(variant, 2, labels=True)
    if spec.transductive:
        mom = empirical_test_moments(feats[ds.n_train :])
    stats = bounds.compute_stats(feats, ds, (variant,), **loo)
    if variant in K_ONE_VARIANTS:
        with pytest.raises(ConfigError, match=f"{variant} is stated for k_test = 1"):
            bounds.compute_radius(spec, stats, mom)
    else:
        assert np.all(bounds.compute_radius(spec, stats, mom).beta >= 0.0)


@pytest.mark.parametrize("variant", [v for v in bounds.VARIANTS if bounds.VARIANT_TABLE[v].transductive])
def test_transductive_radius_without_test_rows_is_config_error(variant):
    feats, _, spec, mom, _ = radius_case(variant, 1, labels=False)
    n = feats.shape[0] // 2
    train_only = Dataset(x=np.zeros((n, 1)), y=np.ones(n))
    stats = bounds.compute_stats(feats[:n], train_only, (variant,))
    assert mom.provenance == "EmpiricalTest" and stats.k_test == 0
    with pytest.raises(ConfigError, match=r"needs a test block \(k_test >= 1\)"):
        bounds.compute_radius(spec, stats, mom)


def test_ind_svm_without_loo_index_is_config_error():
    feats, ds, spec, mom, _ = radius_case("IndSvm", 0, labels=False)
    with pytest.raises(ConfigError, match="needs loo_index"):
        bounds.compute_radius(spec, bounds.compute_stats(feats, ds, ("IndSvm",)), mom)


def test_slab_setup_rejects_feature_moments_column_mismatch():
    feats, ds, spec, _, _ = radius_case("IndExact", 0, labels=False)
    mom = DesignMoments(np.eye(feats.shape[1] + 1), "Exact")
    with pytest.raises(ConfigError, match=f"dictionary has {feats.shape[1]} features but moments cover"):
        bounds.slab_setup(feats, ds, mom, spec)


def test_ind_svm_uneven_anchor_map_counts_the_largest_anchor():
    # three features on two anchors: row 0 carries two, so m' = 2
    eps = 0.1
    stats, _ = make_stats(np.ones((3, 3)), np.array([1.0, 2.0, 3.0]), loo_index=[0, 0, 1])
    spec = bounds.BoundSpec("IndSvm", eps)
    radius = bounds.ind_svm(stats, design_moments([1.0, 1.0, 1.0]), spec)
    assert radius.observables["features_per_point"] == 2
    # leave out row 0 on y = (1, 2, 3), theta == 1: variance of {2, 3} is 0.25
    assert radius.beta[0] == pytest.approx(2.0 * math.log(2.0 * 3 * 2 / eps) / 2.0 * 0.25, rel=1e-12)


@pytest.mark.parametrize(
    "loo,want", [([0, 0, 1], 2), ([2, 2, 2], 3), ([0, 1, 2], 1), ([3, 0, 3, 1, 3, 0], 3), ([4], 1)]
)
def test_streamed_stats_record_the_dense_references_features_per_point(loo, want):
    n, m = 5, len(loo)
    rng = np.random.default_rng(m)
    feats = rng.normal(size=(n, m))
    ds = Dataset(x=np.zeros((n, 1)), y=rng.normal(size=n))
    got = bounds.compute_stats(feats, ds, ("IndSvm",), loo_index=loo)
    assert got.features_per_point == dense_compute_stats(feats, ds, ("IndSvm",), np.asarray(loo)).features_per_point
    assert got.features_per_point == want
    assert bounds.compute_stats(feats, ds, ("IndSvm",)).features_per_point is None


def test_two_scale_gaussian_ind_svm_fit_records_two_features_per_point():
    from slabreg import selector
    from slabreg.dictionary import MultiscaleGaussian

    rng = np.random.default_rng(12)
    n = 16
    x = rng.uniform(size=(n, 1))
    ds = Dataset(x=x, y=np.sin(3.0 * x[:, 0]) + rng.normal(0.0, 0.05, n))
    family = MultiscaleGaussian(x, [2.0, 4.0])
    grid = family.evaluate(np.linspace(0.0, 1.0, 257))
    mom = DesignMoments(grid.T @ grid / grid.shape[0], "UserSupplied")
    model = selector.run_selection(
        ds, family, mom, bounds.BoundSpec("IndSvm", 0.1), loo_index=family.center_train_indices
    )
    assert model.slabs.radius.observables["features_per_point"] == 2
