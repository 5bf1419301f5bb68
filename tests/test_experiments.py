import itertools
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import binomial_slack
from slabreg import bounds, dictionary as fd, experiments as ex
from slabreg.errors import ConfigError, DataError
from slabreg.moments import empirical_test_moments
from slabreg.selector import run_selection


def small_sobolev(noise=None, size=64):
    return ex.sobolev_model(smoothness=1.0, size=size, scale=1.0, noise=noise)


def test_generate_noiseless_constant():
    model = ex.SyntheticModel(
        coefficients=np.array([2.5]), basis="Trigonometric", noise=ex.NoiseSpec("none", 0.0)
    )
    ds = ex.generate(model, 16, 0, seed=1)
    np.testing.assert_allclose(ds.y, np.full(16, 2.5), atol=1e-15)


def test_generate_deterministic_given_seed():
    model = small_sobolev()
    a = ex.generate(model, 32, 1, seed=9)
    b = ex.generate(model, 32, 1, seed=9)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.hidden_y, b.hidden_y)


def test_generate_splits_and_hides_test_labels():
    model = small_sobolev()
    ds = ex.generate(model, 16, 2, seed=3)
    assert ds.x.shape == (48, 1)
    assert ds.y.shape == (16,)
    assert ds.hidden_y.shape == (32,)


@pytest.mark.parametrize("kind,scale", [("gaussian", 0.7), ("uniform", 0.9), ("rademacher", 0.4)])
def test_noise_mean_clt_check(kind, scale):
    spec = ex.NoiseSpec(kind, scale)
    draws = spec.draw(np.random.default_rng(11), 10**6)
    tol = 5.0 * math.sqrt(spec.second_moment) / math.sqrt(10**6)
    assert abs(draws.mean()) <= tol
    assert draws.var() == pytest.approx(spec.second_moment, rel=2e-2)


def test_exact_excess_risk_trivials():
    model = ex.SyntheticModel(coefficients=np.array([2.0]), noise=ex.NoiseSpec("none", 0.0))
    assert ex.exact_excess_risk(model, np.array([2.0])) == 0.0
    assert ex.exact_excess_risk(model, np.zeros(1)) == 4.0
    longer = ex.exact_excess_risk(model, np.array([2.0, 0.5]))
    assert longer == pytest.approx(0.25)


def test_one_coefficient_haar_truth_is_rejected():
    with pytest.raises(ConfigError, match="powers of two >= 2"):
        ex.SyntheticModel(coefficients=np.array([2.5]), basis="Haar")
    # the same constant is a one-coefficient trigonometric truth
    constant = ex.SyntheticModel(coefficients=np.array([2.5]))
    assert constant.sup_bound() == 2.5
    np.testing.assert_array_equal(constant.f_values([0.0, 0.3, 1.0]), [2.5, 2.5, 2.5])


def test_exact_excess_risk_montecarlo_oracle():
    rng = np.random.default_rng(21)
    model = ex.SyntheticModel(
        coefficients=rng.normal(size=6), basis="Trigonometric", noise=ex.NoiseSpec("none", 0.0)
    )
    c = rng.normal(size=6)
    exact = ex.exact_excess_risk(model, c)
    family = model.family()
    diff_coefs = c - model.coefficients
    total = 0.0
    chunks = 20
    per = 500_000
    sq_sum = 0.0
    for i in range(chunks):
        x = np.random.default_rng(1000 + i).uniform(size=per)
        diffs = family.evaluate(x) @ diff_coefs
        total += float((diffs**2).sum())
        sq_sum += float((diffs**4).sum())
    n = chunks * per
    mc = total / n
    se = math.sqrt(max(sq_sum / n - mc**2, 0.0) / n)
    assert abs(mc - exact) <= 3.0 * se


def test_sup_bound_certificate_dominates_dense_grid():
    model = small_sobolev(size=128)
    grid = np.linspace(0, 1, 200_001)
    actual = np.abs(model.f_values(grid)).max()
    assert model.sup_bound() >= actual
    assert model.sup_bound() <= actual * 1.05 + 1e-6


def test_sup_bound_exact_for_haar():
    model = ex.besov_spike_model(smoothness=1.0, levels=4, scale=1.0, seed=2)
    grid = np.linspace(0, 1, 100_001)
    actual = np.abs(model.f_values(grid)).max()
    assert model.sup_bound() == pytest.approx(actual, rel=1e-12)


def test_label_bound_none_for_gaussian_noise():
    assert small_sobolev(noise=ex.NoiseSpec("gaussian", 0.3)).label_bound() is None
    bounded = small_sobolev(noise=ex.NoiseSpec("uniform", 0.5))
    assert bounded.label_bound() == pytest.approx(bounded.sup_bound() + 0.5)


def dense_truth(model, x):
    """The dense oracle: the (n, size) feature matrix times the coefficients."""
    return fd.Trigonometric(model.size).evaluate(x) @ model.coefficients


@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 127, 128, 129, 300, 4096])
def test_trig_truth_matches_dense_oracle(size):
    rng = np.random.default_rng(size)
    model = ex.SyntheticModel(coefficients=rng.normal(size=size))
    x = np.concatenate([[0.0, 1.0], rng.uniform(size=300)])
    c = model.coefficients
    tol = 1e-12 * (abs(c[0]) + math.sqrt(2.0) * np.abs(c[1:]).sum())
    assert np.max(np.abs(model.f_values(x) - dense_truth(model, x))) <= tol
    assert np.max(np.abs(model.f_values(x[:, None]) - dense_truth(model, x))) <= tol


def dense_haar_truth(model, x):
    """The dense oracle: the (n, size) Haar feature matrix times the coefficients."""
    return model.family().evaluate(x) @ model.coefficients


@pytest.mark.parametrize("levels", [0, 1, 2, 5, 11])
def test_haar_truth_matches_dense_oracle(levels):
    rng = np.random.default_rng(levels)
    size = 2 ** (levels + 1)
    model = ex.SyntheticModel(coefficients=rng.normal(size=size), basis="Haar")
    dyadic = np.arange(2 * size + 1) / (2 * size)
    x = np.concatenate([[0.0, 1.0], dyadic, rng.uniform(size=300)])
    c = model.coefficients
    scale = np.concatenate([[1.0], *(np.full(2**j, 2.0 ** (j / 2.0)) for j in range(levels + 1))])
    tol = 1e-12 * float(np.abs(c) @ scale)
    assert np.max(np.abs(model.f_values(x) - dense_haar_truth(model, x))) <= tol
    assert np.max(np.abs(model.f_values(x[:, None]) - dense_haar_truth(model, x))) <= tol


def test_haar_truth_stays_small_in_memory(peak_bytes):
    model = ex.besov_spike_model(smoothness=1.0, levels=11, scale=1.0, seed=3)

    def truth():
        ex.generate(model, 4096, 0, seed=1)
        model.sup_bound()

    peak = peak_bytes(truth)
    # the dense (4096, 2048) Haar matrix of the truth alone is 64 MB
    assert peak < 4 * 2**20


def test_trig_truth_rejects_points_outside_unit_interval():
    with pytest.raises(DataError, match="outside"):
        small_sobolev().f_values([0.5, 1.5])


def test_sup_bound_margin_is_half_the_grid_step():
    model = small_sobolev(size=129)
    grid = np.linspace(0.0, 1.0, 1 << 14)
    peak = np.abs(model.f_values(grid)).max()
    c = model.coefficients
    freq = np.arange(1, c.size // 2 + 1)
    deriv = 2 * math.pi * math.sqrt(2.0) * (freq @ np.abs(c[1::2]) + freq[: c[2::2].size] @ np.abs(c[2::2]))
    assert model.sup_bound() - peak == pytest.approx(deriv * 0.5 / (grid.size - 1), rel=1e-9)


def test_sup_bound_of_full_sobolev_truth_stays_small_in_memory(peak_bytes):
    model = ex.sobolev_model(size=4096)
    peak = peak_bytes(model.sup_bound)
    assert peak < 4 * 2**20


def test_sobolev_truth_draw_walks_fixed_row_blocks(peak_bytes):
    model = ex.sobolev_model(size=4096)
    n = 1 << 15
    peak = peak_bytes(lambda: ex.generate(model, n, 0, seed=1))
    # the gridding's per-block arrays have a fixed size; the kernel, index
    # and work arrays of all 32,768 points at once would take 25 MB
    assert peak < 4 * 2**20
    x = np.random.default_rng(2).uniform(size=300)
    scale = np.abs(model.coefficients).sum() * math.sqrt(2.0)
    assert np.abs(model.f_values(x) - model.family().evaluate(x) @ model.coefficients).max() <= 1e-13 * scale


SUP_STEPS = 2**14 - 1


def exact_angle_sums(c, steps, points):
    """The dense oracle: sum_k c_k theta_k(i / steps) at each grid index i of
    ``points``, every angle 2 pi ((j i) mod steps) / steps taken from its
    exact integer residue, summed in long double."""
    turn = 2 * np.arccos(np.longdouble(-1)) * np.arange(steps, dtype=np.longdouble) / steps
    cos, sin = np.cos(turn), np.sin(turn)
    a, b = c[1::2].astype(np.longdouble), c[2::2].astype(np.longdouble)
    out = [
        (a * cos[np.arange(1, a.size + 1) * i % steps]).sum() + (b * sin[np.arange(1, b.size + 1) * i % steps]).sum()
        for i in points
    ]
    return c[0] + np.sqrt(np.longdouble(2)) * np.array(out)


# Past 2^14 - 2 coefficients the frequencies fold modulo the grid's step count.
@pytest.mark.parametrize("size", [1, 2, 3, 64, 65, 129, 4096, 16383, 16384, 16385, 40000])
def test_equispaced_sum_matches_exact_angles_and_combine(size):
    rng = np.random.default_rng(size)
    c = rng.normal(size=size)
    scale = abs(c[0]) + math.sqrt(2.0) * np.abs(c[1:]).sum()
    values = fd.equispaced_sum(c, SUP_STEPS)
    assert values.shape == (SUP_STEPS,)
    points = np.concatenate([[0, 1, 2, SUP_STEPS // 2, SUP_STEPS - 2, SUP_STEPS - 1], rng.integers(SUP_STEPS, size=250)])
    oracle = exact_angle_sums(c, SUP_STEPS, points)
    assert np.max(np.abs(values[points] - oracle)) <= 1e-14 * scale
    # against combine on the linspace grid, whose point 1 repeats the point 0
    angles = fd.Trigonometric(size).combine(c, np.linspace(0.0, 1.0, SUP_STEPS + 1))
    assert np.max(np.abs(np.append(values, values[0]) - angles)) <= 1e-12 * scale


def test_sup_bound_reads_no_gridding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sup bound evaluates the truth through its Gaussian gridding")

    monkeypatch.setattr(fd.Gridding, "of", refuse)
    monkeypatch.setattr(fd.Trigonometric, "combine", refuse)
    assert np.isfinite(ex.sobolev_model(size=4096).sup_bound())


@pytest.mark.parametrize(
    "variant,calls",
    [
        ("IndExact", 1),
        ("IndVarFirstOrder", 0),
        ("TrFirstOrder", 0),
        ("TrBasicBounded", 1),
        ("TrVariance", 0),  # B only in deployment mode, which no study replicate is in
        ("TrGeneralK", 1),
    ],
)
def test_auto_bound_spec_computes_sup_bound_only_when_read(variant, calls, monkeypatch):
    count = []
    sup_bound = ex.SyntheticModel.sup_bound
    monkeypatch.setattr(ex.SyntheticModel, "sup_bound", lambda self: count.append(1) or sup_bound(self))
    ex._auto_bound_spec(variant, small_sobolev(noise=ex.NoiseSpec("uniform", 0.1)), 0.1)
    assert len(count) == calls


def test_coverage_binomial_slack():
    model = small_sobolev(noise=ex.NoiseSpec("gaussian", 0.3))
    report = ex.coverage_study("IndExact", model, n_train=64, m=16, epsilon=0.25, replicates=100, seed=5)
    slack = binomial_slack(0.25, 100)
    assert report.coverage >= 0.75 - slack
    assert 0.0 <= report.coverage <= 1.0


def test_coverage_two_run_concordance():
    model = small_sobolev(noise=ex.NoiseSpec("gaussian", 0.3))
    a = ex.coverage_study("IndExact", model, 64, 16, 0.25, replicates=100, seed=7)
    b = ex.coverage_study("IndExact", model, 64, 16, 0.25, replicates=500, seed=7)
    noise = binomial_slack(max(a.coverage, 1 - 1e-9), 100) + binomial_slack(
        max(b.coverage, 1 - 1e-9), 500
    )
    assert abs(a.coverage - b.coverage) <= max(noise, 0.06)


def test_coverage_transductive_variant():
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    report = ex.coverage_study(
        "TrBasicBounded", model, n_train=64, m=16, epsilon=0.25, replicates=100, seed=3
    )
    assert report.coverage >= 0.75 - binomial_slack(0.25, 100)


def test_coverage_rejects_unbounded_noise_for_bounded_variant():
    model = small_sobolev(noise=ex.NoiseSpec("gaussian", 0.3))
    with pytest.raises(ConfigError, match="bounded"):
        ex.coverage_study("TrBasicBounded", model, 64, 16, 0.25, replicates=100, seed=1)


def test_tr_variance_study_runs_with_unbounded_noise():
    # TrVariance reads B in deployment mode alone; every replicate keeps its hidden labels
    model = small_sobolev(noise=ex.NoiseSpec("gaussian", 0.3))
    report = ex.transductive_experiment(model, 64, 1, 16, variant="TrVariance", replicates=5, seed=1)
    assert len(report.rows) == 5 and all(np.isfinite(row["mse"]) for row in report.rows)


def test_coverage_rejects_ind_svm():
    model = small_sobolev()
    with pytest.raises(ConfigError, match="IndSvm"):
        ex.coverage_study("IndSvm", model, 64, 16, 0.25, replicates=100, seed=1)


def test_coverage_spec_for_another_variant_is_config_error(monkeypatch):
    # an IndSvm spec would otherwise slip past the IndSvm guard and fail mid-study
    monkeypatch.setattr(ex, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    with pytest.raises(ConfigError, match="bound spec is for IndSvm at epsilon 0.25, the study for IndExact"):
        ex.coverage_study(
            "IndExact", small_sobolev(), 64, 16, 0.25, replicates=100, seed=1, spec=bounds.BoundSpec("IndSvm", 0.25)
        )


@pytest.mark.parametrize(
    "spec",
    [bounds.BoundSpec("TrGeneralK", 0.3, subexp=((0.5, 3.0),)), bounds.BoundSpec("TrBasicBounded", 0.3, B=2.0)],
    ids=["variant", "epsilon"],
)
def test_transductive_spec_disagreeing_with_the_report_is_config_error(spec, monkeypatch):
    # the report would record TrBasicBounded at 0.1 for a fit with another spec
    monkeypatch.setattr(ex, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    with pytest.raises(ConfigError, match=f"bound spec is for {spec.variant} at epsilon 0.3"):
        ex.transductive_experiment(
            small_sobolev(), n_train=32, k_test=1, m=8, variant="TrBasicBounded", epsilon=0.1,
            replicates=3, seed=4, spec=spec,
        )


@pytest.mark.parametrize("variant", ["IndExact", "IndVarFirstOrder", "IndSvm"])
def test_transductive_experiment_rejects_an_inductive_variant_before_any_replicate(variant, monkeypatch):
    monkeypatch.setattr(ex, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    with pytest.raises(ConfigError, match=f"transductive experiments need a transductive variant, got {variant}"):
        ex.transductive_experiment(
            small_sobolev(), n_train=32, k_test=1, m=8, variant=variant, epsilon=0.1, replicates=3, seed=4
        )


@pytest.mark.parametrize("study", [ex.coverage_study, ex.transductive_experiment], ids=["coverage", "transductive"])
def test_transductive_study_without_a_test_block_is_one_config_error_before_any_replicate(study, monkeypatch):
    monkeypatch.setattr(ex, "generate", lambda *args, **kwargs: pytest.fail("a replicate ran"))
    with pytest.raises(ConfigError, match="k_test must be at least 1 for the transductive variant TrVariance, got 0"):
        study(
            model=small_sobolev(), variant="TrVariance", n_train=64, m=8, epsilon=0.1, replicates=100, seed=4, k_test=0
        )


def test_coverage_and_transductive_studies_share_their_replicates():
    # B = 0 and epsilon = 0.9 mix covered and uncovered replicates
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    spec = bounds.BoundSpec("TrBasicBounded", 0.9, B=0.0)
    shared = dict(n_train=32, m=16, epsilon=spec.epsilon, replicates=100, seed=6, k_test=1, spec=spec)
    coverage = ex.coverage_study(spec.variant, model, **shared)
    transductive = ex.transductive_experiment(model, variant=spec.variant, **shared)
    assert 0.0 < coverage.coverage < 1.0
    events = [[(row["seed"], row["coverage_event"]) for row in report.rows] for report in (coverage, transductive)]
    assert events[0] == events[1]
    assert coverage.config == transductive.config


def reference_per_feature_excess(model, centers):
    """The per-feature excess as first written: 2m calls of the exact risk oracle."""
    m = centers.shape[0]
    truth = np.zeros(m)
    upto = min(m, model.size)
    truth[:upto] = model.coefficients[:upto]
    out = np.empty(m)
    basis = np.zeros(m)
    for k in range(m):
        basis[:] = 0.0
        basis[k] = centers[k]
        best = basis.copy()
        best[k] = truth[k]
        out[k] = ex.exact_excess_risk(model, basis) - ex.exact_excess_risk(model, best)
    return out


@pytest.mark.parametrize("size,m", [(64, 16), (64, 64), (16, 64), (4096, 256)])
def test_per_feature_excess_closed_form_matches_oracle_loop(size, m):
    model = small_sobolev(size=size)
    rng = np.random.default_rng(size + m)
    for _ in range(5):
        centers = model.coefficients[: min(size, m)].tolist() + [0.0] * max(m - size, 0)
        centers = np.asarray(centers) + rng.normal(0.0, 0.1, size=m)
        np.testing.assert_allclose(
            ex._per_feature_excess_inductive(model, centers),
            reference_per_feature_excess(model, centers),
            rtol=0.0,
            atol=1e-12,
        )


def whole_block_excess(test, hidden_y, centers, diag):
    """The transductive excess as first written, from whole-block temporaries."""
    num = (test * hidden_y[:, None]).sum(axis=0)
    den = (test**2).sum(axis=0)
    alpha2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return diag * (centers - alpha2) ** 2


@pytest.mark.parametrize("layout", ["C", "F", "row_strided"])
@pytest.mark.parametrize("rows,m", [(300, 16), (1100, 260), (50, 1)])
def test_transductive_excess_in_row_blocks_is_the_whole_block_formula_bitwise(layout, rows, m):
    # a C-ordered 1100 x 260 block is read in three row blocks of STATS_BLOCK_CELLS // m rows
    rng = np.random.default_rng(rows + m)
    test = rng.normal(size=(2 * rows, m)) * np.linspace(0.1, 10.0, m)
    test = {"C": test[:rows], "F": np.asfortranarray(test[:rows]), "row_strided": test[::2]}[layout]
    if m > 1:
        test[:, 1] = 0.0  # a feature with no test moment
    hidden_y, centers = rng.normal(size=rows), rng.normal(size=m)
    # the moments hold the block C-contiguous, whatever its layout
    moments = empirical_test_moments(test)
    excess = ex._per_feature_excess_transductive(hidden_y, centers, moments)
    assert excess.tobytes() == whole_block_excess(moments.block, hidden_y, centers, moments.diag).tobytes()


def test_transductive_excess_stays_small_in_memory(peak_bytes):
    rng = np.random.default_rng(7)
    test = rng.normal(size=(2048, 2048))
    hidden_y, centers = rng.normal(size=2048), rng.normal(size=2048)
    peak = peak_bytes(lambda: ex._per_feature_excess_transductive(hidden_y, centers, empirical_test_moments(test)))
    # each whole-block temporary, test * y or test**2, is 32 MB
    assert peak < 4 * 2**20


def test_inductive_coverage_rows_equal_whole_matrix_rows(monkeypatch):
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    n, m = 80, 2048  # a row block of 64 and one of 16 per replicate

    def study():
        return ex.coverage_study("IndVarFirstOrder", model, n_train=n, m=m, epsilon=0.25, replicates=100, seed=12)

    streamed = study()
    monkeypatch.setattr(fd.Trigonometric, "rowwise", False)
    assert streamed.rows == study().rows


def test_coverage_needs_replicates():
    with pytest.raises(ConfigError, match="replicates"):
        ex.coverage_study("IndExact", small_sobolev(), 64, 16, 0.25, replicates=50, seed=1)


def test_coverage_threads_bitwise_identical():
    model = small_sobolev(noise=ex.NoiseSpec("gaussian", 0.3))
    a = ex.coverage_study("IndExact", model, 64, 8, 0.25, replicates=100, seed=2, threads=1)
    b = ex.coverage_study("IndExact", model, 64, 8, 0.25, replicates=100, seed=2, threads=4)
    assert a.rows == b.rows


def test_rate_grid_validation():
    model = small_sobolev(size=256)
    with pytest.raises(ConfigError, match="grid"):
        ex.rate_experiment(model, [64, 128, 256], replicates=2, seed=0)
    with pytest.raises(ConfigError, match="grid"):
        ex.rate_experiment(model, [16, 64, 128, 256], replicates=2, seed=0)


def test_rate_noiseless_in_span_risk_decreases():
    model = ex.SyntheticModel(
        coefficients=np.array([2.0]), basis="Trigonometric", noise=ex.NoiseSpec("none", 0.0)
    )
    report = ex.rate_experiment(model, [64, 256, 1024, 2048], replicates=6, seed=4)
    meds = [report.medians[n] for n in sorted(report.medians)]
    assert all(m >= 0 for m in meds)
    assert all(b <= a + 1e-12 for a, b in zip(meds, meds[1:]))
    assert meds[-1] <= 0.2 * meds[0]


def test_rate_report_schema_and_determinism():
    model = small_sobolev(size=256)
    a = ex.rate_experiment(model, [32, 48, 64, 96], replicates=3, seed=1)
    b = ex.rate_experiment(model, [32, 48, 64, 96], replicates=3, seed=1, threads=3)
    assert a.rows == b.rows
    assert a.slope is not None and a.slope_stderr is not None
    assert set(a.medians) == {32, 48, 64, 96}
    assert a.csv_text().splitlines()[0] == "N,replicate,mse,coverage_event,seed"


def test_rate_slope_stderr_shrinks_with_replicates():
    model = small_sobolev(size=512)
    lo = ex.rate_experiment(model, [64, 128, 256, 512], replicates=4, seed=6)
    hi = ex.rate_experiment(model, [64, 128, 256, 512], replicates=16, seed=6)
    assert hi.slope_stderr <= lo.slope_stderr * 1.25


def test_rate_sigma_scale_knob_inflates_radii():
    model = small_sobolev(size=256, noise=ex.NoiseSpec("uniform", 0.6))
    base = ex.rate_experiment(model, [32, 64, 128, 256], replicates=3, seed=2)
    inflated = ex.rate_experiment(model, [32, 64, 128, 256], replicates=3, seed=2, sigma_scale=3.0)
    # larger declared sigma -> larger thresholds -> (weakly) more shrinkage
    assert inflated.medians[256] >= base.medians[256] - 1e-12


def test_rate_budget_spent_before_the_first_size_marks_partial(monkeypatch):
    model = small_sobolev(size=256)
    for budget in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="budget_seconds must be positive"):
            ex.rate_experiment(model, [32, 48, 64, 96], replicates=2, budget_seconds=budget)
    # A clock that advances one second per reading spends a half-second
    # budget before the first grid size.
    monkeypatch.setattr(ex, "time", SimpleNamespace(monotonic=itertools.count().__next__))
    report = ex.rate_experiment(model, [32, 48, 64, 96], replicates=2, seed=0, budget_seconds=0.5)
    assert report.partial
    assert report.rows == []


def test_rate_budget_spent_after_the_first_size_keeps_its_rows(monkeypatch):
    model = small_sobolev(size=256)
    whole = ex.rate_experiment(model, [32, 48, 64, 96], replicates=2, seed=0)
    # A clock that advances one second per reading lets the first grid size
    # run under a 1.5 s budget and cuts the run before the second.
    monkeypatch.setattr(ex, "time", SimpleNamespace(monotonic=itertools.count().__next__))
    report = ex.rate_experiment(model, [32, 48, 64, 96], replicates=2, seed=0, budget_seconds=1.5)
    assert report.partial
    first = [row for row in whole.rows if row["N"] == 32]
    assert json.dumps(report.rows) == json.dumps(first) and len(first) == 2
    assert report.medians == {32: whole.medians[32]}
    assert report.slope is None


def test_besov_rate_runs_and_reports():
    model = ex.besov_spike_model(smoothness=1.0, levels=8, scale=1.0, seed=1)
    report = ex.rate_experiment(model, [32, 64, 128, 256], replicates=3, seed=3)
    assert set(report.medians) == {32, 64, 128, 256}
    assert report.slope is not None


def test_transductive_zero_noise_beats_zero_predictor():
    model = ex.SyntheticModel(
        coefficients=np.array([1.0, -0.8, 0.5, 0.3]),
        basis="Trigonometric",
        noise=ex.NoiseSpec("none", 0.0),
    )
    report = ex.transductive_experiment(
        model, n_train=256, k_test=1, m=8, variant="TrBasicBounded", epsilon=0.1, replicates=30, seed=8
    )
    assert report.extras["beats_zero_fraction"] == 1.0


def test_transductive_experiment_evaluates_the_dictionary_once_per_fit(evaluations):
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    log = evaluations(fd.Trigonometric)
    report = ex.transductive_experiment(model, n_train=32, k_test=1, m=8, replicates=3, seed=4)
    for row in report.rows:
        log.pop_sample(ex.generate(model, 32, 1, seed=row["seed"]).x, 32)
    assert not log.calls


def test_transductive_coverage_study_evaluates_the_dictionary_once_per_replicate(evaluations):
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    log = evaluations(fd.Trigonometric)
    report = ex.coverage_study("TrBasicBounded", model, n_train=32, m=8, epsilon=0.25, replicates=100, seed=5)
    for row in report.rows:
        log.pop_sample(ex.generate(model, 32, 1, seed=row["seed"]).x, 32)
    assert not log.calls


def test_transductive_chain_fraction_high():
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    report = ex.transductive_experiment(
        model, n_train=64, k_test=1, m=16, variant="TrBasicBounded", epsilon=0.1, replicates=100, seed=2
    )
    assert report.extras["chain_fraction"] >= 0.9 - binomial_slack(0.9, 100)
    assert report.coverage >= 0.9 - binomial_slack(0.9, 100)


def test_chain_check_rejects_a_delta_above_the_hidden_risk_drop():
    model = ex.SyntheticModel(
        coefficients=np.array([1.0, -0.8, 0.5, 0.3]), basis="Trigonometric", noise=ex.NoiseSpec("uniform", 0.1)
    )
    data = ex.generate(model, 256, 1, seed=3)
    family = model.family(8)
    features, mom = bounds.sample_geometry(family, data, True, None)
    spec = bounds.BoundSpec("TrBasicBounded", 0.1, B=2.75)
    fit = run_selection(data, features, mom, spec)
    assert fit.trace and ex._chain_holds(fit, mom.block, data.hidden_y)
    first = fit.trace[0]
    test = mom.block[:, first.feature - 1]
    drop = np.mean(data.hidden_y**2) - np.mean((data.hidden_y - first.update * test) ** 2)
    claimed = replace(fit, trace=(replace(first, delta=drop + 1e-6), *fit.trace[1:]))
    assert not ex._chain_holds(claimed, mom.block, data.hidden_y)


def test_transductive_general_k_bound_shrinks_with_more_test_points():
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3), size=256)
    family = model.family(8)
    spec = bounds.BoundSpec("TrGeneralK", 0.1, subexp=((2.0, 2.0),))
    medians = {}
    for k in (1, 3):
        vals = []
        for seed in range(5):
            ds = ex.generate(model, 256, k, seed=seed)
            feats = family.evaluate(ds.x)
            stats = bounds.compute_stats(feats, ds)
            from slabreg.moments import empirical_test_moments

            mom = empirical_test_moments(feats[256:])
            vals.append(float(np.median(bounds.tr_general_k(stats, mom, spec).beta)))
        medians[k] = vals
    assert all(b < a for a, b in zip(medians[1], medians[3]))


def test_report_json_excludes_runtime():
    model = small_sobolev(noise=ex.NoiseSpec("gaussian", 0.2), size=64)
    report = ex.coverage_study("IndExact", model, 32, 4, 0.25, replicates=100, seed=1)
    payload = report.to_json_dict()
    assert "runtime" not in str(payload)


def test_model_spec_roundtrip():
    model = ex.besov_spike_model(smoothness=1.5, levels=5, scale=0.7, seed=9)
    again = ex.SyntheticModel.from_spec(model.to_spec())
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    assert again.basis == model.basis and again.noise == model.noise


def test_inductive_per_step_risk_decrease_via_exact_oracle():
    # on replicates where the simultaneous bound event holds, each greedy
    # projection step decreases the exact excess risk by at least its delta
    model = ex.SyntheticModel(
        coefficients=np.array([1.0, -0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0]),
        basis="Trigonometric",
        noise=ex.NoiseSpec("uniform", 0.2),
    )
    from slabreg import selector
    from slabreg.moments import exact_moments

    family = model.family(8)
    mom = exact_moments(family)
    checked = 0
    for seed in range(20):
        ds = ex.generate(model, 512, 0, seed=seed)
        spec = bounds.BoundSpec(
            "IndExact", 0.1, B=model.sup_bound(), sigma2=model.noise.second_moment
        )
        fit = selector.run_selection(ds, family, mom, spec)
        stats = bounds.compute_stats(family.evaluate(ds.x), ds)
        centers = bounds.slab_centers(stats, mom)
        radius = bounds.compute_radius(spec, stats, mom)
        truth = np.zeros(8)
        truth[: model.size] = model.coefficients
        event = bool(np.all((centers - truth) ** 2 <= radius.beta + 1e-15))
        if not event or fit.stopped_at == 0:
            continue
        checked += 1
        c = np.zeros(8)
        risk = ex.exact_excess_risk(model, c)
        for record in fit.trace:
            c[record.feature - 1] += record.update
            new_risk = ex.exact_excess_risk(model, c)
            assert new_risk <= risk - record.delta + 1e-9
            risk = new_risk
    assert checked >= 10


def test_transductive_coverage_500_replicates():
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    report = ex.coverage_study(
        "TrBasicBounded", model, n_train=64, m=16, epsilon=0.25, replicates=500, seed=12
    )
    assert report.coverage >= 0.75 - binomial_slack(0.25, 500)


def test_clipping_never_increases_exact_excess_risk():
    from slabreg import selector

    rng = np.random.default_rng(55)
    for _ in range(200):
        size = int(rng.integers(1, 8))
        truth = rng.uniform(-1.0, 1.0, size=size)
        model = ex.SyntheticModel(
            coefficients=truth, basis="Trigonometric", noise=ex.NoiseSpec("none", 0.0)
        )
        bound = float(np.abs(truth).max()) + float(rng.uniform(0, 0.5))
        c = rng.normal(0, 2, size=size)
        fit = selector.SelectionModel(
            coefficients=c,
            trace=(),
            bound_variant="IndExact",
            epsilon=0.1,
            kappa=0.01,
            schedule="GreedyMax",
            orthonormal_design=True,
        )
        clipped = selector.clip_coefficients(fit, bound)
        assert ex.exact_excess_risk(model, clipped.coefficients) <= ex.exact_excess_risk(model, c)


def reference_coverage_event(spec, model, family, data):
    """A replicate's coverage event as first computed: statistics, radius and
    centers built by hand from compute_stats, compute_radius and slab_centers."""
    from slabreg.moments import empirical_test_moments, exact_moments

    features = family.evaluate(data.x)
    stats = bounds.compute_stats(features, data, (spec.variant,))
    if spec.transductive:
        test = features[data.n_train :]
        moments = empirical_test_moments(test)
        num = (test * data.hidden_y[:, None]).sum(axis=0)
        den = (test**2).sum(axis=0)
        alpha2 = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        excess = moments.diag * (bounds.slab_centers(stats, moments) - alpha2) ** 2
    else:
        moments = exact_moments(family)
        excess = ex._per_feature_excess_inductive(model, bounds.slab_centers(stats, moments))
    radius = bounds.compute_radius(spec, stats, moments)
    return bool(np.all(excess <= radius.beta * (1 + 1e-12) + 1e-15))


# B = 0 understates the label bound, and epsilon = 0.9 asks for 10% coverage,
# so those cases mix covered and uncovered replicates.
@pytest.mark.parametrize(
    "spec,noise,mixed",
    [
        (bounds.BoundSpec("IndExact", 0.25, B=1.5, sigma2=0.09), ex.NoiseSpec("gaussian", 0.3), False),
        (bounds.BoundSpec("IndVarFirstOrder", 0.9), ex.NoiseSpec("gaussian", 0.3), True),
        (bounds.BoundSpec("TrBasicBounded", 0.9, B=0.0), ex.NoiseSpec("uniform", 0.3), True),
        (bounds.BoundSpec("TrFirstOrder", 0.25), ex.NoiseSpec("uniform", 0.3), False),
    ],
    ids=lambda value: getattr(value, "variant", None),
)
def test_coverage_study_events_match_reference(spec, noise, mixed):
    model = small_sobolev(noise=noise)
    n, m = 32, 16
    report = ex.coverage_study(
        spec.variant, model, n_train=n, m=m, epsilon=spec.epsilon, replicates=100, seed=11, spec=spec
    )
    assert (0.0 < report.coverage < 1.0) is mixed
    k_test = 1 if spec.transductive else 0
    family = model.family(m)
    for row in report.rows:
        data = ex.generate(model, n, k_test, seed=row["seed"])
        assert row["coverage_event"] is reference_coverage_event(spec, model, family, data)


@pytest.mark.parametrize(
    "spec,k_test,mixed",
    [
        (bounds.BoundSpec("TrBasicBounded", 0.9, B=0.0), 1, True),
        (bounds.BoundSpec("TrGeneralK", 0.5, subexp=((0.5, 3.0),)), 2, False),
    ],
    ids=["TrBasicBounded-k1", "TrGeneralK-k2"],
)
def test_transductive_experiment_events_match_reference(spec, k_test, mixed, monkeypatch):
    model = small_sobolev(noise=ex.NoiseSpec("uniform", 0.3))
    n, m, replicates = 32, 16, 40
    stats_calls = []
    compute_stats = bounds.compute_stats

    def counted(*args, **kwargs):
        stats_calls.append(args)
        return compute_stats(*args, **kwargs)

    monkeypatch.setattr(bounds, "compute_stats", counted)
    report = ex.transductive_experiment(
        model, n_train=n, k_test=k_test, m=m, variant=spec.variant, epsilon=spec.epsilon,
        replicates=replicates, seed=4, spec=spec,
    )
    assert len(stats_calls) == replicates  # one slab setup per replicate, for the fit and the coverage check
    monkeypatch.undo()
    assert (0.0 < report.coverage < 1.0) is mixed
    family = model.family(m)
    for row in report.rows:
        data = ex.generate(model, n, k_test, seed=row["seed"])
        assert row["coverage_event"] is reference_coverage_event(spec, model, family, data)


@pytest.mark.parametrize(
    "spec,size,noise",
    [
        (None, 16, ex.NoiseSpec("uniform", 0.05)),
        ({"kind": "sobolev"}, 16, ex.NoiseSpec("uniform", 0.05)),
        ({"size": 8, "noise": {"kind": "rademacher", "scale": 0.5}}, 8, ex.NoiseSpec("rademacher", 0.5)),
        ({"kind": "besov", "levels": 3}, 8, ex.NoiseSpec("uniform", 0.05)),
        ({"coefficients": [1.0, 0.5]}, 2, ex.NoiseSpec()),
    ],
    ids=["default", "sobolev", "sobolev-sized", "besov", "coefficients"],
)
def test_truth_reads_every_model_spec_with_its_noise_default(spec, size, noise):
    # a sobolev truth without a size has the size given; a family truth's
    # noise defaults to uniform 0.05, a coefficient truth's to none
    model = ex.truth(spec, 16)
    assert model.size == size and model.noise == noise


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"coefficients": [1.0], "kind": "sobolev"}, "unknown config key 'kind' in model; model reads basis, coefficients"),
        ({"kind": "besov", "size": 8}, "unknown config key 'size' in model"),
        ({"noise": {"kind": "uniform", "scal": 0.5}}, "unknown config key 'scal' in noise; noise reads kind, scale"),
        ({"noise": None}, "noise must be a JSON object, got None"),
        ({"coefficients": [1.0], "noise": None}, "noise must be a JSON object, got None"),
    ],
)
def test_truth_rejects_a_key_its_kind_does_not_read(spec, message):
    with pytest.raises(ConfigError) as caught:
        ex.truth(spec, 8)
    assert str(caught.value).startswith(message)
