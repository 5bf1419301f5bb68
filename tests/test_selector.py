import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabreg import bounds, experiments, selector
from slabreg.data import Dataset
from slabreg.dictionary import STATS_BLOCK_CELLS, ExplicitMatrix, Haar, KernelPCA, MultiscaleGaussian, Trigonometric
from slabreg.errors import ConfigError, DataError, NumericalError
from slabreg.moments import DesignMoments, empirical_test_moments, exact_moments


def radius_from_tau(tau, v):
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    return bounds.ConfidenceRadius(beta=tau**2 * v, tau=tau)


def zero_radius(m):
    return radius_from_tau(np.zeros(m), np.ones(m))


def test_residual_gamma_empty_model(project):
    # at tau = 0 every step records its residual, gamma
    mom = DesignMoments(np.eye(3), "Exact")
    centers = np.array([0.3, -0.7, 1.1])
    for k in range(3):
        assert project(np.zeros(3), k, centers, mom, zero_radius(3))[2] == centers[k]


def test_residual_gamma_centered_model(project):
    # at tau = 0 the loop records no step exactly when the residual is 0.0
    mom = DesignMoments(np.eye(2), "Exact")
    centers = np.array([0.5, -0.25])
    assert project(centers.copy(), 0, centers, mom, zero_radius(2))[2] is None
    assert project(centers.copy(), 1, centers, mom, zero_radius(2))[2] is None


def test_residual_gamma_hand_gram(project):
    gram = np.array([[1.0, 0.5], [0.5, 1.0]])
    mom = DesignMoments(gram, "UserSupplied")
    centers = np.array([0.0, 0.8])
    c = np.array([1.0, 0.0])
    assert project(c, 1, centers, mom, zero_radius(2))[2] == pytest.approx(0.3, abs=1e-15)


def test_identity_step_into_a_slab_no_step_lands_in_keeps_the_plain_step(project):
    # At tau = 0 the slab is the center alone, which c[k] + step misses from
    # 1.58; raising the step crosses it, so the step stays gamma.
    mom = DesignMoments(np.eye(1), "Exact")
    c, _, gamma = project(np.array([1.58]), 0, np.array([-0.00049]), mom, zero_radius(1))
    assert -0.00049 - c[0] != 0.0
    assert c[0] == 1.58 + gamma


def test_project_feature_dead_zone(project):
    mom = DesignMoments(np.eye(1), "Exact")
    radius = radius_from_tau([0.5], [1.0])
    c, delta, _ = project(np.zeros(1), 0, np.array([0.4]), mom, radius)
    assert c[0] == 0.0 and delta == 0.0


def test_project_feature_soft_threshold_arithmetic(project):
    mom = DesignMoments(np.eye(1), "Exact")
    radius = radius_from_tau([0.2], [1.0])
    c, delta, _ = project(np.zeros(1), 0, np.array([0.5]), mom, radius)
    assert c[0] == pytest.approx(0.3, abs=1e-15)
    assert delta == pytest.approx(0.09, abs=1e-15)


def test_project_feature_sign_and_scale(project):
    mom = DesignMoments(np.diag([4.0]), "UserSupplied")
    radius = radius_from_tau([0.2], [4.0])
    c, delta, _ = project(np.zeros(1), 0, np.array([-0.5]), mom, radius)
    assert c[0] == pytest.approx(-0.3, abs=1e-15)
    assert delta == pytest.approx(4.0 * 0.09, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(-5, 5),
    tau=st.floats(0, 3),
    v=st.floats(0.01, 10),
)
def test_projection_membership_idempotence_delta(project, gamma, tau, v):
    mom = DesignMoments(np.diag([v]), "UserSupplied")
    radius = radius_from_tau([tau], [v])
    centers = np.array([gamma])
    c0 = np.zeros(1)
    c1, delta, _ = project(c0, 0, centers, mom, radius)
    # membership: |<theta_c1 - center*theta, theta/||theta||>| <= sqrt(beta) + 1e-10
    inner = abs((c1[0] - centers[0]) * v) / math.sqrt(v)
    assert inner <= math.sqrt(radius.beta[0]) + 1e-10
    # idempotence
    c2, delta2, _ = project(c1, 0, centers, mom, radius)
    assert abs(c2[0] - c1[0]) <= 1e-12
    assert delta2 <= 1e-12 * max(1.0, v)
    # delta equals the squared ambient movement
    assert delta == pytest.approx(v * (c1[0] - c0[0]) ** 2, abs=1e-12)


def test_projection_membership_under_correlated_gram(project):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4))
    gram = a.T @ a / 6 + 0.1 * np.eye(4)
    mom = DesignMoments(gram, "UserSupplied")
    v = mom.diag
    tau = rng.uniform(0.05, 0.5, size=4)
    radius = radius_from_tau(tau, v)
    centers = rng.normal(size=4)
    c = rng.normal(size=4)
    for k in range(4):
        c1, delta, _ = project(c, k, centers, mom, radius)
        gamma_after = centers[k] - gram[:, k] @ c1 / v[k]
        assert abs(gamma_after) * math.sqrt(v[k]) <= math.sqrt(radius.beta[k]) + 1e-10
        move = c1 - c
        assert delta == pytest.approx(float(move @ gram @ move), abs=1e-12)


def fit_trig(y, n, m=8, eps=0.1, schedule="GreedyMax", seed=0, **spec_kwargs):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 1))
    family = Trigonometric(m)
    ds = Dataset(x=x, y=np.asarray(y, dtype=float))
    mom = exact_moments(family)
    spec_kwargs.setdefault("B", 2.0)
    spec_kwargs.setdefault("sigma2", 1.0)
    spec = bounds.BoundSpec("IndExact", eps, **spec_kwargs)
    model = selector.run_selection(ds, family, mom, spec, schedule=schedule)
    feats = family.evaluate(x)
    stats = bounds.compute_stats(feats, ds)
    return model, stats, mom, spec


def test_zero_dataset_zero_model():
    model, _, _, _ = fit_trig(np.zeros(32), 32, B=0.0, sigma2=0.0)
    assert model.stopped_at == 0
    np.testing.assert_array_equal(model.coefficients, np.zeros(8))


def test_roundrobin_equals_coordinatewise_soft_threshold():
    rng = np.random.default_rng(7)
    n = 64
    y = np.sin(2 * np.pi * rng.uniform(size=n)) + rng.normal(0, 0.2, size=n)
    model, stats, mom, spec = fit_trig(y, n, m=8, schedule="RoundRobin", seed=3)
    centers = bounds.slab_centers(stats, mom)
    radius = bounds.compute_radius(spec, stats, mom)
    expected = np.sign(centers) * np.maximum(np.abs(centers) - radius.tau, 0.0)
    np.testing.assert_allclose(model.coefficients, expected, atol=1e-15)


def test_roundrobin_second_pass_is_noop():
    rng = np.random.default_rng(9)
    n = 128
    y = 1.0 + rng.normal(0, 0.3, size=n)
    model, stats, mom, spec = fit_trig(y, n, m=6, schedule="RoundRobin", seed=4)
    # replay: warm start from the fitted coefficients must change nothing
    family = Trigonometric(6)
    ds = Dataset(x=np.random.default_rng(4).uniform(size=(n, 1)), y=y)
    again = selector.run_selection(
        ds, family, mom, spec, schedule="RoundRobin", warm_start=model.coefficients
    )
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    assert again.stopped_at == 0


@pytest.mark.parametrize("schedule", selector.SCHEDULES)
def test_warm_start_rerun_under_the_identity_records_nothing(schedule):
    # Under the identity a RoundRobin fit is soft thresholding: each feature
    # is projected once, onto its slab, so a re-run from its coefficients
    # finds every feature inside, in either schedule, whatever the last bits
    # (a strong feature's step |center| - tau rounds, and lands an ulp
    # outside about one time in four unless the step is raised). A GreedyMax
    # fit may stop with features left outside below kappa, but each feature
    # it projected lies inside: a re-run never records one of them.
    family = Trigonometric(16)
    mom = exact_moments(family)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.1)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(256, 1))
        y = family.evaluate(x) @ rng.normal(0.0, 3.0, 16) + rng.normal(0.0, 0.3, 256)
        ds = Dataset(x=x, y=y)
        model = selector.run_selection(ds, family, mom, spec, schedule="RoundRobin")
        features = [record.feature for record in model.trace]
        assert len(set(features)) == len(features), seed
        again = selector.run_selection(ds, family, mom, spec, schedule=schedule, warm_start=model.coefficients)
        assert again.stopped_at == 0, seed
        assert again.coefficients.tobytes() == model.coefficients.tobytes()
        if schedule == "GreedyMax":
            greedy = selector.run_selection(ds, family, mom, spec)
            again = selector.run_selection(ds, family, mom, spec, warm_start=greedy.coefficients)
            projected = {record.feature for record in greedy.trace}
            assert not projected & {record.feature for record in again.trace}, seed


def test_greedy_first_pick_matches_bruteforce_argmax():
    rng = np.random.default_rng(11)
    n = 256
    x = rng.uniform(size=(n, 1))
    y = np.cos(2 * np.pi * x[:, 0]) * 2.0 + rng.normal(0, 0.1, size=n)
    family = Trigonometric(8)
    ds = Dataset(x=x, y=y)
    mom = exact_moments(family)
    spec = bounds.BoundSpec("IndExact", 0.1, B=2.5, sigma2=0.05)
    model = selector.run_selection(ds, family, mom, spec)
    stats = bounds.compute_stats(family.evaluate(x), ds)
    centers = bounds.slab_centers(stats, mom)
    radius = bounds.compute_radius(spec, stats, mom)
    deltas = [
        mom.diag[k] * max(abs(centers[k]) - radius.tau[k], 0.0) ** 2 for k in range(8)
    ]
    assert model.trace[0].feature == int(np.argmax(deltas)) + 1
    assert model.trace[0].delta == pytest.approx(max(deltas), rel=1e-12)


def test_trace_deltas_meet_kappa_except_final_probe():
    rng = np.random.default_rng(13)
    n = 128
    x = rng.uniform(size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + 0.5 * np.cos(4 * np.pi * x[:, 0]) + rng.normal(0, 0.2, n)
    family = Trigonometric(10)
    ds = Dataset(x=x, y=y)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.4)
    model = selector.run_selection(ds, family, exact_moments(family), spec)
    assert model.stopped_at >= 1
    for record in model.trace[:-1]:
        assert record.delta >= model.kappa
    assert model.trace[-1].delta > 0.0
    # post-update membership per record, replayed in order
    mom = exact_moments(family)
    stats = bounds.compute_stats(family.evaluate(x), ds)
    centers = bounds.slab_centers(stats, mom)
    radius = bounds.compute_radius(spec, stats, mom)
    c = np.zeros(10)
    for record in model.trace:
        k = record.feature - 1
        c[k] += record.update
        gamma_after = centers[k] - mom.gram[:, k] @ c / mom.diag[k]
        assert abs(gamma_after) * math.sqrt(mom.diag[k]) <= math.sqrt(radius.beta[k]) + 1e-10
    np.testing.assert_array_equal(c, model.coefficients)


def test_termination_within_movement_budget():
    rng = np.random.default_rng(17)
    n = 64
    x = rng.uniform(size=(n, 1))
    y = rng.normal(size=n) * 2.0
    family = Trigonometric(12)
    ds = Dataset(x=x, y=y)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.3)
    model = selector.run_selection(ds, family, exact_moments(family), spec)
    total = float(model.coefficients @ model.coefficients)
    cap = math.ceil(total / model.kappa) + family.m
    assert model.stopped_at <= cap


def test_iteration_cap_is_an_error():
    rng = np.random.default_rng(19)
    n = 64
    x = rng.uniform(size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) * 3.0
    family = Trigonometric(6)
    ds = Dataset(x=x, y=y)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.3)
    with pytest.raises(NumericalError, match="terminate"):
        selector.run_selection(ds, family, exact_moments(family), spec, max_iterations=1)


def test_round_robin_iteration_cap_is_an_error():
    rng = np.random.default_rng(19)
    x = rng.uniform(size=(64, 1))
    family = Trigonometric(6)
    ds = Dataset(x=x, y=np.sin(2 * np.pi * x[:, 0]) * 3.0)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.3)
    # one pass takes 6 visits; 5 cannot finish it
    with pytest.raises(NumericalError, match="within 5 feature visits"):
        selector.run_selection(ds, family, exact_moments(family), spec, schedule="RoundRobin", max_iterations=5)
    assert selector.run_selection(ds, family, exact_moments(family), spec, schedule="RoundRobin").stopped_at > 0


def test_all_degenerate_warns_and_returns_zero_model():
    family = Trigonometric(2)
    n = 16
    ds = Dataset(x=np.zeros((n, 1)), y=np.ones(n))
    # zero design moments for every feature
    mom = DesignMoments(np.zeros((2, 2)), "UserSupplied")
    spec = bounds.BoundSpec("IndExact", 0.1, B=1.0, sigma2=1.0)
    with pytest.warns(UserWarning, match=r"^excluding 2 degenerate feature\(s\) from selection \(first index 1\)"):
        model = selector.run_selection(ds, family, mom, spec)
    np.testing.assert_array_equal(model.coefficients, np.zeros(2))
    assert model.stopped_at == 0


def test_an_excluded_feature_warns_once_from_the_fit():
    # Feature 3's test column is zero: one warning, from the fit, with the
    # count and the first 1-based index; the test moments do not warn.
    rng = np.random.default_rng(9)
    n = 16
    feats = rng.uniform(-1, 1, size=(2 * n, 4))
    feats[n:, 2] = 0.0
    ds = Dataset(x=np.zeros((2 * n, 1)), y=rng.normal(size=n))
    family = ExplicitMatrix(feats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        features, mom = bounds.sample_geometry(family, ds, True, None)
        model = selector.run_selection(ds, features, mom, bounds.BoundSpec("TrBasicBounded", 0.1, B=3.0))
    assert [str(w.message) for w in caught] == [
        "excluding 1 degenerate feature(s) from selection (first index 3): zero design or training second moment"
    ]
    assert model.slabs.active.tolist() == [True, True, False, True]


def test_kappa_range_enforced():
    family = Trigonometric(2)
    ds = Dataset(x=np.full((4, 1), 0.3), y=np.ones(4))
    spec = bounds.BoundSpec("IndExact", 0.1, B=1.0, sigma2=1.0)
    with pytest.raises(ConfigError, match="kappa"):
        selector.run_selection(ds, family, exact_moments(family), spec, kappa=0.5)


def test_predict_trivials():
    family = Trigonometric(3)
    model = selector.SelectionModel(
        coefficients=np.zeros(3),
        trace=(),
        bound_variant="IndExact",
        epsilon=0.1,
        kappa=0.01,
        schedule="GreedyMax",
        dictionary=family,
    )
    np.testing.assert_array_equal(selector.predict(model, [[0.1], [0.9]]), np.zeros(2))
    const = selector.SelectionModel(
        coefficients=np.array([2.0, 0.0, 0.0]),
        trace=(),
        bound_variant="IndExact",
        epsilon=0.1,
        kappa=0.01,
        schedule="GreedyMax",
        dictionary=family,
    )
    np.testing.assert_array_equal(selector.predict(const, [[0.2], [0.4], [0.6]]), np.full(3, 2.0))


def test_predict_direct_sum_oracle():
    rng = np.random.default_rng(23)
    family = Haar(1)
    c = rng.normal(size=4)
    model = selector.SelectionModel(
        coefficients=c,
        trace=(),
        bound_variant="IndExact",
        epsilon=0.1,
        kappa=0.01,
        schedule="GreedyMax",
        dictionary=family,
    )
    x = 0.1
    feats = family.evaluate([[x]])[0]
    expected = sum(c[k] * feats[k] for k in range(4))
    assert selector.predict(model, [[x]])[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("family", [Trigonometric(1024), Haar(9)], ids=["Trigonometric", "Haar"])
def test_predict_sums_an_orthonormal_family_without_its_feature_matrix(family, peak_bytes):
    # The family's combine takes the sum: no 2^14 x 1024 matrix (128 MB),
    # and the values of the matrix product within rounding.
    rng = np.random.default_rng(37)
    c = rng.normal(size=family.m)
    points = rng.uniform(size=(2**14, 1))
    got = []
    peak = peak_bytes(lambda: got.append(selector.predict(make_model(c, dictionary=family), points)))
    assert peak < 4 * 2**20
    head = points[:512]
    assert np.abs(got[0][:512] - family.evaluate(head) @ c).max() <= 1e-12 * np.abs(c).sum()


@pytest.mark.parametrize("kind", ["MultiscaleGaussian", "KernelPCA", "ExplicitMatrix"])
def test_predict_through_the_feature_matrix_keeps_its_bits(kind):
    rng = np.random.default_rng(41)
    x = rng.uniform(size=(30, 1))
    if kind == "MultiscaleGaussian":
        family = MultiscaleGaussian(x[:10], [1.0, 20.0])
    elif kind == "KernelPCA":
        family = KernelPCA(x[:20], {"kind": "gaussian", "gamma": 30.0}, top=6)
    else:
        family = ExplicitMatrix(rng.normal(size=(30, 5)))
    c = rng.normal(size=family.m)
    assert selector.predict(make_model(c, dictionary=family), x).tobytes() == (family.evaluate(x) @ c).tobytes()


@pytest.mark.parametrize("transductive", [False, True])
def test_a_fit_records_the_family_its_features_are_of(transductive):
    # The dictionary is named once, by the features: a fit given the
    # family, or the split of a sample, records that family and predicts
    # its combination; a fit given a matrix records none.
    rng = np.random.default_rng(43)
    n = 256
    x = rng.uniform(size=((2 if transductive else 1) * n, 1))
    ds = Dataset(x=x, y=np.where(x[:n, 0] < 0.5, 1.0, -1.0) + rng.normal(0.0, 0.1, n))
    family = Haar(3)
    features, mom = bounds.sample_geometry(family, ds, transductive, lambda: exact_moments(family))
    spec = bounds.BoundSpec("TrBasicBounded", 0.1, B=1.5) if transductive else bounds.BoundSpec("IndVarFirstOrder", 0.1)
    model = selector.run_selection(ds, features, mom, spec)
    assert model.dictionary is family and model.selected.size
    again = selector.SelectionModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    assert again.dictionary == family and again.m == family.m
    points = np.array([[0.3], [0.7]])
    np.testing.assert_allclose(selector.predict(model, points), family.evaluate(points) @ model.coefficients, atol=1e-15)
    matrix = selector.run_selection(ds, family.evaluate(x), mom, spec)
    assert matrix.dictionary is None
    np.testing.assert_allclose(matrix.coefficients, model.coefficients, rtol=0.0, atol=1e-12)


def make_model(c, orthonormal=True, dictionary=None):
    return selector.SelectionModel(
        coefficients=np.asarray(c, dtype=float),
        trace=(),
        bound_variant="IndExact",
        epsilon=0.1,
        kappa=0.01,
        schedule="GreedyMax",
        orthonormal_design=orthonormal,
        dictionary=dictionary,
    )


def test_clip_noop_within_box():
    model = selector.clip_coefficients(make_model([0.5, -1.0]), 2.0)
    np.testing.assert_array_equal(model.coefficients, [0.5, -1.0])


def test_clip_box_clamp():
    model = selector.clip_coefficients(make_model([3.0, -5.0]), 2.0)
    np.testing.assert_array_equal(model.coefficients, [2.0, -2.0])
    assert model.clip_bound == 2.0


def test_clip_requires_orthonormal_moments():
    with pytest.raises(ConfigError, match="orthonormal"):
        selector.clip_coefficients(make_model([1.0], orthonormal=False), 1.0)


def test_clip_contraction_oracle_1000_pairs():
    rng = np.random.default_rng(29)
    bound = 1.5
    for _ in range(1000):
        dim = int(rng.integers(1, 8))
        c = rng.normal(0, 3, size=dim)
        f = rng.uniform(-bound, bound, size=dim)
        clipped = selector.clip_coefficients(make_model(c), bound).coefficients
        assert np.linalg.norm(clipped - f) <= np.linalg.norm(c - f)


def test_model_json_roundtrip_bit_stable():
    rng = np.random.default_rng(31)
    n = 64
    x = rng.uniform(size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + rng.normal(0, 0.1, n)
    family = Trigonometric(6)
    ds = Dataset(x=x, y=y)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.3)
    model = selector.run_selection(ds, family, exact_moments(family), spec, seed=5)
    blob = json.dumps(model.to_json_dict(), sort_keys=True)
    again = selector.SelectionModel.from_json_dict(json.loads(blob))
    assert json.dumps(again.to_json_dict(), sort_keys=True) == blob
    np.testing.assert_array_equal(again.coefficients, model.coefficients)
    pts = rng.uniform(size=(5, 1))
    np.testing.assert_array_equal(selector.predict(again, pts), selector.predict(model, pts))


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("kappa", -1, "model kappa must be in (0, 1)"),
        ("kappa", 0, "model kappa must be in (0, 1)"),
        ("kappa", 1, "model kappa must be in (0, 1)"),
        ("clip_bound", -1, "model clip_bound must be >= 0"),
    ],
)
def test_saved_model_kappa_and_clip_bound_are_read_in_range(key, value, message):
    # 0 < kappa < 1/N <= 1 for every fit, and a clip bound is >= 0
    family = Trigonometric(6)
    model = selector.SelectionModel(np.zeros(6), (), "IndVarFirstOrder", 0.3, 0.01, "GreedyMax", family)
    saved = {**model.to_json_dict(), key: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        selector.SelectionModel.from_json_dict(saved)
    assert selector.SelectionModel.from_json_dict({**saved, key: 0.5}).to_json_dict()[key] == 0.5


def test_transductive_fit_shares_engine():
    rng = np.random.default_rng(37)
    n = 512
    x = rng.uniform(size=(2 * n, 1))
    f = np.cos(2 * np.pi * x[:, 0])
    y = f + rng.uniform(-0.2, 0.2, size=2 * n)
    family = Trigonometric(8)
    feats = family.evaluate(x)
    ds = Dataset(x=x, y=y[:n], hidden_y=y[n:])
    mom = empirical_test_moments(feats[n:])
    spec = bounds.BoundSpec("TrBasicBounded", 0.1, B=1.2)
    model = selector.run_selection(ds, family, mom, spec)
    assert model.moments_provenance == "EmpiricalTest"
    assert abs(model.coefficients[1]) > 0.1


def test_variant_geometry_mismatch_is_config_error():
    rng = np.random.default_rng(41)
    n = 32
    x = rng.uniform(size=(n, 1))
    family = Trigonometric(4)
    ds = Dataset(x=x, y=np.ones(n))
    spec = bounds.BoundSpec("TrBasicBounded", 0.1, B=1.0)
    with pytest.raises(ConfigError, match="geometry"):
        selector.run_selection(ds, family, exact_moments(family), spec)


def landed(c, k, gamma, over, tau, center):
    """An identity projection's |step|: ``over`` raised by 1, 2, 4, ... ulp
    until the residual center - c[k] at the moved coefficient is inside the
    slab, or ``over`` itself when no step lands there."""
    raised, bump = over, math.ulp(over)
    while abs(center - (c[k] + math.copysign(raised, gamma))) - tau > 0.0:
        if raised > abs(gamma) + tau:
            return over
        raised, bump = raised + bump, 2.0 * bump
    return raised


def reference_iterate(centers, moments, radius, kappa, schedule, active, max_iterations, warm_start=None):
    """The projection loop as first written, one copy of the step per
    schedule; under the identity a step lands inside its slab (``landed``)."""
    g = moments.gram
    v = moments.diag
    tau = radius.tau
    m = centers.shape[0]
    c = np.zeros(m) if warm_start is None else np.array(warm_start, dtype=float, copy=True)
    trace = []
    if not np.any(active):
        return c, trace
    if schedule == "GreedyMax":
        safe_v = np.where(active, v, 1.0)
        for _ in range(max_iterations):
            gamma = np.where(active, centers - (c @ g) / safe_v, 0.0)
            over = np.abs(gamma) - tau
            delta = np.where(active & (over > 0.0), safe_v * over * over, 0.0)
            best = int(np.argmax(delta))
            best_delta = float(delta[best])
            if best_delta > 0.0:
                size = float(over[best])
                if moments.identity:
                    size = landed(c, best, float(gamma[best]), size, float(tau[best]), float(centers[best]))
                step = math.copysign(size, float(gamma[best]))
                c[best] += step
                trace.append(
                    selector.IterationRecord(
                        n=len(trace) + 1,
                        feature=best + 1,
                        gamma=float(gamma[best]),
                        tau=float(tau[best]),
                        delta=best_delta,
                        update=step,
                    )
                )
            if best_delta < kappa:
                return c, trace
        raise NumericalError("reference loop did not terminate")
    pass_best = 0.0
    for visit in range(max_iterations):
        k = visit % m
        if active[k]:
            gamma = float(centers[k]) - float(g[:, k] @ c) / float(v[k])
            over = abs(gamma) - float(tau[k])
            if over > 0.0:
                delta = float(v[k]) * over * over
                if moments.identity:
                    over = landed(c, k, gamma, over, float(tau[k]), float(centers[k]))
                step = math.copysign(over, gamma)
                c[k] += step
                pass_best = max(pass_best, delta)
                trace.append(
                    selector.IterationRecord(
                        n=len(trace) + 1,
                        feature=k + 1,
                        gamma=gamma,
                        tau=float(tau[k]),
                        delta=delta,
                        update=step,
                    )
                )
        if k == m - 1:
            if pass_best < kappa:
                return c, trace
            pass_best = 0.0
    raise NumericalError("reference loop did not terminate")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("warm", [False, True, "far"])
@pytest.mark.parametrize("geometry", ["identity", "dense", "degenerate", "empirical_test", "identity_degenerate"])
@pytest.mark.parametrize("schedule", selector.SCHEDULES)
def test_run_selection_matches_reference_loop_bitwise(schedule, geometry, warm, seed):
    rng = np.random.default_rng(1000 + seed)
    n, m = 2048, 7
    k_test = 1 if geometry == "empirical_test" else 0
    feats = rng.normal(size=((k_test + 1) * n, m))
    if geometry in ("degenerate", "identity_degenerate"):
        feats[:n, 2] = 0.0  # zero training moment
    truth = rng.normal(0.0, 1.0, size=m)
    y_all = feats @ truth + rng.normal(0.0, 0.3, size=feats.shape[0])
    ds = Dataset(x=np.arange(feats.shape[0], dtype=float), y=y_all[:n], hidden_y=y_all[n:] if k_test else None)
    if geometry in ("identity", "identity_degenerate"):
        mom = DesignMoments(np.eye(m), "Exact")
    elif geometry == "empirical_test":
        # the dense engine on the test Gram; empirical_test_moments answers
        # through the block (test_gram_free_test_moments_follow_the_dense_loop)
        test = feats[n:]
        mom = DesignMoments(test.T @ test / test.shape[0], "EmpiricalTest")
    else:
        a = rng.normal(size=(2 * m, m))
        gram = a.T @ a / (2 * m)
        if geometry == "degenerate":
            gram[5, :] = gram[:, 5] = 0.0  # zero design moment
        mom = DesignMoments(gram, "UserSupplied")
    spec = (
        bounds.BoundSpec("TrFirstOrder", 0.2)
        if k_test
        else bounds.BoundSpec("IndVarFirstOrder", 0.2)
    )
    # a "far" start lies outside every slab: under the identity the first pass moves every active feature
    warm_start = rng.normal(0.0, {True: 0.1, "far": 10.0}[warm], size=m) if warm else None
    family = ExplicitMatrix(feats)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = selector.run_selection(ds, family, mom, spec, schedule=schedule, warm_start=warm_start)
    stats = bounds.compute_stats(feats, ds)
    radius = bounds.compute_radius(spec, stats, mom)
    centers = bounds.slab_centers(stats, mom)
    active = ~mom.degenerate & ~stats.train_degenerate
    c, trace = reference_iterate(
        centers, mom, radius, model.kappa, schedule, active, selector.DEFAULT_MAX_ITERATIONS, warm_start
    )
    assert model.stopped_at >= 1
    assert model.coefficients.tobytes() == c.tobytes()
    assert [r.to_json_dict() for r in model.trace] == [r.to_json_dict() for r in trace]


def _transductive_fit_inputs(seed, n, m, k_test):
    """A transductive sample on an explicit (k+1)N x m design whose columns
    share a common factor, so the test Gram is far from diagonal."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=((k_test + 1) * n, m)) + rng.normal(size=((k_test + 1) * n, 1))
    y_all = feats @ rng.normal(0.0, 1.0, size=m) + rng.normal(0.0, 0.3, size=feats.shape[0])
    ds = Dataset(x=np.arange(feats.shape[0], dtype=float), y=y_all[:n], hidden_y=y_all[n:])
    return feats, ds


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k_test", [1, 2])
@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("schedule", selector.SCHEDULES)
def test_gram_free_test_moments_follow_the_dense_loop(schedule, warm, k_test, seed):
    """The fit through the test block against the reference loop over the
    test Gram as a matrix: the same steps, to rounding.

    A feature projected onto its slab's edge sits there to an ulp, so
    either loop may record one more projection that moves a coefficient by
    an ulp (GreedyMax's final probe, a later RoundRobin pass); those
    records, under the coefficients' tolerance of 1e-12, are left out of
    the sequences. delta = v (|gamma| - tau)^2 carries the error of
    |gamma| - tau, which is relative to |gamma| + tau, not to the difference."""
    n, m = 2048, 16
    feats, ds = _transductive_fit_inputs(2000 + seed, n, m, k_test)
    warm_start = np.random.default_rng(seed).normal(0.0, 0.1, size=m) if warm else None
    spec = bounds.BoundSpec("TrFirstOrder", 0.2) if k_test == 1 else bounds.BoundSpec("TrGeneralK", 0.2, subexp=((3.0, 3.0),))
    mom = empirical_test_moments(feats[n:])
    model = selector.run_selection(ds, ExplicitMatrix(feats), mom, spec, schedule=schedule, warm_start=warm_start)
    dense = DesignMoments(mom.gram, "EmpiricalTest")
    stats = bounds.compute_stats(feats, ds, (spec.variant,))
    c, trace = reference_iterate(
        bounds.slab_centers(stats, dense),
        dense,
        bounds.compute_radius(spec, stats, dense),
        model.kappa,
        schedule,
        ~dense.degenerate & ~stats.train_degenerate,
        selector.DEFAULT_MAX_ITERATIONS,
        warm_start,
    )
    assert np.max(np.abs(model.coefficients - c)) <= 1e-12
    got, want = ([r for r in records if abs(r.update) > 1e-12] for records in (model.trace, trace))
    assert len(want) >= 4
    assert [r.feature for r in got] == [r.feature for r in want]
    field = {name: np.array([[getattr(r, name) for r in got], [getattr(r, name) for r in want]]) for name in ("gamma", "tau", "delta", "update")}
    for name in ("gamma", "tau"):
        np.testing.assert_allclose(*field[name], rtol=1e-12, atol=0.0, err_msg=name)
    v = mom.diag[[r.feature - 1 for r in want]]
    over = np.abs(field["update"][1])
    bound = 2e-12 * v * over * (np.abs(field["gamma"][1]) + field["tau"][1])
    assert np.all(np.abs(field["delta"][0] - field["delta"][1]) <= bound)


@pytest.mark.parametrize("schedule", selector.SCHEDULES)
def test_transductive_fit_forms_no_test_gram(schedule):
    n, m = 2048, 16
    feats, ds = _transductive_fit_inputs(2000, n, m, 1)
    mom = empirical_test_moments(feats[n:])
    model = selector.run_selection(ds, ExplicitMatrix(feats), mom, bounds.BoundSpec("TrFirstOrder", 0.2), schedule=schedule)
    assert model.stopped_at >= 1 and not model.orthonormal_design
    assert "gram" not in vars(mom)
    assert np.shares_memory(mom.block, feats)  # the test block itself, not a copy


@pytest.mark.parametrize("schedule", selector.SCHEDULES)
def test_exactly_orthonormal_test_block_is_an_orthonormal_design(schedule):
    # A 4 x 4 Hadamard block has the test Gram H^T H / 4 = I exactly.
    h = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
    rng = np.random.default_rng(2200)
    feats = np.vstack([rng.normal(size=(4, 4)), h])
    y_all = feats @ np.array([1.0, -0.5, 0.0, 0.25]) + rng.uniform(-0.1, 0.1, size=8)
    ds = Dataset(x=np.arange(8, dtype=float), y=y_all[:4], hidden_y=y_all[4:])
    spec = bounds.BoundSpec("TrBasicBounded", 0.5, B=3.0)
    mom = empirical_test_moments(feats[4:])
    model = selector.run_selection(ds, ExplicitMatrix(feats), mom, spec, schedule=schedule)
    assert mom.identity and mom.diag.tolist() == [1.0] * 4
    assert model.orthonormal_design and model.to_json_dict()["orthonormal_design"] is True
    exact = selector.run_selection(ds, ExplicitMatrix(feats), DesignMoments(np.eye(4), "EmpiricalTest"), spec, schedule=schedule)
    assert model.coefficients.tobytes() == exact.coefficients.tobytes()
    assert model.trace == exact.trace


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["y", "hidden_y"])
def test_non_finite_label_is_data_error_not_zero_model(field, bad):
    n = 16
    x = np.linspace(0.0, 1.0, 2 * n)[:, None]
    y = np.sin(2 * np.pi * x[:, 0])
    labels = {"y": y[:n].copy(), "hidden_y": y[n:].copy()}
    labels[field][3] = bad
    family = Trigonometric(4)
    mom = empirical_test_moments(family.evaluate(x[n:]))
    spec = bounds.BoundSpec("TrFirstOrder", 0.1)
    with pytest.raises(DataError, match="non-finite"):
        selector.run_selection(Dataset(x=x, **labels), family, mom, spec)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    geometry=st.sampled_from(["identity", "dense"]),
    eps=st.floats(0.05, 0.9),
    noise=st.floats(0.0, 2.0),
)
def test_greedy_stop_leaves_every_active_movement_below_kappa(seed, m, geometry, eps, noise):
    """At a GreedyMax stop, v_k (|gamma_k| - tau_k)_+^2 < kappa for every active k,
    with gamma_k from the dense formula centers - (c @ G) / v.

    The stop test sees the point before the last, sub-kappa projection (the
    trace's final probe) is applied, so the property is checked there."""
    rng = np.random.default_rng(seed)
    n = 64
    feats = rng.normal(size=(n, m))
    y = feats @ rng.normal(size=m) + noise * rng.normal(size=n)
    ds = Dataset(x=np.arange(n, dtype=float), y=y)
    if geometry == "identity":
        gram = np.eye(m)
    else:
        a = rng.normal(size=(2 * m, m))
        gram = a.T @ a / (2 * m)
    mom = DesignMoments(gram, "UserSupplied")
    spec = bounds.BoundSpec("IndVarFirstOrder", eps)
    model = selector.run_selection(ds, ExplicitMatrix(feats), mom, spec)
    assert model.orthonormal_design is (geometry == "identity")
    stats = bounds.compute_stats(feats, ds, (spec.variant,))
    radius = bounds.compute_radius(spec, stats, mom)
    centers = bounds.slab_centers(stats, mom)
    active = ~mom.degenerate & ~stats.train_degenerate
    records = model.trace
    if records and records[-1].delta < model.kappa:
        records = records[:-1]
    c = np.zeros(m)
    for record in records:
        c[record.feature - 1] += record.update
    v = mom.diag
    gamma = centers - (c @ mom.gram) / v
    movement = v * np.maximum(np.abs(gamma) - radius.tau, 0.0) ** 2
    assert np.all(movement[active] < model.kappa)


@pytest.mark.parametrize("geometry", ["identity", "dense", "degenerate", "empirical_test", "leave_one_out"])
def test_model_keeps_the_slabs_it_fitted_against(geometry):
    rng = np.random.default_rng(77)
    n, m = 256, 6
    k_test = 1 if geometry == "empirical_test" else 0
    feats = rng.normal(size=((k_test + 1) * n, m))
    if geometry == "degenerate":
        feats[:n, 1] = 0.0
    y_all = feats @ rng.normal(size=m) + rng.normal(0.0, 0.3, size=feats.shape[0])
    ds = Dataset(x=np.arange(feats.shape[0], dtype=float), y=y_all[:n], hidden_y=y_all[n:] if k_test else None)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.2)
    loo = {}
    if geometry == "identity":
        mom = DesignMoments(np.eye(m), "Exact")
    elif geometry == "empirical_test":
        mom = empirical_test_moments(feats[n:])
        spec = bounds.BoundSpec("TrFirstOrder", 0.2)
    else:
        a = rng.normal(size=(2 * m, m))
        mom = DesignMoments(a.T @ a / (2 * m), "UserSupplied")
        if geometry == "leave_one_out":
            spec = bounds.BoundSpec("IndSvm", 0.2)
            loo = {"loo_index": np.arange(m) * 3}
    family = ExplicitMatrix(feats)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = selector.run_selection(ds, family, mom, spec, **loo)
    fresh = bounds.slab_setup(feats, ds, mom, spec, **loo)
    assert isinstance(model.slabs, bounds.Slabs)
    assert model.slabs.radius.beta.tobytes() == fresh.radius.beta.tobytes()
    assert model.slabs.radius.tau.tobytes() == fresh.radius.tau.tobytes()
    assert model.slabs.centers.tobytes() == fresh.centers.tobytes()
    assert model.slabs.active.tolist() == fresh.active.tolist()
    assert model.slabs.active.tolist() == [geometry != "degenerate" or k != 1 for k in range(m)]
    payload = model.to_json_dict()
    assert "slabs" not in payload
    assert selector.SelectionModel.from_json_dict(json.loads(json.dumps(payload))).slabs is None


def test_inductive_trigonometric_fit_holds_no_feature_matrix(peak_bytes):
    rng = np.random.default_rng(78)
    n = m = 2048
    x = rng.uniform(size=n)
    ds = Dataset(x=x, y=np.cos(2 * np.pi * 3 * x) + rng.uniform(-0.1, 0.1, size=n))
    family = Trigonometric(m)
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.1)
    mom = exact_moments(family)
    fits = []
    peak = peak_bytes(lambda: fits.append(selector.run_selection(ds, family, mom, spec)))
    (model,) = fits
    # the (N, m) feature matrix alone is 32 MB
    assert peak < 8 * 2**20
    # the adjoint statistics, within rounding of the feature matrix's
    fresh = bounds.slab_setup(family.evaluate(x), ds, mom, spec)
    assert np.abs(model.slabs.radius.beta - fresh.radius.beta).max() <= 1e-12 * fresh.radius.beta.max()
    assert np.abs(model.slabs.centers - fresh.centers).max() <= 1e-12 * np.abs(ds.y).mean()
    assert model.slabs.active.tolist() == fresh.active.tolist()
    assert model.selected.tolist() == [6]  # sqrt(2) cos(2 pi 3 x), feature 6


@pytest.mark.parametrize("kind", ["Trigonometric", "Haar", "KernelPCA", "ExplicitMatrix"])
def test_fit_evaluates_rowwise_dictionaries_per_block_and_others_once(kind, evaluations, monkeypatch):
    rng = np.random.default_rng(79)
    n, m = 1100, 512
    x = rng.uniform(size=(n, 1))
    if kind == "Trigonometric":
        family = Trigonometric(m)
    elif kind == "Haar":
        family = Haar(8)
    elif kind == "KernelPCA":
        family = KernelPCA(x[:600], {"kind": "gaussian", "gamma": 50.0}, top=m)
    else:
        family = ExplicitMatrix(rng.normal(size=(n, m)))
    ds = Dataset(x=x, y=rng.normal(size=n))
    features = family.evaluate(x)
    a = rng.normal(size=(2 * m, m))
    mom = DesignMoments(a.T @ a / (2 * m), "UserSupplied")
    spec = bounds.BoundSpec("IndVarFirstOrder", 0.1)
    log = evaluations(type(family))
    model = selector.run_selection(ds, family, mom, spec)
    monkeypatch.undo()
    reference = selector.run_selection(ds, features, mom, spec)
    if kind == "Trigonometric":
        # an inductive trigonometric fit evaluates no feature row: its
        # statistics are the adjoint sums, within rounding of the matrix's
        assert log.rows == []
        assert model.selected.tolist() == reference.selected.tolist()
        assert [r.feature for r in model.trace] == [r.feature for r in reference.trace]
        assert np.abs(model.coefficients - reference.coefficients).max() <= 1e-12 * np.abs(ds.y).mean()
        return
    step = STATS_BLOCK_CELLS // m
    assert log.rows == ([step] * (n // step) + [n % step] if family.rowwise else [n])
    assert model.coefficients.tobytes() == reference.coefficients.tobytes()
    assert model.trace == reference.trace


@pytest.mark.parametrize("transductive", [False, True])
def test_rowwise_fit_checks_the_sample_once_outside_evaluate(transductive, monkeypatch):
    n, m = 300, 8
    x = np.linspace(0.0, 1.0, 2 * n if transductive else n)[:, None]
    ds = Dataset(x=x, y=np.cos(2 * np.pi * x[:n, 0]))
    family = Trigonometric(m)
    check, evaluate = Trigonometric.check_points, Trigonometric.evaluate
    outside, depth = [], []

    def checked(self, points):
        if not depth:
            outside.append(np.asarray(points).shape[0])
        return check(self, points)

    def evaluated(self, points):
        depth.append(points)
        try:
            return evaluate(self, points)
        finally:
            depth.pop()

    monkeypatch.setattr(Trigonometric, "check_points", checked)
    monkeypatch.setattr(Trigonometric, "evaluate", evaluated)
    features, mom = bounds.sample_geometry(family, ds, transductive, lambda: exact_moments(family))
    spec = bounds.BoundSpec("TrBasicBounded", 0.1, B=2.0) if transductive else bounds.BoundSpec("IndVarFirstOrder", 0.1)
    selector.run_selection(ds, features, mom, spec)
    assert outside == [x.shape[0]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: selector.SelectionModel(np.ones(3), (), "IndExact", 0.1, 0.0, "GreedyMax"),
        lambda: experiments.SyntheticModel(np.array([1.0, 0.5])),
        lambda: bounds.ConfidenceRadius(np.ones(3), np.ones(3)),
        lambda: bounds.FeatureStats(2, 0, False, np.ones(3), np.zeros(3)),
    ],
    ids=["SelectionModel", "SyntheticModel", "ConfidenceRadius", "FeatureStats"],
)
def test_records_that_hold_arrays_compare_and_hash_by_identity(build):
    # A field-wise == would compare arrays, whose truth value is ambiguous.
    a, b = build(), build()
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1
