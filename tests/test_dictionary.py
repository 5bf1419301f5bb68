import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabreg import dictionary as fd
from slabreg.errors import ConfigError, DataError, NumericalError


def midpoint_gram(family, n_points):
    """Quadrature oracle: Gram under the uniform design via the midpoint rule."""
    x = (np.arange(n_points) + 0.5) / n_points
    feats = family.evaluate(x)
    return feats.T @ feats / n_points


def test_trigonometric_constant_feature():
    assert fd.Trigonometric(1).evaluate([0.3]).tolist() == [[1.0]]


def test_trigonometric_at_zero():
    row = fd.Trigonometric(3).evaluate([0.0])[0]
    assert row == pytest.approx([1.0, math.sqrt(2.0), 0.0], abs=1e-15)


def reference_trigonometric(x, m):
    """The former evaluation: full-width sqrt2*cos and sqrt2*sin arrays, then copied into the columns."""
    out = np.zeros((x.size, m))
    out[:, 0] = 1.0
    nfreq = m // 2
    if nfreq:
        ang = 2.0 * np.pi * np.outer(x, np.arange(1, nfreq + 1))
        cos = np.sqrt(2.0) * np.cos(ang)
        sin = np.sqrt(2.0) * np.sin(ang)
        out[:, 1::2] = cos[:, : out[:, 1::2].shape[1]]
        out[:, 2::2] = sin[:, : out[:, 2::2].shape[1]]
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 4096])
def test_trigonometric_matches_former_expression_bitwise(m):
    # three angle blocks and a remainder of rows
    rows = 3 * max(1, fd.STATS_BLOCK_CELLS // max(1, m // 2)) + 5
    x = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(m).uniform(size=rows)])
    assert np.array_equal(fd.Trigonometric(m).evaluate(x), reference_trigonometric(x, m))


def test_trigonometric_gram_is_identity_quadrature_oracle():
    g = midpoint_gram(fd.Trigonometric(3), 10**6)
    assert np.max(np.abs(g - np.eye(3))) <= 1e-3


def test_haar_mother_wavelet_signs():
    vals = fd.Haar(0).evaluate([[0.25], [0.75]])
    assert vals[0, 1] == 1.0
    assert vals[1, 1] == -1.0


def test_haar_size():
    assert fd.Haar(1).m == 4


def test_haar_montecarlo_gram_oracle():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=10**5)
    family = fd.Haar(2)
    feats = family.evaluate(x)
    g = feats.T @ feats / x.size
    assert np.max(np.abs(g - np.eye(family.m))) <= 2e-2


def test_haar_gram_exact_on_dyadic_midpoints():
    family = fd.Haar(3)
    g = midpoint_gram(family, 2 ** (family.levels + 1))
    assert np.max(np.abs(g - np.eye(family.m))) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 64])
def test_trigonometric_feature_sup_bounds_every_feature(m):
    # sqrt 2 for every m: the bound of TrGeneralK's auto subexp constant
    family = fd.Trigonometric(m)
    grid = np.linspace(0.0, 1.0, 20001)
    assert family.feature_sup == math.sqrt(2.0)
    assert np.abs(family.evaluate(grid)).max() <= family.feature_sup
    if m >= 2:
        assert np.abs(family.evaluate([0.0])).max() == family.feature_sup


@pytest.mark.parametrize("levels", range(7))
def test_haar_feature_sup_is_the_largest_value_at_the_midpoints(levels):
    # each feature is constant on the m cells of the finest level
    family = fd.Haar(levels)
    mids = (np.arange(family.m) + 0.5) / family.m
    assert family.feature_sup == np.abs(family.evaluate(mids)).max() == 2.0 ** (levels / 2.0)


def test_multiscale_center_hit_is_one():
    family = fd.MultiscaleGaussian([[0.4, -1.0]], [3.0])
    assert family.evaluate([[0.4, -1.0]])[0, 0] == 1.0


def test_multiscale_plugin_value():
    family = fd.MultiscaleGaussian([[0.0]], [2.0])
    assert family.evaluate([[1.0]])[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_multiscale_size_matches_centers_times_scales():
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(11, 2))
    scales = [2.0, 4.0, 8.0]
    assert fd.MultiscaleGaussian(centers, scales).m == 33


def test_multiscale_hand_matrix_oracle():
    centers = np.array([[0.0], [1.0]])
    scales = [1.0, 4.0]
    family = fd.MultiscaleGaussian(centers, scales)
    pts = np.array([[0.0], [0.5], [2.0]])
    got = family.evaluate(pts)
    expected = np.empty((3, 4))
    for s, g in enumerate(scales):
        for c, center in enumerate([0.0, 1.0]):
            for i, x in enumerate([0.0, 0.5, 2.0]):
                expected[i, s * 2 + c] = math.exp(-g * (x - center) ** 2 / 2.0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_multiscale_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        fd.MultiscaleGaussian([], [1.0])
    with pytest.raises(ConfigError):
        fd.MultiscaleGaussian([[0.0]], [0.0])


def test_gaussian_values_in_unit_interval():
    rng = np.random.default_rng(3)
    family = fd.MultiscaleGaussian(rng.normal(size=(5, 3)), [0.5, 2.0])
    vals = family.evaluate(rng.normal(size=(40, 3)))
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_kernel_pca_rank_one():
    family = fd.KernelPCA([[1.0], [1.0]], {"kind": "linear"}, top=2)
    np.testing.assert_allclose(family.eigenvalues, [2.0, 0.0], atol=1e-12)


def test_kernel_pca_identity_kernel_indicators():
    family = fd.KernelPCA(
        [[0.0], [1.0], [2.0]], {"kind": "explicit", "matrix": np.eye(3).tolist()}, top=3
    )
    np.testing.assert_allclose(family.eigenvalues, np.ones(3), atol=1e-12)
    feats = np.abs(family.evaluate([[0.0], [1.0], [2.0]]))
    # ties leave the column order free: expect indicators up to a permutation
    assert feats.sum() == pytest.approx(3.0)
    np.testing.assert_allclose(feats @ feats.T, np.eye(3), atol=1e-12)


def test_kernel_pca_reconstruction_oracle():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(5, 2))
    family = fd.KernelPCA(pts, {"kind": "gaussian", "gamma": 1.3}, top=5)
    K = np.exp(-0.65 * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    recon = (family.eigenvectors * family.eigenvalues) @ family.eigenvectors.T
    assert np.max(np.abs(recon - K)) <= 1e-10


def test_kernel_pca_eigen_identities():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(7, 1))
    family = fd.KernelPCA(pts, {"kind": "gaussian", "gamma": 2.0}, top=7)
    E = family.eigenvectors
    np.testing.assert_allclose(E.T @ E, np.eye(7), atol=1e-10)
    K = np.exp(-1.0 * (pts - pts.T) ** 2)
    for l in range(7):
        np.testing.assert_allclose(K @ E[:, l], family.eigenvalues[l] * E[:, l], atol=1e-8)


def test_kernel_pca_rejects_indefinite_kernel():
    K = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(NumericalError, match="eigenvalue"):
        fd.KernelPCA([[0.0], [1.0]], {"kind": "explicit", "matrix": K}, top=2)


def test_evaluate_domain_violation_names_point():
    with pytest.raises(DataError, match="point 1"):
        fd.Trigonometric(2).evaluate([[0.5], [1.5]])
    with pytest.raises(DataError, match="point 0"):
        fd.Haar(1).evaluate([[-0.1]])


def test_evaluate_trivials():
    assert fd.Trigonometric(1).evaluate([[0.1], [0.5], [0.9]]).tolist() == [[1.0]] * 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
def test_multiscale_permutation_equivariance(n, pyrandom):
    rng = np.random.default_rng(pyrandom.randrange(2**32))
    pts = rng.normal(size=(n, 2))
    perm = rng.permutation(n)
    base = fd.MultiscaleGaussian(pts, [1.0, 3.0])
    permuted = fd.MultiscaleGaussian(pts[perm], [1.0, 3.0])
    np.testing.assert_allclose(
        base.evaluate(pts[perm]), permuted.evaluate(pts[perm]), rtol=0, atol=0
    )
    np.testing.assert_array_equal(base.evaluate(pts)[perm], base.evaluate(pts[perm]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
def test_kernel_pca_permutation_equivariance(n, pyrandom):
    rng = np.random.default_rng(pyrandom.randrange(2**32))
    pts = rng.normal(size=(n, 1))
    perm = rng.permutation(n)
    base = fd.KernelPCA(pts, {"kind": "gaussian", "gamma": 0.7}, top=min(3, n))
    permuted = fd.KernelPCA(pts[perm], {"kind": "gaussian", "gamma": 0.7}, top=min(3, n))
    probe = rng.normal(size=(5, 1))
    np.testing.assert_allclose(base.evaluate(probe), permuted.evaluate(probe), atol=1e-8)


def test_montecarlo_gram_error_shrinks_with_samples():
    family = fd.Trigonometric(4)
    errs = {}
    for M in (10**4, 10**6):
        x = np.random.default_rng(11).uniform(size=M)
        feats = family.evaluate(x)
        errs[M] = np.max(np.abs(feats.T @ feats / M - np.eye(4)))
    assert errs[10**6] < errs[10**4]
    assert errs[10**6] <= 5e-3 and errs[10**4] <= 5e-2


def test_feature_matrix_rejects_nonfinite():
    with pytest.raises(NumericalError):
        fd.validate_feature_matrix(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize(
    "family",
    [
        fd.Trigonometric(5),
        fd.Haar(2),
        fd.MultiscaleGaussian([[0.1], [0.9]], [1.0, 2.0]),
        fd.KernelPCA(np.linspace(0, 1, 6)[:, None], {"kind": "gaussian", "gamma": 1.0}, top=4),
        fd.ExplicitMatrix([[1.0, 2.0], [3.0, 4.0]]),
    ],
)
def test_spec_roundtrip_evaluates_identically(family):
    spec = json.loads(json.dumps(family.spec()))
    rebuilt = fd.from_spec(spec)
    assert rebuilt.m == family.m
    if family.kind == "ExplicitMatrix":
        np.testing.assert_array_equal(rebuilt.evaluate(None), family.evaluate(None))
        return
    pts = np.linspace(0.05, 0.95, 9)[:, None]
    np.testing.assert_array_equal(rebuilt.evaluate(pts), family.evaluate(pts))


@pytest.mark.parametrize(
    "field,shape",
    [("eigenvectors", (6, 2)), ("eigenvectors", (5, 3)), ("eigenvalues", (2,))],
)
def test_kernel_pca_spec_shapes_checked(field, shape):
    family = fd.KernelPCA(np.linspace(0, 1, 6)[:, None], {"kind": "gaussian", "gamma": 1.0}, top=3)
    spec = json.loads(json.dumps(family.spec()))
    spec["parameters"][field] = np.asarray(spec["parameters"][field])[tuple(slice(n) for n in shape)].tolist()
    with pytest.raises(ConfigError, match="shape"):
        fd.from_spec(spec)


def test_explicit_matrix_row_count_guard():
    family = fd.ExplicitMatrix([[1.0], [2.0]])
    with pytest.raises(DataError):
        family.evaluate([[0.0], [0.0], [0.0]])


def test_evaluation_deterministic_to_the_bit():
    family = fd.KernelPCA(
        np.random.default_rng(2).uniform(size=(8, 2)), {"kind": "gaussian", "gamma": 1.1}, top=5
    )
    pts = np.random.default_rng(3).uniform(size=(13, 2))
    np.testing.assert_array_equal(family.evaluate(pts), family.evaluate(pts))


def test_unknown_dictionary_kind_error_lists_the_kinds():
    spec = {"kind": "GaussianKernel", "parameters": {"centers": [[0.5]], "scale": 2.0}}
    with pytest.raises(ConfigError) as caught:
        fd.from_spec(spec)
    assert str(caught.value) == (
        "dictionary kind must be one of Trigonometric, Haar, MultiscaleGaussian, KernelPCA, ExplicitMatrix, "
        "got 'GaussianKernel'"
    )


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"kind": "Haar", "levels": 2}, "unknown config key 'levels' in dictionary; dictionary reads kind, m, parameters"),
        ({"kind": "Haar", "m": 99, "parameters": {"levels": 2}}, "dictionary m must be 8, the size of its Haar family, got 99"),
        ({"kind": "Trigonometric", "m": 4, "parameters": {"levels": 2}}, "unknown config key 'levels' in dictionary parameters"),
        ({"kind": "Trigonometric", "m": 4, "parameters": {"m": 4}}, "unknown config key 'm' in dictionary parameters"),
        ({"kind": "Haar"}, "missing key 'parameters' in dictionary"),
    ],
    ids=["top-level-parameter", "restated-m", "trig-levels", "trig-m-in-parameters", "no-parameters"],
)
def test_each_dictionary_parameter_has_one_place(spec, message):
    # kind and m at the top of the spec, the kind's parameters in ``parameters``
    with pytest.raises(ConfigError) as caught:
        fd.from_spec(spec)
    assert str(caught.value).startswith(message)


def test_squared_distances_past_the_float_range_are_one_data_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="squared distances between points overflow"):
            fd.squared_distances(np.array([[0.0], [1.0]]), np.array([[1e308]]))
        with pytest.raises(DataError, match="squared distances between points overflow"):
            fd.KernelPCA([[0.1], [1e308]], {"kind": "gaussian", "gamma": 2.0}, top=1)


def test_gaussian_exponent_past_the_float_range_is_exactly_zero_without_warning():
    # Finite squared distances times the scale overflow to -inf, whose exp
    # 0.0 is the exact value: no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        features = fd.MultiscaleGaussian([[1e154], [0.5]], [4.0]).evaluate([[0.2]])
        pca = fd.KernelPCA([[0.1], [1e154]], {"kind": "gaussian", "gamma": 4.0}, top=1)
        at = pca.evaluate([[0.3], [0.1]])
    assert features.tolist() == [[math.exp(-0.5 * 4.0 * (0.5 - 0.2) ** 2), 0.0]]
    assert pca.eigenvalues.tolist() == [1.0] and pca.eigenvectors.tolist() == [[0.0], [1.0]]
    assert at.tolist() == [[0.0], [0.0]]


def test_gaussian_spec_roundtrip_keeps_center_origin():
    centers = [[0.9], [0.1], [0.5]]
    family = fd.MultiscaleGaussian(centers, [2.0])
    again = fd.from_spec(json.loads(json.dumps(family.spec())))
    np.testing.assert_array_equal(family.center_origin, [1, 2, 0])
    np.testing.assert_array_equal(again.center_origin, [1, 2, 0])
    np.testing.assert_array_equal(again.center_train_indices, family.center_train_indices)
    assert again == family


def test_center_origin_composes_with_the_sort_of_listed_centers():
    # the listed center 0.5 is training row 1 and 0.1 is row 0
    spec = {"kind": "MultiscaleGaussian", "parameters": {"centers": [[0.5], [0.1]], "scales": [1.0], "center_origin": [1, 0]}}
    family = fd.from_spec(spec)
    np.testing.assert_array_equal(family.centers[:, 0], [0.1, 0.5])
    np.testing.assert_array_equal(family.center_origin, [0, 1])


@pytest.mark.parametrize("origin", [[0, 0, 1], [0, 1], [0.0, 1.0, 2.0], [0, 1, 3], [True, False, True], "012"])
def test_center_origin_must_be_a_permutation(origin):
    spec = fd.MultiscaleGaussian([[0.9], [0.1], [0.5]], [2.0]).spec()
    spec["parameters"]["center_origin"] = origin
    with pytest.raises(ConfigError, match="center_origin must be a permutation of range"):
        fd.from_spec(spec)


def python_squared_distances(a, b):
    """Oracle: the scalar loop, coordinates summed in order from zero."""
    out = np.empty((len(a), len(b)))
    for i, u in enumerate(a.tolist()):
        for j, v in enumerate(b.tolist()):
            s = 0.0
            for x, y in zip(u, v):
                s += (x - y) * (x - y)
            out[i, j] = s
    return out


def distance_points(d):
    rng = np.random.default_rng(d)
    return rng.normal(scale=3.0, size=(23, d)), rng.uniform(-1.0, 1.0, size=(17, d))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_squared_distances_equal_scalar_loop_bitwise(d):
    a, b = distance_points(d)
    got = fd.squared_distances(a, b)
    assert got.tobytes() == python_squared_distances(a, b).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_squared_distances_equal_scipy_cdist_bitwise(d):
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    a, b = distance_points(d)
    assert fd.squared_distances(a, b).tobytes() == cdist(a, b, "sqeuclidean").tobytes()


def gaussian_families():
    rng = np.random.default_rng(11)
    centers = rng.uniform(size=(37, 2))
    return [
        fd.MultiscaleGaussian(centers, [4.0, 0.5, 64.0]),
        fd.KernelPCA(centers, {"kind": "gaussian", "gamma": 6.0}, top=5),
    ]


@pytest.mark.parametrize("family", gaussian_families(), ids=lambda f: f.kind)
def test_gaussian_features_equal_former_cdist_expression_bitwise(family):
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    x = np.random.default_rng(12).uniform(size=(101, 2))
    if isinstance(family, fd.KernelPCA):
        gamma = family.kernel["gamma"]
        gram = np.exp(-0.5 * gamma * cdist(family.points, family.points, "sqeuclidean"))
        vals, vecs = np.linalg.eigh(gram)
        vecs = fd._canonical_signs(vecs[:, ::-1])[:, : family.top]
        assert vecs.tobytes() == family.eigenvectors.tobytes()
        expected = np.exp(-0.5 * gamma * cdist(x, family.points, "sqeuclidean")) @ vecs
    else:
        expected = np.hstack(
            [np.exp(-0.5 * g * cdist(x, family.centers, "sqeuclidean")) for g in family.scales]
        )
    assert family.evaluate(x).tobytes() == expected.tobytes()


def test_multiscale_evaluate_peak_memory_is_near_its_output(peak_bytes):
    rng = np.random.default_rng(13)
    family = fd.MultiscaleGaussian(rng.uniform(size=256), [4.0, 16.0, 64.0, 256.0])
    x = rng.uniform(size=2048)
    peak = peak_bytes(lambda: family.evaluate(x))
    # the output, the (n, c) distances and one scale's temporary: 1.5x
    assert peak <= 1.6 * x.size * family.m * 8


def every_kind(cls=fd.FeatureDictionary):
    for sub in cls.__subclasses__():
        yield sub
        yield from every_kind(sub)


def test_rowwise_is_declared_by_the_elementwise_kinds_only():
    declared = {cls.kind for cls in every_kind() if cls.rowwise}
    assert declared == {"Trigonometric", "Haar", "MultiscaleGaussian"}


def rowwise_families():
    rng = np.random.default_rng(16)
    centers = rng.uniform(size=(37, 2))
    return [
        fd.Trigonometric(1),
        fd.Trigonometric(2),
        fd.Trigonometric(257),
        fd.Haar(0),
        fd.Haar(7),
        fd.MultiscaleGaussian(centers, [4.0, 0.5, 64.0]),
    ]


@pytest.mark.parametrize("family", rowwise_families(), ids=lambda f: f"{f.kind}-{f.m}")
def test_rowwise_evaluation_of_a_slice_is_that_slice_bytewise(family):
    assert family.rowwise
    grid = np.concatenate([[0.0, 0.5, 1.0], np.arange(129) / 128.0, np.random.default_rng(17).uniform(size=300)])
    x = grid[:, None] if family.kind in ("Trigonometric", "Haar") else np.column_stack([grid, grid[::-1]])
    n = x.shape[0]
    whole = family.evaluate(x)
    for a, b in [(0, 1), (0, 64), (3, 70), (64, 65), (100, n), (n - 1, n), (7, 7)]:
        part = family.evaluate(x[a:b])
        assert part.shape == whole[a:b].shape
        assert part.tobytes() == whole[a:b].tobytes(), (a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 257, 4096])
def test_trigonometric_adjoint_is_the_transpose_of_combine(m):
    rng = np.random.default_rng(m)
    n = 700
    x = rng.uniform(size=n)
    c, w = rng.normal(size=m), rng.normal(size=n)
    family = fd.Trigonometric(m)
    adjoint = family.adjoint(w, x)
    assert adjoint.shape == (m,)
    # <combine(c, x), w> = <c, adjoint(w, x)>, to rounding
    assert abs(family.combine(c, x) @ w - c @ adjoint) <= 1e-13 * np.abs(c).sum() * np.abs(w).sum()
    # and each entry is the column sum of the weighted feature matrix
    assert np.abs(adjoint - w @ family.evaluate(x)).max() <= 1e-12 * np.abs(w).sum()


U, P = 2.0**-53, 2.0 * np.pi
GRIDDED_SIZES = [1, 2, 3, 4, 5, 64, 65, 129, 257, 4096]


def gridded_case(m):
    """Points (0, 1/2, 1, 1e-170, 1 - 2^-53 and 200 uniform ones), the
    angles P x j of frequencies j = 1..m // 2 in long double, P the double
    2 pi, and the per-unit-weight bound of Gridding's docstring at n points."""
    rng = np.random.default_rng(m)
    x = np.concatenate([[0.0, 0.5, 1.0, 1e-170, 1.0 - 2.0**-53], rng.uniform(size=200)])
    freqs = np.arange(1, m // 2 + 1)
    angle = np.longdouble(P) * np.multiply.outer(freqs, x.astype(np.longdouble))
    bound = (lambda n: fd.Gridding.of(m // 2).bound(n)) if m > 1 else (lambda n: 0.0)
    return rng, x, freqs, angle, bound


@pytest.mark.parametrize("m", GRIDDED_SIZES)
def test_gridded_adjoint_is_within_its_bound_of_the_exact_waves(m):
    # Every entry against long-double sums of the waves at A = P x j: within
    # (sqrt 2 (error(n) + 0.36u A) + 3u) sum |w|; frequency 0 is sum w.
    rng, x, freqs, angle, bound = gridded_case(m)
    w = rng.normal(size=x.size)
    adjoint = fd.Trigonometric(m).adjoint(w, x)
    assert adjoint.shape == (m,) and adjoint[0] == w.sum()
    root2 = np.sqrt(np.longdouble(2.0))
    cos, sin = root2 * (np.cos(angle) @ w), root2 * (np.sin(angle) @ w)
    allowed = (np.sqrt(2.0) * (bound(x.size) + 0.36 * U * P * freqs * x.max()) + 3.0 * U) * np.abs(w).sum()
    assert np.all(np.abs(adjoint[1::2] - cos) <= allowed)
    assert np.all(np.abs(adjoint[2::2] - sin[: (m - 1) // 2]) <= allowed[: (m - 1) // 2])


@pytest.mark.parametrize("m", GRIDDED_SIZES)
def test_gridded_combine_is_within_its_bound_of_the_exact_waves(m):
    # Every value against the long-double sum at A = P x j: within
    # (sqrt 2 error(1) + 2u) sum |c| + sqrt 2 0.36u P x sum_j j (|a_j| + |b_j|).
    rng, x, freqs, angle, bound = gridded_case(m)
    c = rng.normal(size=m)
    a, b = c[1::2], c[2::2]
    waves = a.astype(np.longdouble) @ np.cos(angle) + b.astype(np.longdouble) @ np.sin(angle[: b.size])
    exact = c[0] + np.sqrt(np.longdouble(2.0)) * waves
    amplitudes = np.abs(a) + np.append(np.abs(b), np.zeros(a.size - b.size))
    drift = np.sqrt(2.0) * 0.36 * U * P * x * (freqs @ amplitudes)
    allowed = (np.sqrt(2.0) * bound(1) + 2.0 * U) * np.abs(c).sum() + drift
    assert np.all(np.abs(fd.Trigonometric(m).combine(c, x) - exact) <= allowed)


def test_combine_at_two_to_the_fifteen_points_peaks_under_four_mb(peak_bytes):
    # 4096 coefficients at 2^15 points: the grid of 2^13 cells and the row
    # blocks' kernels, where the feature matrix would take 1 GB
    rng = np.random.default_rng(7)
    c, x = rng.normal(size=4096), rng.uniform(size=1 << 15)
    family = fd.Trigonometric(c.size)
    peak = peak_bytes(lambda: family.combine(c, x))
    assert peak < 4 * 2**20
    assert np.abs(family.combine(c, x[:500]) - family.evaluate(x[:500]) @ c).max() <= 1e-12 * np.abs(c).sum()


def test_trigonometric_adjoint_walks_fixed_row_blocks(peak_bytes):
    rng = np.random.default_rng(4)
    step = 1000  # more than one block's rows at m = 257 and at m = 4096
    family = fd.Trigonometric(257)
    x, w = rng.uniform(size=3 * step + 5), rng.normal(size=3 * step + 5)
    assert np.abs(family.adjoint(w, x) - w @ family.evaluate(x)).max() <= 1e-12 * np.abs(w).sum()
    family = fd.Trigonometric(4096)
    x, w = rng.uniform(size=16 * step + 5), rng.normal(size=16 * step + 5)
    peak = peak_bytes(lambda: family.adjoint(w, x))
    # the gridding's per-block arrays have a fixed size; the kernel, index
    # and work arrays of all 16,005 points at once would take 12 MB
    assert peak < 4 * 2**20
    with pytest.raises(DataError, match="outside"):
        family.adjoint(w[:2], [0.5, 1.5])
